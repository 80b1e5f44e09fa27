"""Places, divisors, valuations, Laurent data, Riemann-Roch at genus 0."""

import functools
import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from ramforge import GF
from ramforge.config import MAX_COVER_DEGREE
from ramforge.errors import ParseError, PreconditionError, SizeBoundError
from ramforge.funcfield import (
    Divisor,
    Place,
    RationalFunction,
    differential_divisor,
    divisor_of,
    laurent_expand,
    parse_place,
    parse_rational,
    pole_divisor_of,
    prescribed_element,
    pth_power_test,
    rr_basis,
    valuation,
)
from ramforge.polyring import Polynomial, irreducibles, parse_polynomial

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def rf(field, text, var="x"):
    return parse_rational(text, field, var)


def pl(field, text, var="x"):
    return parse_place(text, field, var)


def div(field, *terms):
    """The divisor sum(n * (place)) over (place text, n) pairs in x."""
    return Divisor(field, [(pl(field, text), n) for text, n in terms])


def place_pool(field):
    out = [Place.from_root(field.element(v)) for v in range(field.q)]
    out.append(Place.infinite(field))
    return out


F2_PLACES = place_pool(F2) + [pl(F2, "x^2+x+1")]
F3_PLACES = place_pool(F3)
F5_PLACES = place_pool(F5)


def polys(field, max_deg=5):
    return st.lists(
        st.integers(0, field.q - 1), min_size=1, max_size=max_deg + 1
    ).map(lambda c: Polynomial(field, c))


def nonzero_rationals(field, max_deg=5):
    return st.tuples(
        polys(field, max_deg).filter(lambda f: not f.is_zero()),
        polys(field, max_deg).filter(lambda f: not f.is_zero()),
    ).map(lambda t: RationalFunction(t[0], t[1]))


# ---------------------------------------------------------------------------
# places and divisors


def test_place_text_forms():
    assert pl(F2, "inf").text("x") == "inf"
    assert pl(F2, "x^2+x+1").text("x") == "x^2+x+1"
    assert pl(F2, "inf").pretty("t") == "(t=inf)"
    assert pl(F5, "x+2").pretty("x") == "(x=3)"
    assert pl(F2, "x^2+x+1").pretty("x") == "(x^2+x+1=0)"


def test_place_ordering():
    names = ["x", "x+1", "x^2+x+1", "inf"]
    spots = [pl(F2, n) for n in names]
    assert sorted(spots, key=Place.sort_key) == spots


def test_place_rejects_reducible():
    with pytest.raises(PreconditionError):
        Place.finite(parse_polynomial("x^2+1", F2, "x"))


def test_parse_place_monicizes():
    assert pl(F5, "2*x+4") == pl(F5, "x+2")


def test_divisor_text_round_trip():
    D = div(F2, ("inf", -2), ("x+1", -1), ("x", 3))
    assert D.to_text("x") == "3*(x) - 1*(x+1) - 2*(inf)"
    assert D.degree() == 0
    assert Divisor(F2, D.items()) == D


def test_divisor_arithmetic():
    D = div(F2, ("x", 2), ("inf", 1))
    E = div(F2, ("x", 1), ("inf", -1))
    assert (D + E).to_text("x") == "3*(x)"
    assert (D - E).coefficient(pl(F2, "inf")) == 2
    assert (2 * E).degree() == 0
    assert D.is_effective() and not E.is_effective()


def test_divisor_zero():
    Z = Divisor.zero(F2)
    assert Z.degree() == 0
    assert Z.to_text("x") == "0"
    assert Z.is_zero()


# ---------------------------------------------------------------------------
# rational-function arithmetic: Henrici's cancellation against the full gcd

HENRICI_FIELDS = [GF(2), GF(2, 2), GF(2, 3), GF(3), GF(5), GF(3, 2)]

# summed _divmod row work, rows times divisor length, of the cocycle_defect
# below when every result is reduced by a full gcd
FULL_GCD_COCYCLE_ROW_WORK = 109_864


def unreduced(data, field, max_deg=4):
    """num, den sharing a random factor; leading coefficients not monic."""
    shared = data.draw(polys(field, 2).filter(lambda f: not f.is_zero()))
    num = data.draw(polys(field, max_deg))
    den = data.draw(polys(field, max_deg).filter(lambda f: not f.is_zero()))
    return num * shared, den * shared


def assert_reduced_as(got, num, den):
    want = RationalFunction(num, den)
    assert (got.num, got.den) == (want.num, want.den)


@given(data=st.data())
@settings(max_examples=200)
def test_arithmetic_matches_full_gcd(data):
    K = data.draw(st.sampled_from(HENRICI_FIELDS))
    f = RationalFunction(*unreduced(data, K))
    g = RationalFunction(*unreduced(data, K))
    # h shares the denominator of f up to a factor, so gcd(b, d) != 1
    extra = data.draw(polys(K, 2).filter(lambda p: not p.is_zero()))
    h = RationalFunction(data.draw(polys(K, 4)), f.den * extra)
    # k has a constant, possibly non-monic, denominator
    lead = data.draw(st.integers(1, K.q - 1))
    k = RationalFunction(data.draw(polys(K, 4)), Polynomial.constant(K, lead))
    for u, v in [(f, g), (f, h), (h, f), (f, k), (k, h)]:
        a, b, c, d = u.num, u.den, v.num, v.den
        assert_reduced_as(u + v, a * d + c * b, b * d)
        assert_reduced_as(u - v, a * d - c * b, b * d)
        assert_reduced_as(u * v, a * c, b * d)
        if not v.is_zero():
            assert_reduced_as(u / v, a * d, b * c)
        assert_reduced_as((u + v) - v, a, b)
    a, b = f.num, f.den
    one, zero = Polynomial.constant(K, 1), Polynomial.constant(K, 0)
    assert_reduced_as(f - f, zero, one)
    assert_reduced_as(f + (-f), zero, one)
    assert_reduced_as(f * 0, zero, one)
    c = data.draw(st.integers(1, K.q - 1))
    assert_reduced_as(f * c, a * c, b)
    assert_reduced_as(f + c, a + b * c, b)
    assert_reduced_as(f / c, a, b * c)
    e = data.draw(st.integers(-3, 3))
    if e >= 0:
        assert_reduced_as(f**e, a**e, b**e)
    elif not f.is_zero():
        assert_reduced_as(f**e, b ** (-e), a ** (-e))


def test_cocycle_divmod_work_halved(count_calls, monkeypatch):
    """Henrici's formulas take at most half the division work of a full gcd."""
    from ramforge import polyring
    from ramforge.pseudotame import cocycle_defect

    K = GF(2, 2)
    x = rf(K, "(z*w^7+w^4+w+1)/(w^2+z*w+1)", "w")
    y = rf(K, "(w^5+z*w^2+z)/(w+z)", "w")
    t = rf(K, "(w^6+w^3+z*w+1)/(w^2+w+z)", "w")
    calls = count_calls("_divmod", polyring)
    defect = cocycle_defect(x, y, t)
    work = [max(0, len(a) - len(b) + 1) * len(b) for _, a, b in calls]
    assert sum(work) <= FULL_GCD_COCYCLE_ROW_WORK // 2
    monkeypatch.undo()
    assert pth_power_test(defect) is not None  # the cocycle identity


def test_cocycle_product_work(count_calls):
    """Powers stop at the top bit: on the inputs above, 145 products with
    none above degree 52 (223 and 96 when every power squared once more)."""
    from ramforge import polyring
    from ramforge.pseudotame import cocycle_defect

    K = GF(2, 2)
    x = rf(K, "(z*w^7+w^4+w+1)/(w^2+z*w+1)", "w")
    y = rf(K, "(w^5+z*w^2+z)/(w+z)", "w")
    t = rf(K, "(w^6+w^3+z*w+1)/(w^2+w+z)", "w")
    calls = count_calls("_mul", polyring)
    cocycle_defect(x, y, t)
    assert len(calls) <= 145
    assert max(len(a) + len(b) - 2 for _, a, b in calls) <= 52


# ---------------------------------------------------------------------------
# valuations


def test_valuation_frozen():
    f = rf(F2, "x^3/(x+1)")
    assert valuation(f, pl(F2, "x")) == 3
    assert valuation(f, pl(F2, "x+1")) == -1
    assert valuation(f, pl(F2, "inf")) == -2


def test_valuation_of_zero_is_infinite():
    zero = rf(F2, "0")
    assert valuation(zero, pl(F2, "x")) == math.inf


def test_divisor_of_frozen():
    D = divisor_of(rf(F2, "x^3/(x+1)"))
    assert D.to_text("x") == "3*(x) - 1*(x+1) - 2*(inf)"
    E = divisor_of(rf(F2, "x^2+x+1"))
    assert E.coefficient(pl(F2, "x^2+x+1")) == 1
    assert E.coefficient(pl(F2, "inf")) == -2
    assert divisor_of(rf(F2, "1")).is_zero()
    with pytest.raises(PreconditionError):
        divisor_of(rf(F2, "0"))


@given(f=nonzero_rationals(F3))
def test_divisor_degree_zero(f):
    assert divisor_of(f).degree() == 0
    assert pole_divisor_of(f).is_effective()
    assert (divisor_of(f) + pole_divisor_of(f)).is_effective()


@given(f=nonzero_rationals(F2, 4), g=nonzero_rationals(F2, 4))
def test_valuation_is_additive(f, g):
    for P in F2_PLACES:
        assert valuation(f * g, P) == valuation(f, P) + valuation(g, P)


@given(f=nonzero_rationals(F5, 3), g=nonzero_rationals(F5, 3))
def test_strict_triangle(f, g):
    s = f + g
    for P in F5_PLACES:
        vf, vg = valuation(f, P), valuation(g, P)
        if vf != vg:
            assert valuation(s, P) == min(vf, vg)
        else:
            assert s.is_zero() or valuation(s, P) >= vf


# ---------------------------------------------------------------------------
# Laurent expansions


def test_laurent_frozen_geometric():
    s = laurent_expand(rf(F2, "1/(1+w)", "w"), pl(F2, "w", "w"), 4)
    assert s.start == 0
    assert [c.val for c in s.coeffs] == [1, 1, 1, 1]
    assert s.to_text("u") == "1+u+u^2+u^3"


def test_laurent_frozen_infinity():
    s = laurent_expand(rf(F2, "x^3+x"), pl(F2, "inf"), 4)
    assert s.start == -3
    assert [(k, c.val) for k, c in s.terms()] == [(-3, 1), (-1, 1)]
    assert s.to_text("u") == "u^-3+u^-1"


def test_laurent_frozen_pole():
    s = laurent_expand(rf(F2, "1/(w^2+w)", "w"), pl(F2, "w", "w"), 3)
    assert s.start == -1
    assert [c.val for c in s.coeffs] == [1, 1, 1]


def test_laurent_degree_two_place():
    """Expansion after base change to GF(4) at the canonical root."""
    P = pl(F2, "x^2+x+1")
    s = laurent_expand(rf(F2, "x/(x^2+x+1)"), P, 5)
    assert s.coeff_field.q == 4
    assert s.start == -1
    assert [str(c) for c in s.coeffs] == ["z", "z+1", "z+1", "z+1", "z+1"]
    t = laurent_expand(rf(F2, "1/(x^2+x+1)"), P, 4)
    assert (t.start, [c.val for c in t.coeffs]) == (-1, [1, 1, 1, 1])


def test_laurent_of_zero_raises():
    with pytest.raises(PreconditionError):
        laurent_expand(rf(F2, "0"), pl(F2, "x"), 3)


def test_laurent_precision_capped_before_expanding():
    f = rf(F2, "1/(x+1)")
    with pytest.raises(SizeBoundError):
        laurent_expand(f, pl(F2, "x"), MAX_COVER_DEGREE + 1)
    s = laurent_expand(f, pl(F2, "x"), MAX_COVER_DEGREE)
    assert s.precision == MAX_COVER_DEGREE


@given(f=nonzero_rationals(F2, 4))
def test_laurent_leading_is_valuation(f):
    for P in F2_PLACES:  # includes a degree-2 place
        s = laurent_expand(f, P, 3)
        assert s.start == valuation(f, P)
        assert not s.coeffs[0].is_zero()


@given(f=nonzero_rationals(F3, 3), root=st.integers(0, 2))
def test_laurent_reconstructs_function(f, root):
    """Subtracting the truncation raises the valuation past the precision."""
    alpha = F3.element(root)
    P = Place.from_root(alpha)
    prec = 6
    s = laurent_expand(f, P, prec)
    u = rf(F3, "x") - RationalFunction.constant(F3, alpha)
    partial = RationalFunction.constant(F3, F3.element(0))
    for k, c in s.terms():
        partial = partial + RationalFunction.constant(F3, c) * u**k
    diff = f - partial
    assert diff.is_zero() or valuation(diff, P) >= s.start + prec


LAURENT_FIELDS = [GF(2), GF(2, 2), GF(2, 3), F3, F5, GF(3, 2)]


@functools.lru_cache(maxsize=None)
def small_places(field, d):
    """The first few places of degree d (infinity for d = 0)."""
    if d == 0:
        return (Place.infinite(field),)
    return tuple(Place(field, g) for g in itertools.islice(irreducibles(field, d), 4))


@given(data=st.data())
@settings(max_examples=150)
def test_laurent_matches_field_call_reference(data):
    """One long division against the power-series inverse of oracles: at
    infinity and at places of degree 1-3, precisions 1-40, numerators
    longer than the precision and denominators divisible by the place."""
    K = data.draw(st.sampled_from(LAURENT_FIELDS))
    P = data.draw(st.sampled_from(small_places(K, data.draw(st.integers(0, 3)))))
    prec = data.draw(st.integers(1, 40))
    num = data.draw(polys(K, 45).filter(lambda f: not f.is_zero()))
    den = data.draw(polys(K, 6).filter(lambda f: not f.is_zero()))
    if not P.is_infinite:
        den = den * P.poly ** data.draw(st.integers(0, 2))
    f = RationalFunction(num, den)
    s = laurent_expand(f, P, prec)
    start, R, raw = oracles.laurent_reference(f, P, prec)
    assert s.coeff_field == R
    assert (s.start, [c.val for c in s.coeffs]) == (start, raw)


# ---------------------------------------------------------------------------
# differentials and p-th powers


def test_differential_divisor_frozen():
    assert differential_divisor(rf(F2, "x")).to_text("x") == "-2*(inf)"
    assert differential_divisor(rf(F2, "x^2+x")).to_text("x") == "-2*(inf)"
    D = differential_divisor(rf(F2, "(t^3+1)/t", "t"))
    assert D.to_text("t") == "-2*(t)"


def test_differential_divisor_rejects_pth_powers():
    with pytest.raises(PreconditionError):
        differential_divisor(rf(F2, "x^2"))


@given(f=nonzero_rationals(F3, 4))
def test_differential_degree(f):
    if f.derivative().is_zero():
        return
    assert differential_divisor(f).degree() == -2


def test_pth_power_frozen():
    assert pth_power_test(rf(F2, "w^2+1", "w")) == rf(F2, "w+1", "w")
    assert pth_power_test(rf(F2, "w^3", "w")) is None
    got = pth_power_test(rf(F2, "(w^4+w^2)/w^6", "w"))
    assert got == rf(F2, "(w^2+w)/w^3", "w")


@given(f=nonzero_rationals(F3, 3))
def test_pth_power_round_trip(f):
    cube = f * f * f
    root = pth_power_test(cube)
    assert root is not None
    assert root * root * root == cube


# ---------------------------------------------------------------------------
# Riemann-Roch space and element prescription


def test_rr_basis_frozen():
    D = div(F2, ("inf", 3))
    basis = rr_basis(D)
    assert [b.to_text("x") for b in basis] == ["1", "x", "x^2", "x^3"]
    assert rr_basis(div(F2, ("x", -1))) == []
    two = rr_basis(div(F2, ("x", 2), ("x+1", -1)))
    assert [b.to_text("x") for b in two] == ["(x+1)/x^2", "(x+1)/x"]


@given(data=st.data())
def test_rr_dimension_and_membership(data):
    coeffs = data.draw(
        st.lists(st.integers(-3, 3), min_size=4, max_size=4)
    )
    D = Divisor(F3, list(zip(F3_PLACES, coeffs)))
    basis = rr_basis(D)
    assert len(basis) == max(0, D.degree() + 1)
    for f in basis:
        assert (divisor_of(f) + D).is_effective()


def test_prescribed_element_frozen():
    D = div(F2, ("x", 1), ("x+1", 1))
    f = prescribed_element(D, pl(F2, "inf"), 2)
    assert f == rf(F2, "x^2+x")

    g = prescribed_element(div(F2, ("x", 1)), pl(F2, "x+1"), 1)
    assert g == rf(F2, "x/(x+1)")

    h = prescribed_element(
        div(F2, ("x", 1)),
        pl(F2, "inf"),
        3,
        zero_at=(pl(F2, "x+1"), 2),
    )
    assert h == rf(F2, "x^3+x")  # x*(x+1)^2 in characteristic 2


def test_prescribed_element_minimal_n():
    g = prescribed_element(div(F2, ("x", 1)), pl(F2, "x+1"))
    assert g == rf(F2, "x/(x+1)")
    assert pole_divisor_of(g) == Divisor(F2, [(pl(F2, "x+1"), 1)])


def test_prescribed_element_validates():
    D = div(F2, ("x", 1))
    with pytest.raises(PreconditionError):
        prescribed_element(D, pl(F2, "x"), 2)  # P inside supp(D)
    with pytest.raises(PreconditionError):
        prescribed_element(D, pl(F2, "inf"), 2, avoid=(pl(F2, "inf"),))


@given(data=st.data())
@settings(max_examples=30)
def test_prescribed_element_postconditions(data):
    pool = F3_PLACES
    d_coeffs = data.draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
    D = Divisor(F3, list(zip(pool[:3], d_coeffs)))
    P = pool[3]
    avoid_pick = data.draw(st.booleans())
    avoid = (pl(F3, "x^2+1"),) if avoid_pick else ()
    try:
        f = prescribed_element(D, P, None, avoid=avoid)
    except PreconditionError:
        return  # honest infeasibility is a valid outcome
    # the zero divisor of f is (f) + (f)_inf
    assert (divisor_of(f) + pole_divisor_of(f) - D).is_effective()
    assert tuple(pole_divisor_of(f).support()) in ((P,), ())
    for R in avoid:
        assert valuation(f, R) == 0
