"""Characteristic-2 pseudo-tameness toolkit at genus zero."""

import pathlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ramforge import GF, cli, funcfield, polyring, pseudotame
from ramforge.cli import main
from ramforge.errors import InternalCheckError, PreconditionError
from ramforge.funcfield import (
    Place,
    RationalFunction,
    _is_pth_power,
    parse_place,
    parse_rational,
    pole_divisor_of,
    pth_power_test,
    valuation,
)
from ramforge.polyring import Polynomial
from ramforge.pseudotame import (
    a_invariant,
    cocycle_defect,
    critical_places,
    element_is_tame_at,
    is_pseudotame_at,
    quartic_decompose,
    quartic_pole_reduction,
    square_completion,
    v_dx,
)

F2 = GF(2)


def rf(s):
    return parse_rational(s, F2, "w")


def pl(s):
    return parse_place(s, F2, "w")


P0 = pl("w")
P1 = pl("w+1")
PINF = Place.infinite(F2)


def pseudotame_everywhere(x):
    return all(is_pseudotame_at(x, P) for P in critical_places(x))


def quartic_moebius(x, a, b, c, d):
    """(a^4 x + b^4) / (c^4 x + d^4) for constants a, b, c, d in F2."""
    return (x * a**4 + b**4) / (x * c**4 + d**4)


def expand(dec):
    x0, x1, x2, x3 = dec.coords
    y = dec.y
    return x0**4 + x1**4 * y + x2**4 * y**2 + x3**4 * y**3


def rand_rf(rng, max_deg=5, nonsquare=True):
    """Random nonzero rational function over F2(w), optionally nonsquare."""
    while True:
        n = rng.randrange(1, 2 ** (max_deg + 1))
        d = rng.randrange(1, 2 ** (max_deg + 1))
        num = Polynomial(F2, [(n >> i) & 1 for i in range(n.bit_length())])
        den = Polynomial(F2, [(d >> i) & 1 for i in range(d.bit_length())])
        f = RationalFunction(num, den)
        if f.is_zero():
            continue
        if nonsquare and f.derivative().is_zero():
            continue
        return f


# ---------------------------------------------------------------------------
# quartic decomposition


def test_decompose_frozen():
    d = quartic_decompose(rf("w^5+w^2"), rf("w^3+1"))
    assert [c.to_text("w") for c in d.coords] == ["0", "1/w", "0", "1/w"]
    assert expand(d) == rf("w^5+w^2")


def test_decompose_polynomial_in_w_matches_exponent_classes():
    """With y = w the coordinates split the exponents by residue mod 4."""
    rng = random.Random(11)
    y = rf("w")
    for _ in range(20):
        bits = rng.randrange(1, 2**10)
        x = RationalFunction(Polynomial(F2, [(bits >> i) & 1 for i in range(10)]))
        if x.is_zero():
            continue
        d = quartic_decompose(x, y)
        for i, ci in enumerate(d.coords):
            expect = 0
            for k in range(10):
                if (bits >> k) & 1 and k % 4 == i:
                    expect ^= 1 << ((k - i) // 4)
            coeffs = [c.val for c in ci.num.coeffs]
            got = sum(b << j for j, b in enumerate(coeffs))
            assert ci.den.is_constant()
            assert got == expect


@given(st.integers(0, 10**6))
def test_decompose_round_trip(seed):
    rng = random.Random(seed)
    x = rand_rf(rng, nonsquare=False)
    y = rand_rf(rng)
    d = quartic_decompose(x, y)
    assert expand(d) == x


TOOLKIT_FIELDS = [F2, GF(2, 2), GF(2, 3)]


@st.composite
def elements(draw, K, max_num_deg=6):
    """num/den over K with deg num <= max_num_deg and deg den in 0..2."""
    num = draw(st.lists(st.integers(0, K.q - 1), max_size=max_num_deg + 1))
    d = draw(st.integers(0, 2))
    den = draw(st.lists(st.integers(0, K.q - 1), min_size=d, max_size=d))
    den.append(draw(st.integers(1, K.q - 1)))
    return RationalFunction(Polynomial(K, num), Polynomial(K, den))


@given(data=st.data())
@settings(max_examples=120)
def test_decompose_and_a_match_rational_route(data):
    """Against the two-level route that reduces every intermediate."""
    K = data.draw(st.sampled_from(TOOLKIT_FIELDS))
    x = data.draw(elements(K))
    if data.draw(st.booleans()):
        y = RationalFunction.x(K)
    else:
        y = data.draw(elements(K).filter(lambda f: not _is_pth_power(f)))
    assert quartic_decompose(x, y).coords == oracles.quartic_coords(x, y)
    if not _is_pth_power(x):
        assert a_invariant(x, y) == oracles.a_invariant(x, y)


# recorded from the two-level rational route
FROZEN_EXTENSION = [
    (
        GF(2, 2),
        ("(z*w^7+w^4+w+1)/(w^2+z*w+1)", "(w^5+z*w^2+z)/(w+z)",
         "(w^6+w^3+z*w+1)/(w^2+w+z)"),
        [
            "(z*w^6+1)/(w^4+z*w^3+(z+1)*w^2+(z+1)*w+z)",
            "(z*w^5+(z+1)*w^4+(z+1)*w^3+w)/(w^4+z*w^3+(z+1)*w^2+(z+1)*w+z)",
            "(z*w^4+(z+1)*w^3+z*w+1)/(w^4+z*w^3+(z+1)*w^2+(z+1)*w+z)",
            "(z*w^3+w+z)/(w^4+z*w^3+(z+1)*w^2+(z+1)*w+z)",
        ],
        "(w^10+z*w^9+z*w^8+w^7+(z+1)*w^6+w^5+w^4+z*w^3+(z+1)*w^2+z*w+(z+1))"
        "/(w^10+z*w^6+z*w^4+(z+1)*w^2+1)",
        "((z+1)*w^26+(z+1)*w^24+(z+1)*w^22+w^20+z*w^18+z*w^16+z*w^12+z*w^10"
        "+(z+1)*w^6+z*w^2)/(w^26+w^24+w^22+w^20+w^18+w^16+w^14+w^12"
        "+(z+1)*w^10+(z+1)*w^8+(z+1)*w^6+(z+1)*w^4+z*w^2+z)",
    ),
    (
        GF(2, 2),
        ("z*w^5+w^3+z^2", "w", "(w^3+z)/(z*w^2+1)"),
        ["(z+1)", "z*w", "0", "1"],
        "z*w/(w^2+(z+1))",
        "((z+1)*w^4+w^2+1)/(w^8+z*w^4)",
    ),
    (
        GF(2, 3),
        ("(w^6+z*w^3+z^2*w+1)/(w+z)", "(z*w^3+w)/(w^2+z^2)", "w^5+z*w"),
        [
            "(z^2*w^2+(z+1)*w+(z^2+1))/(w+z)",
            "((z^2+z+1)*w^2+z^2*w+(z^2+z+1))/(w+(z+1))",
            "((z+1)*w+1)/(w+(z+1))",
            "((z^2+1)*w^2+w)/(w^2+(z^2+1))",
        ],
        "((z+1)*w^9+(z+1)*w^5+(z+1)*w^3+z*w)"
        "/(w^10+w^8+(z^2+z)*w^6+(z^2+z)*w^4+w^2+z^2)",
        "(z^2*w^10+(z^2+z+1)*w^8+(z^2+1)*w^6+(z^2+z+1)*w^4+z*w^2+(z^2+1))"
        "/(w^12+(z^2+z)*w^4+z^2)",
    ),
    (
        GF(2, 3),
        ("(z^2*w^7+w^2+z)/(w^2+z*w+z^2)", "w^3+z^3*w^2+w", "(w^3+1)/(w^2+w+z)"),
        [
            "((z^2+z)*w^5+(z+1)*w^4+z*w^3+(z+1)*w^2+z^2*w+1)"
            "/(w^4+z*w^3+(z^2+1)*w^2+z*w+z^2)",
            "(z*w^4+(z^2+z)*w^3+w+(z^2+z+1))/(w^4+z*w^3+(z^2+1)*w^2+z*w+z^2)",
            "((z^2+z+1)*w^2+z*w+1)/(w^4+z*w^3+(z^2+1)*w^2+z*w+z^2)",
            "((z^2+z)*w^3+(z+1)*w+(z^2+z))/(w^4+z*w^3+(z^2+1)*w^2+z*w+z^2)",
        ],
        "(z*w^11+(z^2+z)*w^10+z*w^9+w^7+(z+1)*w^6+(z^2+1)*w^5+(z^2+z+1)*w^4"
        "+w^3+z^2*w^2+(z^2+1)*w)/(w^12+z^2*w^10+w^8+w^6+w^4+(z^2+1)*w^2+1)",
        "((z^2+z)*w^26+w^24+z^2*w^22+(z^2+z+1)*w^20+z*w^18+(z^2+z)*w^16"
        "+z^2*w^14+(z^2+z+1)*w^12+(z^2+z+1)*w^10+z*w^8+(z^2+1)*w^6+(z+1)*w^4"
        "+z^2*w^2+1)/(w^28+(z+1)*w^24+(z^2+z)*w^20+(z^2+1)*w^16+w^12"
        "+(z+1)*w^8+z*w^4+1)",
    ),
]


@pytest.mark.parametrize(
    "K,xyt,coords,a,defect", FROZEN_EXTENSION, ids=["gf4", "gf4-w", "gf8", "gf8-poly"]
)
def test_toolkit_frozen_over_extensions(K, xyt, coords, a, defect):
    x, y, t = (parse_rational(s, K, "w") for s in xyt)
    assert [c.to_text("w") for c in quartic_decompose(x, y).coords] == coords
    assert a_invariant(x, y).to_text("w") == a
    assert cocycle_defect(x, y, t).to_text("w") == defect


def test_broken_split_is_caught(monkeypatch):
    """One flipped coefficient fails the cross-multiplied re-expansion."""
    K, (xs, ys, _), _, _, _ = FROZEN_EXTENSION[0]
    x, y = parse_rational(xs, K, "w"), parse_rational(ys, K, "w")
    real = pseudotame._split

    def flipped(*args):
        S, R, T = real(*args)
        return S + 1, R, T

    monkeypatch.setattr(pseudotame, "_split", flipped)
    with pytest.raises(InternalCheckError):
        quartic_decompose(x, y)
    with pytest.raises(InternalCheckError):
        a_invariant(x, y)


def test_gcd_count(count_calls):
    """One gcd per coordinate; one per a-invariant plus two per sum."""
    # the inputs of test_funcfield.test_cocycle_divmod_work_halved
    K, xyt, _, _, _ = FROZEN_EXTENSION[0]
    x, y, t = (parse_rational(s, K, "w") for s in xyt)
    calls = count_calls("_gcd", polyring)
    for u, v in [(x, y), (y, t), (t, x)]:
        calls.clear()
        quartic_decompose(u, v)
        assert len(calls) <= 4
    calls.clear()
    cocycle_defect(x, y, t)
    assert len(calls) <= 3 + 2 * 2


def test_decompose_rejects_square_y():
    with pytest.raises(PreconditionError):
        quartic_decompose(rf("w"), rf("w^2"))


def bits(f):
    return sum(c.val << i for i, c in enumerate(f.coeffs))


@given(st.integers(0, 10**6))
def test_is_square_reads_numerator_and_denominator(seed):
    rng = random.Random(seed)
    f = rand_rf(rng, nonsquare=False)
    g = rand_rf(rng, nonsquare=False)
    for h in (f, g * g, f * g * g, g**4 + f * f):
        want = oracles.bits_is_square(bits(h.num)) and oracles.bits_is_square(
            bits(h.den)
        )
        assert _is_pth_power(h) == want == h.derivative().is_zero()


# ---------------------------------------------------------------------------
# the a-invariant


def test_a_invariant_frozen():
    assert a_invariant(rf("w"), rf("w+1")).to_text("w") == "0"
    assert a_invariant(rf("w^3"), rf("w")).to_text("w") == "0"
    assert a_invariant(rf("w^5+w^2"), rf("w^3+1")).to_text("w") == "(w^3+1)/w^6"


def test_a_invariant_rejects_squares():
    with pytest.raises(PreconditionError):
        a_invariant(rf("w^2"), rf("w"))
    with pytest.raises(PreconditionError):
        a_invariant(rf("w"), rf("w^2+1"))


def test_a_denominator_is_dx_over_dy():
    """d(x) = (x1^4 + x3^4 y^2) d(y) for the quartic coordinates."""
    rng = random.Random(7)
    for _ in range(15):
        x = rand_rf(rng, nonsquare=False)
        y = rand_rf(rng)
        _, x1, _, x3 = quartic_decompose(x, y).coords
        assert (x1**4 + x3**4 * y**2) * y.derivative() == x.derivative()


def test_a_self_and_symmetry():
    rng = random.Random(13)
    for _ in range(10):
        x = rand_rf(rng)
        y = rand_rf(rng)
        assert a_invariant(x, x).is_zero()
        sym = a_invariant(x, y) + a_invariant(y, x)
        assert pth_power_test(sym) is not None


def test_verify_a_solution():
    x, y = rf("w^5+w^2"), rf("w^3+1")
    a = a_invariant(x, y)
    # a solves the a-equation when a(x, y) + a is a square
    assert pth_power_test(a_invariant(x, y) + a) is not None
    assert pth_power_test(a_invariant(x, y) + a + rf("w^2")) is not None
    assert pth_power_test(a_invariant(x, y) + a + rf("w")) is None


def test_cocycle_defect_is_square():
    x, y, t = rf("w^3"), rf("w^5+w"), rf("w^7+w^2")
    d = cocycle_defect(x, y, t)
    assert d.derivative().is_zero()
    assert pth_power_test(d) is not None


@given(st.integers(0, 10**6))
def test_cocycle_defect_square_random(seed):
    rng = random.Random(seed)
    x, y, t = (rand_rf(rng) for _ in range(3))
    d = cocycle_defect(x, y, t)
    assert d.derivative().is_zero()
    if not d.is_zero():
        assert pth_power_test(d) is not None


# ---------------------------------------------------------------------------
# local criteria


def test_v_dx_frozen():
    assert v_dx(rf("w^5+w^2"), P0) == 4
    assert v_dx(rf("w^5+w^2"), PINF) == -6
    assert v_dx(rf("w^3"), PINF) == -4
    assert v_dx(rf("(w^3+1)/w^4"), P0) == -2
    with pytest.raises(PreconditionError):
        v_dx(rf("w^2"), P0)


@pytest.mark.parametrize(
    "x,place,tame,pseudo",
    [
        ("w^5+w^2", "0", False, False),
        ("w^5+w^2", "inf", True, True),
        ("(w^3+1)/w^4", "0", False, True),
        ("w^4+w^6+w^7", "0", False, False),
        ("w^4+w^3", "inf", False, True),
        ("w^3", "0", True, True),
    ],
)
def test_local_criteria_frozen(x, place, tame, pseudo):
    P = PINF if place == "inf" else P0
    assert element_is_tame_at(rf(x), P) is tame
    assert is_pseudotame_at(rf(x), P) is pseudo


def test_tame_matches_carryless_oracle():
    """Laurent parity via an independent carry-less bit engine."""
    rng = random.Random(5)
    checked = 0
    while checked < 60:
        n = rng.randrange(1, 64)
        d = rng.randrange(1, 64)
        if oracles.clgcd(n, d) != 1:
            continue
        if oracles.bits_is_square(n) and oracles.bits_is_square(d):
            continue
        x = RationalFunction(
            Polynomial(F2, [(n >> i) & 1 for i in range(6)]),
            Polynomial(F2, [(d >> i) & 1 for i in range(6)]),
        )
        for nm, P in [("zero", P0), ("one", P1), ("inf", PINF)]:
            assert element_is_tame_at(x, P) == oracles.tame_at_oracle(n, d, nm)
        checked += 1


def test_is_pseudotame_everywhere():
    assert not pseudotame_everywhere(rf("w^5+w^2"))
    assert pseudotame_everywhere(rf("w^4+w^3"))


def test_critical_places_frozen():
    assert [q.text("w") for q in critical_places(rf("w^5+w^2"))] == ["w", "inf"]
    assert [q.text("w") for q in critical_places(rf("(w^2+w+1)/w^3"))] == [
        "w",
        "w+1",
        "inf",
    ]
    assert [q.text("w") for q in critical_places(rf("(w^3+1)/w^4"))] == [
        "w",
        "inf",
    ]


def test_critical_places_of_zero_raise():
    with pytest.raises(PreconditionError, match="the zero function has no divisor"):
        critical_places(rf("0"))
    with pytest.raises(PreconditionError, match="the zero function has no divisor"):
        pole_divisor_of(rf("0"))


@given(data=st.data())
@settings(max_examples=80)
def test_local_layer_matches_derivative_route(data):
    """v_dx and critical_places on x = N/D against the reduced derivative
    x' and its valuation, over GF(2), GF(4), GF(8), GF(3), GF(5) and
    GF(9), at every critical place (degree-2 poles included)."""
    fields = [GF(2), GF(2, 2), GF(2, 3), GF(3), GF(5), GF(3, 2)]
    K = data.draw(st.sampled_from(fields))
    coeffs = st.integers(0, K.q - 1)
    num = Polynomial(K, data.draw(st.lists(coeffs, min_size=1, max_size=8)))
    den = Polynomial(K, data.draw(st.lists(coeffs, min_size=1, max_size=4)))
    if den.is_zero() or num.is_zero():
        return
    x = RationalFunction(num, den)
    if _is_pth_power(x):
        return
    xp = x.derivative()
    want = {Place.infinite(K), *pole_divisor_of(x).support()}
    want.update(Place(K, g) for g, _ in polyring.factor(xp.num).factors)
    spots = critical_places(x)
    assert spots == sorted(want, key=Place.sort_key)
    for P in spots:
        assert v_dx(x, P) == valuation(xp, P) - (2 if P.is_infinite else 0)


@pytest.mark.parametrize("K", [GF(2), GF(2, 2), GF(3), GF(5), GF(3, 2)])
def test_v_dx_needs_every_term_at_a_finite_place(K):
    """x = w^k + 1 at (w), p not dividing k: v_dx = k - 1, read off the
    last of the deg N + deg D + 1 terms the record expands."""
    w = RationalFunction(Polynomial.x(K))
    one = RationalFunction.constant(K, 1)
    zero = Place.from_root(K.element(0))
    for k in range(1, 14):
        if k % K.p:
            assert v_dx(w**k + one, zero) == k - 1


@pytest.mark.parametrize("K", [GF(2), GF(2, 2), GF(3), GF(5), GF(3, 2)])
def test_v_dx_needs_deg_n_terms_at_infinity(K):
    """x = w^(p j) + w at infinity: the first exponent prime to p is -1,
    term p j = deg N of the expansion, and v_dx = v(dw) = -2."""
    w = RationalFunction(Polynomial.x(K))
    for j in range(1, 6):
        assert v_dx(w ** (K.p * j) + w, Place.infinite(K)) == -2


def test_v_dx_at_the_degree_cap():
    """deg N + deg D + 1 = 65537 terms pass the cap, but at infinity
    w^65536 + w needs 65536, so the record expands up to the cap."""
    x = rf("w^65536+w")
    assert (v_dx(x, PINF), v_dx(x, P0)) == (-2, 0)
    assert is_pseudotame_at(x, PINF) and not element_is_tame_at(x, PINF)


def test_local_layer_work_counts(count_calls, capsys):
    """The local layer reads x = N/D: no rational-function derivative, and
    the pole divisor factors the denominator alone, if it is not constant.
    The CLI builds one W, for the critical places, and one expansion per
    (element, place), takes no polynomial valuation, and lifts each place
    of degree 2 or more once."""
    derivatives = count_calls("derivative", RationalFunction)
    factors = count_calls("factor", polyring)
    x = rf("(w^7+w^4+w+1)/(w^3+w^2+w)")
    for P in critical_places(x):
        v_dx(x, P)
        element_is_tame_at(x, P)
        is_pseudotame_at(x, P)
    assert derivatives == []
    factors.clear()
    assert pole_divisor_of(x).to_text("w") == "1*(w) + 1*(w^2+w+1) + 4*(inf)"
    assert factors == [(x.den,)]
    factors.clear()
    assert pole_divisor_of(rf("w^3+w")).to_text("w") == "3*(inf)"
    assert factors == []
    walls = count_calls("_wronskian", pseudotame, funcfield)
    expansions = count_calls("laurent_expand", pseudotame, funcfield)
    valuations = count_calls("valuation", funcfield, pseudotame)
    lifts = count_calls("roots", polyring)
    argv = ["pseudotame", "--p", "2", x.to_text("w")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "(w=0), (w=1), (w^2+w+1=0), (w^3+w+1=0), (w=inf)" in out
    # one W for the critical places; one expansion at each of five
    # distinct places, and v_P(dx) read off it with no valuation
    assert len(walls) == 1
    assert len({P for _, P, _ in expansions}) == len(expansions) == 5
    assert valuations == []
    # one canonical root per place of degree 2 or more, kept by its field
    assert len(lifts) <= 2
    lifts.clear()
    assert main(argv) == 0
    assert capsys.readouterr().out == out
    assert lifts == []
    walls.clear()
    expansions.clear()
    assert main(["pseudotame", "--p", "2", "w^2+w^5", "--at", "w"]) == 0
    assert "completion z: w" in capsys.readouterr().out
    # one record, shared by the facts and the completion, and the
    # completion's tameness check of x + z^2 from scratch; no W at all
    assert walls == []
    assert len(expansions) == 4


def test_quartic_moebius():
    g = quartic_moebius(rf("w^5"), 0, 1, 1, 0)
    assert g.to_text("w") == "1/w^5"
    assert is_pseudotame_at(rf("w^5"), P0)
    assert is_pseudotame_at(g, P0)


@given(st.integers(0, 10**6))
def test_quartic_moebius_preserves_pseudotameness(seed):
    rng = random.Random(seed)
    x = rand_rf(rng, max_deg=4)
    coeffs = [(0, 1, 1, 0), (1, 0, 1, 1), (1, 1, 0, 1)][seed % 3]
    g = quartic_moebius(x, *coeffs)
    for P in set(critical_places(x)) | set(critical_places(g)):
        assert is_pseudotame_at(g, P) == is_pseudotame_at(x, P)


# ---------------------------------------------------------------------------
# square completion


def test_square_completion_frozen():
    z1 = square_completion(rf("w^3"), P0, P1)
    assert z1.to_text("w") == "1"
    z2 = square_completion(rf("w^2+w^5"), P0, P1)
    assert z2.to_text("w") == "w"
    for x, z, P in [(rf("w^3"), z1, P0), (rf("w^2+w^5"), z2, P0)]:
        assert element_is_tame_at(x + z * z, P)


def test_square_completion_reservoir_case():
    x = rf("w^4+w^6+w^7")
    z = square_completion(x, P0, P1)
    assert z.to_text("w") == "w^2/(w^2+w+1)"
    assert all(c == 1 for _, c in pole_divisor_of(z).items())
    assert valuation(z, P1) >= 0
    assert element_is_tame_at(x + z * z, P0)


def test_square_completion_preconditions():
    with pytest.raises(PreconditionError):
        square_completion(rf("1/w"), P0, P1)  # P is a pole
    with pytest.raises(PreconditionError):
        square_completion(rf("w^3"), pl("w^2+w+1"), P1)  # degree-2 P


@given(st.integers(0, 10**6))
def test_square_completion_contract(seed):
    rng = random.Random(seed)
    x = rand_rf(rng, max_deg=4)
    poles = set(pole_divisor_of(x).support())
    free = [P for P in (P0, P1, PINF) if P not in poles]
    if len(free) < 2:
        return
    P, Q = free[0], free[1]
    z = square_completion(x, P, Q)
    assert element_is_tame_at(x + z * z, P)
    assert valuation(z, Q) >= 0
    for _, c in pole_divisor_of(z).items():
        assert c == 1


def _char2_pool_triples(seed):
    """The (x, P, Q) that the char2 benchmark pool of this seed passes to
    square_completion: P and Q are the first two places, among the degree-1
    critical places of x and then the degree-1 places and infinity, that
    are not poles of x."""
    sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for job in (job for jobs in workloads.char2(seed) for job in jobs):
        text, m = job.key.split("|")[1], job.key.rsplit("=", 1)[1]
        K = GF(2, int(m))
        x = parse_rational(text, K, "w")
        poles = set(pole_divisor_of(x).support())
        lines = [Place.from_root(K.element(v)) for v in range(K.q)]
        lines.append(Place.infinite(K))
        free = []
        for c in [c for c in critical_places(x) if c.degree == 1] + lines:
            if c not in poles and c not in free:
                free.append(c)
        if len(free) >= 2:
            yield x, free[0], free[1]


@pytest.mark.parametrize("seed", [1, 7919])
def test_square_completion_matches_the_riemann_roch_search(seed, count_calls):
    """The closed-form element of exact order n, against the first element
    of rr_basis(R - nP) with valuation n, over a char2 benchmark pool; at
    an infinite P that element is the last of the basis."""
    searches = count_calls("rr_basis", oracles)
    triples = infinite = 0
    for x, P, Q in _char2_pool_triples(seed):
        before = len(searches)
        assert square_completion(x, P, Q) == oracles.square_completion_reference(
            x, P, Q
        ), (x, P, Q)
        triples += 1
        infinite += P.is_infinite and len(searches) > before
    assert triples > 1000
    assert infinite > 0


def test_square_completion_at_infinity_past_the_reservoir_degree():
    """x = u^4 + u^5 at u = 1/w: n = 2, and the reservoir, (w) and then
    (w^2+w+1), has degree 3, so the element is w^(3-2)/h, not 1/h."""
    x = rf("(w+1)/w^5")
    z = square_completion(x, PINF, P1)
    assert z.to_text("w") == "1/(w^2+w+1)"
    assert z == oracles.square_completion_reference(x, PINF, P1)


# ---------------------------------------------------------------------------
# quartic pole stripping


@pytest.mark.parametrize(
    "x,place,zt,rt",
    [
        ("w^4+w^3", "inf", "w", "w^3"),
        ("w^3", "inf", "0", "w^3"),
        ("w^8+w^5", "inf", "w^2", "w^5"),
        ("(w^3+1)/w^4", "0", "1/w", "1/w"),
    ],
)
def test_pole_reduction_frozen(x, place, zt, rt):
    Q = PINF if place == "inf" else P0
    z, red = quartic_pole_reduction(rf(x), Q)
    assert z.to_text("w") == zt
    assert red.to_text("w") == rt
    assert -valuation(red, Q) == -v_dx(rf(x), Q) - 1
    assert element_is_tame_at(red, Q)


def test_pole_reduction_preconditions():
    with pytest.raises(PreconditionError):
        quartic_pole_reduction(rf("w^2"), PINF)  # square
    with pytest.raises(PreconditionError):
        quartic_pole_reduction(rf("(w^3+1)/w^4"), PINF)  # pole elsewhere
    with pytest.raises(PreconditionError):
        quartic_pole_reduction(rf("w^6+w^2+w"), PINF)  # not pseudo-tame


def test_pole_reduction_takes_each_valuation_once(count_calls):
    """The valuation from each progress check carries into the next step
    and is the final pole order; the record of x and the tameness check
    of the result read no valuation."""
    valuations = count_calls("valuation", pseudotame, funcfield)
    expansions = count_calls("laurent_expand", pseudotame, funcfield)
    z, red = quartic_pole_reduction(rf("w^16+w^12+w^8+w^5+w"), PINF)
    assert (z.to_text("w"), red.to_text("w")) == ("w^4+w^3+w^2", "w^5+w")
    # one of x, then one per step of three: 4
    assert len(valuations) <= 6
    # the record of x, one leading term per step, the tameness check
    assert len(expansions) == 5


@given(st.integers(0, 10**6))
def test_pole_reduction_postcondition(seed):
    rng = random.Random(seed)
    bits = rng.randrange(2, 2**9)
    x = RationalFunction(Polynomial(F2, [(bits >> i) & 1 for i in range(10)]))
    if x.is_zero() or x.derivative().is_zero() or x.num.degree < 1:
        return
    if not is_pseudotame_at(x, PINF):
        return
    z, red = quartic_pole_reduction(x, PINF)
    assert red == x + z**4
    assert -valuation(red, PINF) == -v_dx(x, PINF) - 1
