"""Polynomial arithmetic, factorization, parsing."""

import gc
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ramforge import GF, polyring
from ramforge.config import MAX_COVER_DEGREE
from ramforge.errors import (
    InternalCheckError,
    ParseError,
    PreconditionError,
    SizeBoundError,
)
from ramforge.polyring import (
    Polynomial,
    factor,
    format_polynomial,
    gcd,
    irreducible_poly,
    irreducibles,
    is_irreducible,
    parse_polynomial,
    roots,
    squarefree_decompose,
)

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)
F5 = GF(5)
F9 = GF(3, 2)


def poly(field, text):
    return parse_polynomial(text, field, "T")


def polys(field, max_deg=6, min_deg=0):
    return st.lists(
        st.integers(0, field.q - 1),
        min_size=min_deg + 1,
        max_size=max_deg + 1,
    ).map(lambda c: Polynomial(field, c))


def nonzero_polys(field, max_deg=6):
    return polys(field, max_deg).filter(lambda f: not f.is_zero())


# ---------------------------------------------------------------------------
# frozen examples


def test_factor_frozen_f2():
    fact = factor(poly(F2, "T^6+T^4"))
    assert fact.unit == 1
    assert [(g.to_text("T"), e) for g, e in fact.factors] == [
        ("T", 4),
        ("T+1", 2),
    ]


def test_factor_frozen_f5():
    fact = factor(poly(F5, "T^2+1"))
    assert [(g.to_text("T"), e) for g, e in fact.factors] == [
        ("T+2", 1),
        ("T+3", 1),
    ]


def test_squarefree_frozen():
    parts = squarefree_decompose(poly(F2, "T^4+T^2"))
    assert [(g.to_text("T"), e) for g, e in parts] == [("T^2+T", 2)]


def test_irreducible_poly_frozen():
    assert irreducible_poly(F2, 3).to_text("T") == "T^3+T+1"
    assert irreducible_poly(F2, 1).to_text("T") == "T"
    assert irreducible_poly(F3, 2).to_text("T") == "T^2+1"


def test_factor_of_zero_raises():
    with pytest.raises(PreconditionError):
        factor(Polynomial(F2, [0]))


# ---------------------------------------------------------------------------
# equal-degree splitting: bounded, deterministic


@pytest.mark.parametrize(
    "field,text,max_attempts,n_factors",
    [(F2, "T^512+T", 400, 60), (F4, "T^256+T", 500, 70)],
)
def test_split_attempts_bounded(field, text, max_attempts, n_factors, count_calls):
    calls = count_calls("_try_split", polyring)
    fact = factor(poly(field, text))
    assert len(fact.factors) == n_factors
    assert all(e == 1 for _, e in fact.factors)
    assert len(calls) <= max_attempts


@pytest.mark.parametrize(
    "field,text,d",
    [
        (F2, "(T^2+T+1)^2", 2),  # not squarefree
        (F3, "T*(T+1)^2", 1),
        (F5, "(T^2+2)^2*(T^2+3)", 2),
        (F2, "T^3+T+1", 1),  # irreducible of degree 3, not 1
        (GF(2**31 - 1), "T^2+1", 1),  # irreducible: no shift of T splits
    ],
)
def test_edf_rejects_bad_parts(field, text, d):
    with pytest.raises(InternalCheckError) as err:
        polyring._edf(field, list(poly(field, text)._c), d)
    assert err.value.payload["degree"] == d


# ---------------------------------------------------------------------------
# irreducibility against the trial-division oracle


@pytest.mark.parametrize("p,max_deg", [(2, 6), (3, 4), (5, 3)])
def test_is_irreducible_matches_oracle(p, max_deg):
    field = GF(p)
    for deg in range(1, max_deg + 1):
        for code in range(p**deg):
            digits = []
            v = code
            for _ in range(deg):
                digits.append(v % p)
                v //= p
            coeffs = tuple(digits) + (1,)
            f = Polynomial(field, coeffs)
            assert is_irreducible(f) == oracles.pf_is_irreducible(coeffs, p)


@pytest.mark.parametrize("m", range(1, 13))
def test_least_quadratic_by_trace_is_the_walks_first(m):
    field = GF(2, m)
    assert irreducible_poly(field, 2) == next(irreducibles(field, 2))


def _monic_of_degree(p, d):
    for code in range(p**d):
        yield tuple((code // p**i) % p for i in range(d)) + (1,)


@pytest.mark.parametrize("p,d", [(2, 4), (2, 6), (3, 3), (5, 5)])
def test_irreducibles_when_p_divides_d_match_trial_division(p, d):
    field = GF(p)
    want = [c for c in _monic_of_degree(p, d) if oracles.pf_is_irreducible(c, p)][:12]
    got = [f._c for f in itertools.islice(irreducibles(field, d), len(want))]
    assert got == want


# the first irreducibles of each walk, recorded before the walk skipped the
# p-th powers T^d + c
FIRST_IRREDUCIBLES = {
    (2, 2, 2): ["T^2+T+z", "T^2+T+(z+1)", "T^2+z*T+1", "T^2+z*T+z",
                "T^2+(z+1)*T+1", "T^2+(z+1)*T+(z+1)"],
    (3, 2, 3): ["T^3+T+z", "T^3+T+(z+1)", "T^3+T+(z+2)", "T^3+T+2*z"],
    (2, 3, 4): ["T^4+T+1", "T^4+T+(z+1)", "T^4+T+(z^2+1)", "T^4+T+(z^2+z+1)"],
}


@pytest.mark.parametrize("p,m,d", sorted(FIRST_IRREDUCIBLES))
def test_irreducibles_when_p_divides_d_as_recorded(p, m, d):
    want = FIRST_IRREDUCIBLES[p, m, d]
    walk = itertools.islice(irreducibles(GF(p, m), d), len(want))
    got = [f.to_text("T") for f in walk]
    assert got == want


@pytest.mark.parametrize("p,m_deg", [(2, 5), (3, 3), (5, 2)])
def test_irreducible_poly_is_encoding_minimal(p, m_deg):
    field = GF(p)
    best = irreducible_poly(field, m_deg)
    for code in range(best.encoding() % p**m_deg):
        digits = []
        v = code
        for _ in range(m_deg):
            digits.append(v % p)
            v //= p
        assert not oracles.pf_is_irreducible(tuple(digits) + (1,), p)
    assert is_irreducible(best)


# ---------------------------------------------------------------------------
# is_irreducible and roots read the first block of the distinct-degree split


def test_is_irreducible_stops_at_the_least_factor_degree(count_calls):
    g3, g37 = irreducible_poly(F3, 3), irreducible_poly(F3, 37)
    steps = count_calls("_frob_step", polyring)
    assert not is_irreducible(g3 * g37)
    assert len(steps) == 3


def test_is_irreducible_of_an_irreducible_takes_half_its_degree(count_calls):
    g40 = irreducible_poly(F3, 40)
    steps = count_calls("_frob_step", polyring)
    assert is_irreducible(g40)
    assert len(steps) == 20


def test_roots_read_only_the_degree_one_block(count_calls):
    f = poly(F3, "T+1") * irreducible_poly(F3, 3) * irreducible_poly(F3, 37)
    steps = count_calls("_frob_step", polyring)
    factors = count_calls("factor", polyring)
    parts = count_calls("squarefree_decompose", polyring)
    assert roots(f) == [F3.element(2)]
    assert len(steps) == 1
    assert (factors, parts) == ([], [])


def test_roots_of_a_rootless_polynomial_take_one_step(count_calls):
    """The empty degree-1 block decides: no walk to the least factor degree."""
    g5, g31, g40 = (irreducible_poly(F3, d) for d in (5, 31, 40))
    steps = count_calls("_frob_step", polyring)
    assert roots(g40) == []
    assert len(steps) == 1
    steps.clear()
    assert roots(g5 * g31) == []
    assert len(steps) == 1


# ---------------------------------------------------------------------------
# the Frobenius map of the distinct-degree split: rows x**(p*i) mod F

BIG_P = 2**31 - 1
MAP_FIELDS = [GF(2), F4, GF(2, 3), F3, F9, F5, GF(7), GF(BIG_P)]


def _random_raw(rng, field, deg, monic=True):
    top = 1 if monic else rng.randrange(1, field.q)
    return [rng.randrange(field.q) for _ in range(deg)] + [top]


@pytest.mark.parametrize("field", MAP_FIELDS, ids=str)
def test_frobenius_map_matches_the_spread_step_and_repeated_products(field):
    """h**q by m steps of one map of F (for p = 2 the spread step itself),
    against square and multiply in tests/oracles.py, before (f = F) and
    after (f = F / g) a block g is divided out.  Each F keeps one map across
    its inputs, x first, so rows are added as the degree of h grows; deg F
    runs below, at and above p, so rows come from both the shift and the
    product."""
    K = field
    rng = random.Random(100 * K.p + K.m)
    for n in sorted({d for d in (4, K.p, 11, 24) if d <= 24}):
        g = _random_raw(rng, K, rng.randint(1, 3))
        f = _random_raw(rng, K, n - len(g) + 1)
        F = polyring._mul(K, g, f)
        rows = polyring._frob_map(K, F)
        for h in ([0, 1], _random_raw(rng, K, 3, False), _random_raw(rng, K, n - 1, False)):
            for mod in (F, f):
                got = h
                for _ in range(K.m):
                    got = polyring._frob_step(K, got, mod, rows, F)
                    assert len(got) < len(F)
                want = oracles.frobenius_power_mod(h, mod, K.p, K.m)
                assert tuple(polyring._mod(K, got, mod)) == want, (n, h, mod)


def test_roots_build_only_the_rows_of_the_first_step(count_calls):
    """x's first step reads rows 0 and 1; row 0 is 1 and needs no build."""
    g40 = irreducible_poly(F3, 40)
    builds = count_calls("_frob_row", polyring)
    assert roots(g40) == []
    assert len(builds) == 1


def test_is_irreducible_builds_each_row_once(count_calls):
    """g40 = T^40 + T + 2, and x**(3**d) mod g40 has degree 3, 9 or 27 at
    each of the 20 steps: they read rows 0 to 27 of one map, and rows 1 to
    27 are built once each."""
    g40 = irreducible_poly(F3, 40)
    builds = count_calls("_frob_row", polyring)
    steps = count_calls("_frob_step", polyring)
    assert is_irreducible(g40)
    assert len(steps) == 20
    assert len(builds) == 27
    assert all(b[1] is steps[0][3] for b in builds) and len(steps[0][3]) == 28


@pytest.mark.parametrize("p", [3, 5, 7])
def test_packed_rows_are_built_with_no_division(p, count_calls):
    """For p < deg F every row of a full map comes from the row before and
    the tail rows: no _divmod, _mul or _power; for deg F <= p the rows are a
    _power and products mod F."""
    K = GF(p)
    calls = [count_calls(name, polyring) for name in ("_divmod", "_mul", "_power")]
    for n, divides in ((40, False), (p, True)):
        for c in calls:
            c.clear()
        F = _random_raw(random.Random(n), K, n)
        w, rows = polyring._slot_width(K, F), polyring._frob_map(K, F)
        while len(rows) < n:
            rows.append(polyring._frob_row(K, rows, F, w))
        assert [bool(c) for c in calls] == [divides] * 3
        assert w and len(rows) == n


def test_factor_over_a_large_prime_powers_once_per_split(count_calls):
    """A degree-40 polynomial over GF(2**31 - 1) with no root: its one split
    runs 14 steps, the first 3 on F itself.  x**p mod F is its one _power
    of exponent p, and no step powers by squaring."""
    K = GF(BIG_P)
    rng = random.Random(43)
    f = Polynomial(K, _random_raw(rng, K, 40))
    splits = count_calls("_ddf", polyring)
    steps = count_calls("_frob_step", polyring)
    powers = count_calls("_power", polyring)
    assert [g.degree for g, _ in factor(f).factors] == [3, 7, 14, 16]
    assert (len(splits), len(steps)) == (1, 14)
    assert [c[1:] for c in powers if c[2] == K.p] == [([0, 1], K.p, splits[0][1])]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("field", [F9, GF(5, 2), GF(3, 3), GF(BIG_P)], ids=str)
def test_equal_degree_split_returns_the_known_irreducibles(field, d):
    """A product of k distinct irreducibles of degree d, each picked by the
    root test of tests/oracles.py, is one distinct-degree block, and the
    trace loop of the equal-degree split steps through the map of each
    part: the factors are exactly those irreducibles."""
    K = field
    rng = random.Random(10 * K.q + d)
    for k in (2, 3, 5):
        picked = set()
        while len(picked) < k:
            f = tuple(_random_raw(rng, K, d))
            if oracles.ext_has_no_root(f, K.p, K.m):
                picked.add(f)
        product = Polynomial(K, [1])
        for f in picked:
            product = product * Polynomial(K, f)
        got = sorted((g._c, e) for g, e in factor(product).factors)
        assert got == [(f, 1) for f in sorted(picked)]


def test_equal_degree_split_over_a_large_prime_powers_once_per_part(count_calls):
    """Over GF(2**31 - 1), four irreducibles T^2 + c make one block of the
    distinct-degree split.  Its map and the map of each part the trace
    loop steps through make one _power of exponent p each, x**p mod F."""
    K = GF(BIG_P)
    cs = [c for c in range(1, 20) if oracles.ext_has_no_root((c, 0, 1), K.p, 1)][:4]
    f = Polynomial(K, [1])
    for c in cs:
        f = f * Polynomial(K, [c, 0, 1])
    powers = count_calls("_power", polyring)
    splits = count_calls("_try_split", polyring)
    assert [g._c for g, _ in factor(f).factors] == [(c, 0, 1) for c in cs]
    moduli = [c[3] for c in powers if c[2] == K.p]
    parts = {id(c[1]): c[1] for c in splits}
    assert len(parts) == 3 and len(moduli) == 4
    assert all(any(m is part for m in moduli) for part in parts.values())


@pytest.mark.parametrize("field,text", [
    (F3, "T^3*(T^2+1)^3*(T+1)^4*(T^3+2*T+1)"),
    (F4, "T^4*(T^2+z)^3*(T+1)^2*(T^3+T+1)"),
], ids=["GF(3)", "GF(4)"])
def test_squarefree_decompose_and_factor_leave_no_reference_cycles(field, text):
    """With the collector off, 100 calls of each leave nothing for it."""
    f = poly(field, text)
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            squarefree_decompose(f)
        assert gc.collect() == 0
        for _ in range(100):
            factor(f)
        assert gc.collect() == 0
    finally:
        gc.enable()


DIFFERENTIAL_FIELDS = [GF(2), F4, GF(2, 3), F3, F9, F5, GF(7)]


def _differential_inputs(field, rng):
    """Seeded products c * g1^e1 * ... of degree below 30, with repeated and
    p-th-power factors, random polynomials of degree 1 to 8, and constants."""
    yield Polynomial.constant(field, rng.randrange(1, field.q))
    for _ in range(60):
        low = [rng.randrange(field.q) for _ in range(rng.randint(1, 8))]
        yield Polynomial(field, low + [rng.randrange(1, field.q)])
        f = Polynomial.constant(field, rng.randrange(1, field.q))
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 5)
            e = rng.choice([1, 1, 1, 2, 3, field.p])
            if f.degree + d * e > 24:
                e = 1
            g = Polynomial(field, [rng.randrange(field.q) for _ in range(d)] + [1])
            f = f * g**e
        yield f


@pytest.mark.parametrize("field", DIFFERENTIAL_FIELDS, ids=str)
def test_roots_and_is_irreducible_match_factor(field):
    rng = random.Random(1000 * field.p + field.m)
    for f in _differential_inputs(field, rng):
        fac = factor(f).factors
        linear = [-g.coefficient(0) for g, _ in fac if g.degree == 1]
        assert roots(f) == sorted(linear, key=lambda r: r.val), f
        one = len(fac) == 1 and fac[0][1] == 1 and fac[0][0].degree == f.degree
        assert is_irreducible(f) == one, f


# (p, m, count, top degree): 300 inputs; the tops below 100 keep the test near 2 s
DIGEST_CORPUS = [
    (2, 1, 60, 100), (3, 1, 60, 100), (2, 2, 40, 60), (5, 1, 50, 80),
    (7, 1, 40, 60), (3, 2, 30, 40), (BIG_P, 1, 20, 20),
]
# SHA-256 of the factor lists below, computed before the GF(p) kernels
# (packed Frobenius rows, inline division) were added
FACTOR_DIGEST = "f81490a75dfd458050ce29b42aa8468c4611ee3776e92e205425134d6958b277"


def _digest_inputs(corpus=DIGEST_CORPUS, seed=20181101):
    """Seeded random polynomials; every third one is a * b**e, e in 2..4,
    so repeated and p-th-power factors take the squarefree path."""
    rng = random.Random(seed)
    for p, m, count, top in corpus:
        K = GF(p, m)
        for k in range(count):
            if k % 3:
                yield Polynomial(K, _random_raw(rng, K, rng.randint(1, top), False))
                continue
            e = rng.randint(2, 4)
            b = Polynomial(K, _random_raw(rng, K, rng.randint(1, top // (2 * e)), False))
            a = Polynomial(K, _random_raw(rng, K, rng.randint(0, top // 2), False))
            yield a * b**e


def test_factor_lists_match_the_frozen_digest():
    """One SHA-256 over the (degree, encoding, multiplicity) lists of 300
    factorizations: any kernel change that moves one factor shows here."""
    h = hashlib.sha256()
    count = 0
    for f in _digest_inputs():
        h.update(repr([(g.degree, g.encoding(), e) for g, e in factor(f).factors]).encode())
        count += 1
    assert (count, h.hexdigest()) == (300, FACTOR_DIGEST)


# 150 inputs over the odd extension fields past GF(9), about 0.9 s at the
# parent of the digit-sum kernels (pure field-call loops)
ODD_EXT_DIGEST_CORPUS = [(5, 2, 50, 40), (3, 3, 50, 40), (7, 2, 50, 30)]
# SHA-256 of their factor lists, computed before the GF(p**m) digit-sum kernels
ODD_EXT_FACTOR_DIGEST = "a85d349b840a2f6c863c0ae09df1f05898c075147e1eff0c1da96856beaa4efc"


def test_odd_extension_factor_lists_match_the_frozen_digest():
    """As above, over GF(25), GF(27) and GF(49), which the addition-table
    kernels (polyring._add_tables) serve; the digit-sum kernels did before."""
    h = hashlib.sha256()
    count = 0
    for f in _digest_inputs(ODD_EXT_DIGEST_CORPUS, 20181102):
        h.update(repr([(g.degree, g.encoding(), e) for g, e in factor(f).factors]).encode())
        count += 1
    assert (count, h.hexdigest()) == (150, ODD_EXT_FACTOR_DIGEST)


# 170 inputs over GF(9), the survey's field, and GF(3**5) and GF(13**2), the
# largest fields under the addition-table gate (q <= 256); 0.6 s at the
# parent of the addition tables (digit sums), 0.3 s with them
TABLE_DIGEST_CORPUS = [(3, 2, 90, 60), (3, 5, 40, 24), (13, 2, 40, 24)]
# SHA-256 of their factor lists, computed before the addition-table kernels
TABLE_FACTOR_DIGEST = "680efce1aad3fff986e911988e24221e08ef8dac7b59eeff17c04cfd0de854f1"


def test_table_field_factor_lists_match_the_frozen_digest():
    h = hashlib.sha256()
    count = 0
    for f in _digest_inputs(TABLE_DIGEST_CORPUS, 20181103):
        h.update(repr([(g.degree, g.encoding(), e) for g, e in factor(f).factors]).encode())
        count += 1
    assert (count, h.hexdigest()) == (170, TABLE_FACTOR_DIGEST)


# ---------------------------------------------------------------------------
# properties


@given(f=nonzero_polys(F4, 5))
def test_factor_round_trip_f4(f):
    fact = factor(f)
    assert oracles.factorization_product(fact) == f
    keys = [(g.degree, g.encoding()) for g, _ in fact.factors]
    assert keys == sorted(keys)
    for g, e in fact.factors:
        assert g.is_monic()
        assert e >= 1
        assert is_irreducible(g)


@given(f=nonzero_polys(F3, 6))
def test_factor_round_trip_f3(f):
    fact = factor(f)
    assert oracles.factorization_product(fact) == f


@given(f=nonzero_polys(F2, 8))
def test_squarefree_structure(f):
    parts = squarefree_decompose(f)
    acc = Polynomial(F2, [1])
    for g, e in parts:
        acc = acc * g**e
        assert gcd(g, g.derivative()).is_constant()
    assert acc == f
    for i, (g, _) in enumerate(parts):
        for h, _ in parts[i + 1 :]:
            assert gcd(g, h).is_constant()


def _squarefree_inputs(field, rng):
    """Pure powers, p-th powers, and products of up to four powers with
    multiplicities up to 49, all of degree at most 100."""

    def monic(d):
        return Polynomial(field, [rng.randrange(field.q) for _ in range(d)] + [1])

    for _ in range(50):
        yield monic(rng.randint(1, 2)) ** rng.randint(2, 49)
        g = monic(rng.randint(1, 3))
        yield g ** (field.p * rng.randint(1, 100 // (field.p * g.degree)))
        f = Polynomial.constant(field, rng.randrange(1, field.q))
        for _ in range(rng.randint(2, 4)):
            g, e = monic(rng.randint(1, 2)), rng.randint(1, 49)
            if f.degree + g.degree * e <= 100:
                f = f * g**e
        yield f


@pytest.mark.parametrize("field", DIFFERENTIAL_FIELDS, ids=str)
def test_squarefree_matches_the_unit_step_loop(field):
    rng = random.Random(f"squarefree:{field.p}^{field.m}")
    for f in _squarefree_inputs(field, rng):
        assert squarefree_decompose(f) == oracles.squarefree_reference(f), f


def test_squarefree_skips_absent_multiplicities(count_calls):
    """w^8190 = (w^4095)^2: the unit-step loop makes 16,380 divisions and
    4,096 gcds for the 4,094 multiplicities that no part has."""
    divisions = count_calls("_divmod", polyring)
    gcds = count_calls("_gcd", polyring)
    w = Polynomial.x(F2)
    assert squarefree_decompose(w**8190) == [(w, 8190)]
    assert len(divisions) <= 40
    assert len(gcds) <= 5


@given(f=nonzero_polys(F5, 5), g=nonzero_polys(F5, 5))
def test_gcd_divides(f, g):
    d = gcd(f, g)
    assert d.is_monic()
    assert (f % d).is_zero()
    assert (g % d).is_zero()


@given(f=polys(F9, 5), g=nonzero_polys(F9, 5))
def test_divmod_invariant(f, g):
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero() or r.degree < g.degree


@given(f=polys(F4, 5), g=polys(F4, 5))
def test_derivative_product_rule(f, g):
    lhs = (f * g).derivative()
    assert lhs == f.derivative() * g + f * g.derivative()


@given(f=nonzero_polys(F5, 5))
def test_roots_are_roots(f):
    rs = roots(f)
    assert len(rs) <= f.degree
    for r in rs:
        assert oracles.horner(f, r).is_zero()
    assert [r.val for r in rs] == sorted(r.val for r in rs)


def test_roots_frozen():
    f = poly(F5, "T^2+1")
    assert [r.val for r in roots(f)] == [2, 3]
    assert roots(poly(F2, "T^2+T+1")) == []


SHIFT_FIELDS = [F2, F4, GF(2, 3), F3, F5, F9]
SHIFT_IDS = ["gf2", "gf4", "gf8", "gf3", "gf5", "gf9"]


@pytest.mark.parametrize("field", SHIFT_FIELDS, ids=SHIFT_IDS)
@given(data=st.data())
def test_shift_matches_evaluation(field, data):
    f = data.draw(polys(field, 8))
    elements = st.integers(0, field.q - 1).map(field.element)
    alpha, x0 = data.draw(elements), data.draw(elements)
    assert oracles.horner(f.shift(alpha), x0) == oracles.horner(f, x0 + alpha)


@pytest.mark.parametrize("field", SHIFT_FIELDS, ids=SHIFT_IDS)
def test_shift_matches_horner_composition(field):
    """Coefficient lists against f(x + alpha) by Horner's rule, for alpha = 0,
    the zero and the constant polynomials, and degrees up to 40."""
    rng = random.Random(field.q)
    cases = [(0, [])] + [(d, None) for d in (0, 0, 1, 2, 3, 7, 16, 40, 40)]
    for d, coeffs in cases:
        if coeffs is None:
            coeffs = [rng.randrange(field.q) for _ in range(d)]
            coeffs.append(rng.randrange(1, field.q))
        f = Polynomial(field, coeffs)
        for a in sorted({0, 1, field.q - 1, rng.randrange(field.q)}):
            alpha = field.element(a)
            want = oracles.compose(f, Polynomial(field, [alpha, 1]))
            assert f.shift(alpha).coeffs == want.coeffs
            assert f.shift(alpha).shift(-alpha) == f


# ---------------------------------------------------------------------------
# powers: no product past the result


@pytest.mark.parametrize("field", [F2, F3, F4, F5])
def test_power_makes_no_product_past_the_result(field, count_calls):
    """f**e and f**e mod m make bit_length(e) - 1 squarings and popcount(e) - 1
    other products, none of degree above e * deg f (or 2 (deg m - 1))."""
    f = Polynomial(field, [1, field.q - 1, 0, 1])
    m = poly(field, "T^5+T^2+1")
    want = [Polynomial.constant(field, 1)]
    for _ in range(70):
        want.append(want[-1] * f)  # by repeated multiplication
    calls = count_calls("_mul", polyring)
    for reduced in (False, True):
        for e in range(71):
            calls.clear()
            if reduced:
                got = Polynomial(field, polyring._power(field, f._c, e, m._c))
                assert got == want[e] % m
                top = 2 * (m.degree - 1)
            else:
                assert f**e == want[e]
                top = e * f.degree
            squares = sum(a is b for _, a, b in calls)
            assert squares == max(e.bit_length() - 1, 0)
            assert len(calls) - squares == max(bin(e).count("1") - 1, 0)
            assert all(len(a) + len(b) - 2 <= top for _, a, b in calls)


def test_power_at_the_degree_cap_builds_nothing_larger(count_calls):
    calls = count_calls("_mul", polyring)
    f = parse_polynomial(f"T^{MAX_COVER_DEGREE}+T", F2, "T")
    assert f.degree == MAX_COVER_DEGREE
    assert max(len(a) + len(b) - 2 for _, a, b in calls) == MAX_COVER_DEGREE


# ---------------------------------------------------------------------------
# text round trips


@pytest.mark.parametrize("field", [F2, F5, F9])
@given(data=st.data())
def test_parse_format_round_trip(field, data):
    f = data.draw(polys(field, 6))
    text = f.to_text("T")
    assert parse_polynomial(text, field, "T") == f
    assert format_polynomial(f, "T") == text


def test_parse_rejects_garbage():
    for bad in ["T^^2", "T +", "x^2", "(T", "T^2 + q", ""]:
        with pytest.raises(ParseError):
            parse_polynomial(bad, F2, "T")


def test_parse_extension_coefficients():
    f = parse_polynomial("(z+1)*T^2+z*T+1", F4, "T")
    assert f.coefficient(2).val == 3
    assert f.coefficient(1).val == 2
    assert f.to_text("T") == "(z+1)*T^2+z*T+1"


def test_parse_rejects_z_over_prime_field():
    with pytest.raises(ParseError):
        parse_polynomial("z*T", F2, "T")


@pytest.mark.parametrize(
    "text",
    [
        "T^3000000+T+1",
        "(T^40000+1)*(T^40000+1)",
        "(T^300)^300",
        "T*T^65536",
        "T^" + "9" * 5000,
    ],
)
def test_parse_caps_degree_before_building(text):
    with pytest.raises(SizeBoundError):
        parse_polynomial(text, F2, "T")


def test_parse_accepts_degree_at_cap_and_large_constant_powers():
    assert parse_polynomial(f"T^{MAX_COVER_DEGREE}", F2, "T").degree == MAX_COVER_DEGREE
    assert parse_polynomial("z^3000001*T+0^3000000", F4, "T").to_text("T") == "z*T"
