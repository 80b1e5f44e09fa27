"""Covers of the projective line: fibers, different, report checks."""

import hashlib
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ramforge import GF
from ramforge.cover import (
    RationalCover,
    _different_divisor,
    compose,
    conorm,
    cover_create,
    fiber,
    pushforward_place,
    ramification_report,
    report_as_dict,
)
from ramforge.errors import PreconditionError
from ramforge.funcfield import (
    Divisor,
    Place,
    RationalFunction,
    _wronskian,
    differential_divisor,
    parse_place,
)
from ramforge.linalg import RelationTracker
from ramforge.polyring import (
    Polynomial,
    irreducibles,
    is_irreducible,
    parse_polynomial,
)

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def mk(field, num, den="1", var_up="x", var_down="t"):
    return cover_create(
        field,
        parse_polynomial(num, field, var_up),
        parse_polynomial(den, field, var_up),
        var_up=var_up,
        var_down=var_down,
    )


# ---------------------------------------------------------------------------
# construction and normalization


def test_cover_degree_and_text():
    c = mk(F2, "x^3+1", "x")
    assert c.degree == 3
    assert c.to_text() == "t = (x^3+1)/x"
    assert c.normalization is None


def test_cover_reduces_fraction():
    c = mk(F2, "x^3+x^2", "x")
    assert c.map.num.to_text("x") == "x^2+x"
    assert c.map.den.to_text("x") == "1"
    assert c.degree == 2


def test_cover_normalizes_small_numerator():
    c = mk(F2, "x", "x^2+1")
    assert c.degree == 2
    assert c.map.num.to_text("x") == "x^2+1"
    assert c.normalization["kind"] == "reciprocal_shift"
    assert c.normalization["alpha"].is_zero()


def test_cover_normalizes_equal_degrees():
    c = mk(F2, "x^2+1", "x^2+x+1")
    assert c.map.num.to_text("x") == "x^2+x+1"
    assert c.map.den.to_text("x") == "x"
    assert c.normalization["alpha"].val == 1


def test_cover_rejects_degenerate():
    with pytest.raises(PreconditionError):
        mk(F2, "1")  # constant map
    with pytest.raises(PreconditionError):
        mk(F2, "x^2")  # square in characteristic 2 is inseparable
    with pytest.raises(PreconditionError):
        mk(F3, "x^3+1")  # p-th power shift


# ---------------------------------------------------------------------------
# frozen reports


def test_report_artin_schreier():
    r = ramification_report(mk(F2, "x^2+x"))
    assert r.different_divisor.to_text("x") == "2*(inf)"
    assert [q.text("t") for q in r.branch_locus] == ["inf"]
    assert not r.tame
    assert r.checks == {
        "fundamental_equality": True,
        "dedekind": True,
        "hurwitz": True,
        "remark4": None,
    }
    (below, pts), = r.fibers
    assert below.is_infinite
    assert [(p.above.text("x"), p.e, p.f, p.d, p.wild) for p in pts] == [
        ("inf", 2, 1, 2, True)
    ]


def test_report_kummer_cube():
    r = ramification_report(mk(F2, "x^3"))
    assert r.different_divisor.to_text("x") == "2*(x) + 2*(inf)"
    assert [q.text("t") for q in r.branch_locus] == ["t", "inf"]
    assert r.tame
    assert r.checks["remark4"] is True
    assert r.different_divisor.degree() == 2 * 3 - 2


def test_report_wild_step_shape():
    r = ramification_report(mk(F2, "t^3+1", "t", "t", "u"))
    assert r.different_divisor.to_text("t") == "4*(inf)"
    assert [q.text("u") for q in r.branch_locus] == ["inf"]
    (below, pts), = r.fibers
    assert [(p.above.text("t"), p.e, p.f, p.d, p.wild) for p in pts] == [
        ("t", 1, 1, 0, False),
        ("inf", 2, 1, 4, True),
    ]


# h' = 0 and g' = 1, so W = g'h - gh' is h itself
W_IS_H = (F2, "x^8+x", "x^4+x^2+1")
# W = 3x^4 - 2 = 1: constant, though t has a finite pole
W_IS_CONSTANT = (F3, "x^4+2", "x")


@pytest.mark.parametrize("make", ["denominator", "derivative", "tower"])
def test_report_factors_each_polynomial_once(make, count_calls):
    from ramforge import polyring
    from ramforge.belyi import wild_belyi

    if make == "denominator":
        cov = mk(F3, "x^5+x+1", "x^2*(x+1)")
    elif make == "derivative":
        # the reduced dt/dx = x^6/x^4 = x^2 is h, but W = x^6 is not:
        # the report factors W and h, two different polynomials
        cov = mk(F2, "x^5+1", "x^2")
        assert _wronskian(cov.map) == cov.den**3
    else:
        cov = wild_belyi(F2, [parse_place("x^2+x+1", F2, "x")]).composite
        assert cov.degree == 27
    calls = count_calls("factor", polyring)
    ramification_report(cov)
    seen = [(f.field, f.encoding()) for (f,) in calls]
    assert seen
    assert len(seen) == len(set(seen))


def _cover_with_repeated_poles(rng, K):
    """t = g/h, h a product of up to two places to the powers 1, 2 or p,
    and deg g - deg h one of 1, 2 and p."""
    pool = [
        P for d in (1, 2) for P in itertools.islice(irreducibles(K, d), 3)
    ]
    while True:
        h = Polynomial.constant(K, 1)
        for P in rng.sample(pool, rng.randrange(3)):
            h = h * P ** rng.choice((1, 2, K.p))
        n = h.degree + rng.choice((1, 2, K.p))
        g = Polynomial(
            K, [rng.randrange(K.q) for _ in range(n)] + [rng.randrange(1, K.q)]
        )
        try:
            cov = cover_create(K, g, h)
        except PreconditionError:
            continue
        if cov.degree >= 2:
            return cov


@pytest.mark.parametrize(
    "p,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]
)
def test_different_is_the_differential_identity(p, m):
    """(W) + (2n - 2 - deg W)(x=inf) against a reference built apart from
    the report: div(dt/dx) + (dx) off the reduced derivative, plus twice
    the conorm of (t=inf) off the fiber over infinity."""
    K = GF(p, m)
    rng = random.Random(100 * p + m)
    covers = [_cover_with_repeated_poles(rng, K) for _ in range(16)]
    covers += [mk(*c) for c in (W_IS_H, W_IS_CONSTANT) if c[0] == K]
    inf = Place.infinite(K)
    for cov in covers:
        t, g, h = cov.map, cov.num, cov.den
        # the quotient rule, apart from W: t'h = g' - t h'
        gp, hp = RationalFunction(g.derivative()), h.derivative()
        assert t.derivative() * h == gp - t * hp
        want = differential_divisor(t) + 2 * conorm(cov, Divisor(K, [(inf, 1)]))
        assert _different_divisor(cov) == want


@pytest.mark.parametrize("p,place,degree", [(2, "x^2+x+1", 27), (3, "x^2+1", 128)])
def test_tower_report_reads_the_different_off_w(p, place, degree, count_calls):
    """No rational derivative, no per-pole division chain, and no
    pushforward of a place whose image, infinity, its fiber already gives."""
    from ramforge import cover as cover_module
    from ramforge import funcfield, pseudotame
    from ramforge.belyi import wild_belyi

    K = GF(p)
    cov = wild_belyi(K, [parse_place(place, K, "x")]).composite
    assert cov.degree == degree
    derivatives = count_calls("derivative", RationalFunction)
    chains = count_calls("valuation", funcfield, pseudotame)
    pushed = count_calls("pushforward_place", cover_module)
    rep = ramification_report(cov)
    assert derivatives == chains == []
    # a wild tower ramifies over infinity alone
    over_inf = {P for P, _, _ in fiber(cov, Place.infinite(K))}
    assert set(rep.different_divisor.support()) <= over_inf
    assert pushed == []


def test_homogenize_by_horner(count_calls):
    """n products by g, n by h, none above degree n * deg g."""
    from ramforge import cover, polyring

    Q = parse_polynomial("x^7+3*x^6+4*x^5+x^4+3*x^3+4*x^2+3*x+4", F5, "x")
    g = parse_polynomial("x^6+2*x^3+x+3", F5, "x")
    h = parse_polynomial("x^4+3*x+1", F5, "x")
    n = Q.degree
    want = Polynomial(F5)
    for i, c in enumerate(Q.coeffs):  # sum c_i g^i h^(n-i), product by product
        term = Polynomial(F5, [c])
        for _ in range(i):
            term = term * g
        for _ in range(n - i):
            term = term * h
        want = want + term
    calls = count_calls("_mul", polyring)
    assert cover._homogenize(Q, g, h, n) == want
    assert len(calls) <= 2 * n + sum(1 for c in Q.coeffs if c != 0)
    assert max(len(a) + len(b) - 2 for _, a, b in calls) == n * g.degree


@pytest.mark.parametrize(
    "field,num,den,max_attempts,shape,sha256",
    [
        # its fiber polynomials include a degree-60 equal-degree part
        (
            F5,
            "2*x^8+2*x^7+3*x^6+4*x^5+4*x^4+3*x^3+4*x+2",
            "x^4+2*x^3+3*x^2+2*x+3",
            8,
            [
                [(1, 1, 1, 0), (1, 1, 1, 0), (1, 2, 1, 1), (4, 1, 4, 0)],
                [(10, 2, 1, 1), (30, 1, 3, 0), (30, 1, 3, 0)],
                [(2, 1, 2, 0), (2, 1, 2, 0), (0, 4, 1, 3)],
            ],
            "9d2a343d07000a86a1611bc3ef03e721bd8863df03173acc4f179570f197f83b",
        ),
        (
            F3,
            "x^8+x^6+x^5+x^4+2*x^3+2*x^2+2",
            "x^7+x^3+x^2+x+1",
            4,
            [
                [(14, 2, 1, 1), (42, 1, 3, 0), (42, 1, 3, 0)],
                [(7, 1, 7, 0), (0, 1, 1, 0)],
            ],
            "defcb4425c48d6ed0b40e36675af724565d1fcd76559794bd9c4e9b5e8f7011d",
        ),
    ],
)
def test_slow_survey_covers(field, num, den, max_attempts, shape, sha256, count_calls):
    from ramforge import polyring

    calls = count_calls("_try_split", polyring)
    rep = ramification_report(mk(field, num, den))
    # (degree of the place above, 0 at infinity; e; f; d) fiber by fiber
    assert [
        [(0 if pt.above.is_infinite else pt.above.degree, pt.e, pt.f, pt.d)
         for pt in pts]
        for _, pts in rep.fibers
    ] == shape
    text = json.dumps(report_as_dict(rep), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == sha256
    assert len(calls) <= max_attempts


def test_report_as_dict_schema():
    d = report_as_dict(ramification_report(mk(F2, "x^3")))
    assert sorted(d.keys()) == [
        "branch_locus",
        "checks",
        "degree",
        "different",
        "different_degree",
        "fibers",
        "field",
        "map",
        "tame",
    ]
    assert d["field"] == {"p": 2, "m": 1}
    assert d["map"] == {"num": "x^3", "den": "1"}
    assert d["degree"] == 3
    assert d["different"] == [
        {"place": "x", "coeff": 2},
        {"place": "inf", "coeff": 2},
    ]
    assert d["different_degree"] == 4
    assert d["branch_locus"] == ["t", "inf"]
    assert d["tame"] is True
    point_keys = sorted(d["fibers"][0]["points"][0].keys())
    assert point_keys == ["above", "d", "e", "f"]


# ---------------------------------------------------------------------------
# fibers, pushforward, conorm


def test_fiber_unramified_degree_two():
    c = mk(F2, "x^3+1", "x")
    pts = fiber(c, parse_place("t^2+t+1", F2, "t"))
    assert [(pl.text("x"), e, f) for pl, e, f in pts] == [
        ("x^6+x^4+x^2+x+1", 1, 3)
    ]


def test_fiber_fundamental_equality_enforced():
    c = mk(F5, "x^2+1", "x")
    for root in range(5):
        Q = Place.from_root(F5.element(root))
        assert sum(e * f for _, e, f in fiber(c, Q)) == 2


def test_pushforward_frozen():
    c = mk(F3, "x^2")
    assert pushforward_place(c, parse_place("x+1", F3, "x")).text("t") == "t+2"
    assert pushforward_place(c, parse_place("inf", F3, "x")).text("t") == "inf"


def test_pushforward_consistent_with_fiber():
    c = mk(F3, "x^3+x", "x+1")
    for v in range(3):
        P = Place.from_root(F3.element(v))
        Q = pushforward_place(c, P)
        assert any(pl == P for pl, _, _ in fiber(c, Q))


PUSHFORWARD_FIELDS = [GF(2), GF(2, 2), GF(2, 3), F3, GF(3, 2), F5, GF(7)]


def _random_monic(rng, K, d):
    return Polynomial(K, [rng.randrange(K.q) for _ in range(d)] + [1])


def _pushforward_pairs(K, rng, covers):
    """(cover, place) pairs: six places of degree 1 to 4 per cover, the
    first of them dividing the denominator in every third cover."""
    for k in range(covers):
        places = []
        while len(places) < 6:
            f = _random_monic(rng, K, len(places) % 4 + 1)
            if is_irreducible(f):
                places.append(Place(K, f))
        while True:
            h = _random_monic(rng, K, rng.randint(0, 3))
            if k % 3 == 0:
                h = h * places[0].poly
            g = Polynomial(
                K,
                [rng.randrange(K.q) for _ in range(h.degree + rng.randint(1, 3))]
                + [rng.randrange(1, K.q)],
            )
            try:
                cover = cover_create(K, g, h)
            except PreconditionError:
                continue
            break
        for P in places:
            yield cover, P


@pytest.mark.parametrize("field", PUSHFORWARD_FIELDS, ids=str)
def test_pushforward_matches_the_inverse_route(field, count_calls):
    """The powers g^i h^(d-i) mod P give the place below P that the powers
    of w = g/h mod P give, with as many tracker vectors: 432 pairs per
    field, 3,024 in all."""
    rng = random.Random(f"pushforward:{field.p}^{field.m}")
    adds = count_calls("add", RelationTracker)
    pairs = divides = 0
    for cover, P in _pushforward_pairs(field, rng, 72):
        del adds[:]
        got = pushforward_place(cover, P)
        n_got = len(adds)
        del adds[:]
        assert got == oracles.pushforward_reference(cover, P), (cover, P)
        assert n_got == len(adds)
        pairs += 1
        divides += (cover.den % P.poly).is_zero()
    assert pairs == 432
    assert divides >= 24


def test_conorm_frozen():
    c = mk(F3, "x^2")
    D = Divisor(F3, [(Place.infinite(F3), 1), (parse_place("t", F3, "t"), 1)])
    up = conorm(c, D)
    assert up.to_text("x") == "2*(x) + 2*(inf)"
    assert up.degree() == c.degree * D.degree()


@given(coeff=st.integers(1, 3), root=st.integers(0, 2))
def test_conorm_degree_multiplicative(coeff, root):
    c = mk(F3, "x^3+x", "x+1")
    Q = Place.from_root(F3.element(root))
    D = Divisor(F3, [(Place.infinite(F3), coeff), (Q, coeff)])
    up = conorm(c, D)
    assert up.degree() == c.degree * D.degree()


# ---------------------------------------------------------------------------
# composition


def test_compose_monomials():
    inner = mk(F3, "x^2", "1", "x", "t")
    outer = mk(F3, "t^2", "1", "t", "u")
    comp = compose(inner, outer)
    assert comp.to_text() == "u = x^4"
    assert comp.degree == 4


def test_compose_with_denominators():
    inner = mk(F2, "x^3+1", "1", "x", "t")
    outer = mk(F2, "t^3+1", "t", "t", "u")
    comp = compose(inner, outer)
    assert comp.degree == 9
    assert comp.to_text() == "u = (x^9+x^6+x^3)/(x^3+1)"
    r = ramification_report(comp)
    assert [q.text("u") for q in r.branch_locus] == ["u", "inf"]
    inf_pts = dict()
    for q, pts in r.fibers:
        if q.is_infinite:
            inf_pts = {p.above.text("x"): p.e for p in pts}
    assert inf_pts["inf"] == 6


def test_compose_requires_matching_variables():
    inner = mk(F2, "x^3+1", "1", "x", "t")
    outer = mk(F2, "u^3+1", "u", "u", "y")
    with pytest.raises(PreconditionError):
        compose(inner, outer)


# ---------------------------------------------------------------------------
# randomized structural identities (small scale; the acceptance gate
# runs the full-size version)


def random_cover(rng, field, max_deg=5):
    while True:
        n_deg = rng.randrange(1, max_deg + 1)
        d_deg = rng.randrange(0, n_deg)
        num = Polynomial(
            field,
            [field.element(rng.randrange(field.q)) for _ in range(n_deg)]
            + [field.element(rng.randrange(1, field.q))],
        )
        den = Polynomial(
            field,
            [field.element(rng.randrange(field.q)) for _ in range(d_deg)]
            + [field.element(rng.randrange(1, field.q))],
        )
        try:
            c = cover_create(field, num, den)
        except PreconditionError:
            continue
        if c.degree >= 2:
            return c


@pytest.mark.parametrize("q,seed", [(2, 1), (3, 2), (4, 3), (5, 4)])
def test_random_cover_invariants(q, seed):
    p = 2 if q in (2, 4) else q
    m = 2 if q == 4 else 1
    field = GF(p, m)
    rng = random.Random(seed)
    for _ in range(12):
        c = random_cover(rng, field)
        r = ramification_report(c)
        n = c.degree
        assert r.different_divisor.degree() == 2 * n - 2
        assert r.different_divisor.is_effective()
        for below, pts in r.fibers:
            assert sum(p_.e * p_.f for p_ in pts) == n
            for p_ in pts:
                wild = p_.e % field.p == 0
                assert p_.wild == wild
                if wild:
                    assert p_.d >= p_.e
                else:
                    assert p_.d == p_.e - 1
        # ramified places all appear in the branch locus
        locus = set(r.branch_locus)
        for below, pts in r.fibers:
            if any(p_.e > 1 for p_ in pts):
                assert below in locus


def test_branch_locus_complete_for_small_places():
    """Scan all downstairs places of degree <= 2 independently."""
    c = mk(F2, "x^3+x^2", "x^2+x+1")
    r = ramification_report(c)
    locus = set(r.branch_locus)
    candidates = [Place.from_root(F2.element(v)) for v in range(2)]
    candidates.append(Place.infinite(F2))
    candidates.append(parse_place("t^2+t+1", F2, "t"))
    for Q in candidates:
        ramified = any(e > 1 for _, e, f in fiber(c, Q))
        assert (Q in locus) == ramified
