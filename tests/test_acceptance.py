"""Acceptance gate: one criterion per test, one [PASS]/[FAIL] line each.

Run with -s (or read the captured output) to see the verdict lines; the
seeded samples are fixed so every run checks the identical corpus.
"""

import json
import math
import pathlib
import random
import time

import oracles
from ramforge import GF
from ramforge.belyi import lemma_main_map, tame_belyi_genus0, wild_belyi, wild_step
from ramforge.cli import main
from ramforge.cover import cover_create, fiber, ramification_report
from ramforge.errors import PreconditionError
from ramforge.funcfield import (
    Divisor,
    Place,
    RationalFunction,
    divisor_of,
    parse_place,
    pole_divisor_of,
    prescribed_element,
    pth_power_test,
    rr_basis,
    valuation,
)
from ramforge.polyring import Polynomial, is_irreducible
from ramforge.pseudotame import (
    cocycle_defect,
    element_is_tame_at,
    is_pseudotame_at,
    quartic_pole_reduction,
    square_completion,
    v_dx,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _verdict(num, label, ok, detail=""):
    word = "PASS" if ok else "FAIL"
    line = f"[{word}] criterion {num:02d} {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _finite_places_upto(field, maxdeg, skip_zero=True):
    out = []
    for d in range(1, maxdeg + 1):
        for enc in range(field.q**d):
            coeffs = []
            e = enc
            for _ in range(d):
                coeffs.append(e % field.q)
                e //= field.q
            if skip_zero and d == 1 and coeffs == [0]:
                continue
            poly = Polynomial(field, coeffs + [1])
            if is_irreducible(poly):
                out.append(Place(field, poly))
    return out


def _rand_poly(rng, field, deg):
    return Polynomial(
        field,
        [rng.randrange(field.q) for _ in range(deg)]
        + [rng.randrange(1, field.q)],
    )


# ---------------------------------------------------------------------------


def test_criterion_01_wild_step_fibers():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3, 5):
        rep = ramification_report(wild_step(GF(p), 0)[0])
        (below, pts), = rep.fibers
        ok = ok and below.is_infinite and len(pts) == 2
        ok = ok and sorted(pt.e for pt in pts) == [1, p]
        (wild_pt,) = [pt for pt in pts if pt.e == p]
        ok = ok and wild_pt.d == 2 * p and wild_pt.wild
    elapsed = time.monotonic() - t0
    _verdict(1, "wild step fiber shapes", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_02_two_step_tower():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3):
        ch = wild_belyi(GF(p), set())
        ok = ok and len(ch.steps) == 2
        ok = ok and tuple(ch.report.branch_locus) == (Place.infinite(GF(p)),)
        ok = ok and all(c.ok for c in ch.certificate)
    elapsed = time.monotonic() - t0
    _verdict(2, "two-step tower branch locus", ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_03_head_map():
    t0 = time.monotonic()
    ok = True
    for q, r in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        field = GF(q)
        if r == 1:
            S = {parse_place("x+1", field, "x")}
        else:
            pool = [P for P in _finite_places_upto(field, r) if P.degree == r]
            S = {pool[0]}
        cov, rep = lemma_main_map(field, S)
        n = field.q**r - 1
        ok = ok and cov.degree == n and rep.tame
        t0p = Place(field, Polynomial.x(field))
        one = field.element(1)
        t1p = Place(field, Polynomial(field, [(-one).val, 1]))
        fib0 = {pl: e for pl, e, _ in fiber(cov, t0p)}
        ok = ok and all(fib0[P] == 1 for P in S)
        fib1 = {pl: (e, f) for pl, e, f in fiber(cov, t1p)}
        ok = ok and fib1[t0p] == (n, 1)
        fibinf = {pl: (e, f) for pl, e, f in fiber(cov, Place.infinite(field))}
        ok = ok and fibinf[Place.infinite(field)] == (n, 1)
    elapsed = time.monotonic() - t0
    _verdict(3, "1 - x^(q^r-1) head map", ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_04_wild_pipeline_seeded():
    t0 = time.monotonic()
    rng = random.Random(404)
    fields = [GF(2), GF(3), GF(2, 2)]
    pools = {f.q: _finite_places_upto(f, 2) for f in fields}
    ok = True
    for _ in range(20):
        field = fields[rng.randrange(3)]
        k = min(rng.randrange(0, 4), len(pools[field.q]))
        S = set(rng.sample(pools[field.q], k)) if k else set()
        ch = wild_belyi(field, S)
        ok = ok and all(c.ok for c in ch.certificate)
        ok = ok and set(ch.report.branch_locus) <= {Place.infinite(field)}
        if ch.composite.degree > 1:
            ok = ok and not ch.report.tame
    elapsed = time.monotonic() - t0
    _verdict(4, "wild pipeline on 20 seeded inputs", ok and elapsed < 60.0,
             f"{elapsed:.2f}s")


_COVER_FIELDS = [GF(2), GF(3), GF(2, 2), GF(5), GF(2, 3), GF(3, 2)]
_cover_cache = []


def _cover_sample():
    if _cover_cache:
        return _cover_cache
    rng = random.Random(505)
    while len(_cover_cache) < 200:
        field = _COVER_FIELDS[rng.randrange(6)]
        nd = rng.randrange(1, 9)
        dd = rng.randrange(0, nd + 1)
        num = _rand_poly(rng, field, nd)
        den = _rand_poly(rng, field, dd)
        try:
            c = cover_create(field, num, den)
        except PreconditionError:
            continue
        if c.degree < 2:
            continue
        _cover_cache.append((c, ramification_report(c)))
    return _cover_cache


def test_criterion_05_structural_identities():
    t0 = time.monotonic()
    ok = True
    for c, r in _cover_sample():
        n = c.degree
        p = c.field.p
        ok = ok and r.different_divisor.degree() == 2 * n - 2
        for below, pts in r.fibers:
            ok = ok and sum(pt.e * pt.f for pt in pts) == n
            for pt in pts:
                if pt.e % p == 0:
                    ok = ok and pt.d >= pt.e
                else:
                    ok = ok and pt.d == pt.e - 1
        ok = ok and all(v for k, v in r.checks.items() if k != "remark4")
    elapsed = time.monotonic() - t0
    _verdict(5, "200 covers: fundamental equality, Dedekind, Hurwitz",
             ok and elapsed < 120.0, f"{elapsed:.2f}s")


def test_criterion_06_tame_place_count_identity():
    t0 = time.monotonic()
    ok = True
    tame_seen = 0

    def check(c, r):
        n = c.degree
        fibs = dict(r.fibers)
        k = sum(Q.degree for Q in r.branch_locus)
        N = sum(pt.f * Q.degree for Q in r.branch_locus for pt in fibs[Q])
        good = r.different_divisor.degree() == k * n - N
        good = good and k >= 2
        if k == 2:
            for Q in r.branch_locus:
                good = good and len(fibs[Q]) == 1 and fibs[Q][0].e == n
        return good

    for c, r in _cover_sample():
        if not r.tame:
            continue
        tame_seen += 1
        ok = ok and check(c, r)
    for field in _COVER_FIELDS:
        for n in range(2, 10):
            if n % field.p == 0:
                continue
            c = cover_create(field, Polynomial.monomial(field, n))
            r = ramification_report(c)
            ok = ok and r.tame and check(c, r)
            ok = ok and r.different_divisor.degree() == 2 * n - 2
    elapsed = time.monotonic() - t0
    _verdict(6, "tame covers: deg Diff = k*n - N, k >= 2",
             ok and tame_seen >= 10 and elapsed < 120.0,
             f"{tame_seen} tame covers, {elapsed:.2f}s")


def test_criterion_07_cocycle_defect():
    t0 = time.monotonic()
    rng = random.Random(707)
    fields = [GF(2), GF(2, 2), GF(2, 3)]

    def rand_nonsquare(field, max_deg=6):
        while True:
            num = _rand_poly(rng, field, rng.randrange(max_deg + 1))
            den = _rand_poly(rng, field, rng.randrange(max_deg + 1))
            f = RationalFunction(num, den)
            if not f.is_zero() and not f.derivative().is_zero():
                return f

    ok = True
    for _ in range(100):
        field = fields[rng.randrange(3)]
        x, y, t = (rand_nonsquare(field) for _ in range(3))
        d = cocycle_defect(x, y, t)
        ok = ok and d.derivative().is_zero()
        if not d.is_zero():
            ok = ok and pth_power_test(d) is not None
    elapsed = time.monotonic() - t0
    _verdict(7, "cocycle defect is a square on 100 seeded triples",
             ok and elapsed < 30.0, f"{elapsed:.2f}s")


def test_criterion_08_quartic_taming_equivalence():
    t0 = time.monotonic()
    F2 = GF(2)
    place_map = {
        "zero": parse_place("w", F2, "w"),
        "one": parse_place("w+1", F2, "w"),
        "inf": Place.infinite(F2),
    }
    pairs = 0
    ok = True
    for n in range(1, 64):
        for d in range(1, 64):
            if oracles.clgcd(n, d) != 1:
                continue
            if oracles.bits_is_square(n) and oracles.bits_is_square(d):
                continue
            pairs += 1
            x = RationalFunction(
                Polynomial(F2, [(n >> i) & 1 for i in range(6)]),
                Polynomial(F2, [(d >> i) & 1 for i in range(6)]),
            )
            for name, P in place_map.items():
                ok = ok and (
                    is_pseudotame_at(x, P)
                    == oracles.exists_quartic_taming(n, d, name)
                )
    elapsed = time.monotonic() - t0
    _verdict(8, "pseudo-tame == exists quartic taming (exhaustive)",
             ok and pairs == 2016 and elapsed < 600.0,
             f"{pairs} elements x 3 places, {elapsed:.2f}s")


def test_criterion_09_completion_postconditions():
    t0 = time.monotonic()
    F2 = GF(2)
    rng = random.Random(909)
    rationals = [
        parse_place("w", F2, "w"),
        parse_place("w+1", F2, "w"),
        Place.infinite(F2),
    ]
    ok = True

    done = 0
    while done < 50:
        num = _rand_poly(rng, F2, rng.randrange(5))
        den = _rand_poly(rng, F2, rng.randrange(5))
        x = RationalFunction(num, den)
        if x.is_zero() or x.derivative().is_zero():
            continue
        poles = set(pole_divisor_of(x).support())
        free = [P for P in rationals if P not in poles]
        if len(free) < 2:
            continue
        P, Q = free[0], free[1]
        z = square_completion(x, P, Q)
        ok = ok and element_is_tame_at(x + z * z, P)
        ok = ok and valuation(z, Q) >= 0
        ok = ok and all(c == 1 for _, c in pole_divisor_of(z).items())
        done += 1

    done = 0
    PINF = Place.infinite(F2)
    P0 = parse_place("w", F2, "w")
    while done < 50:
        if done % 2 == 0:
            x = RationalFunction(_rand_poly(rng, F2, rng.randrange(2, 10)))
            Q = PINF
        else:
            k = rng.randrange(1, 9)
            num = _rand_poly(rng, F2, rng.randrange(0, k + 1))
            if num.coefficient(0).is_zero():
                continue
            x = RationalFunction(num, Polynomial.monomial(F2, k))
            Q = P0
        if x.derivative().is_zero() or valuation(x, Q) >= 0:
            continue
        if not is_pseudotame_at(x, Q):
            continue
        z, red = quartic_pole_reduction(x, Q)
        ok = ok and red == x + z**4
        ok = ok and -valuation(red, Q) == -v_dx(x, Q) - 1
        ok = ok and element_is_tame_at(red, Q)
        if not z.is_zero():
            ok = ok and all(pl == Q for pl in pole_divisor_of(z).support())
        done += 1

    elapsed = time.monotonic() - t0
    _verdict(9, "square completion and quartic pole stripping (50 + 50)",
             ok and elapsed < 30.0, f"{elapsed:.2f}s")


def test_criterion_10_riemann_roch_dimension():
    t0 = time.monotonic()
    F3 = GF(3)
    rng = random.Random(1010)
    pool = _finite_places_upto(F3, 2, skip_zero=False) + [Place.infinite(F3)]
    ok = True
    for _ in range(100):
        while True:
            parts = []
            for _ in range(rng.randrange(1, 5)):
                parts.append((pool[rng.randrange(len(pool))], rng.randrange(-3, 4)))
            D = Divisor(F3, parts)
            if abs(D.degree()) <= 10:
                break
        basis = rr_basis(D)
        ok = ok and len(basis) == max(0, D.degree() + 1)
        for f in basis:
            ok = ok and (divisor_of(f) + D).is_effective()

    # constrained synthesis: exact pole order, forced zeros, avoided places
    F2 = GF(2)
    D = Divisor(F2, [(parse_place("x+1", F2, "x"), 2)])
    P = Place.infinite(F2)
    avoid = (parse_place("x", F2, "x"),)
    f = prescribed_element(D, P, avoid=avoid)
    ok = ok and valuation(f, parse_place("x+1", F2, "x")) >= 2
    ok = ok and all(pl == P for pl in pole_divisor_of(f).support())
    ok = ok and valuation(f, avoid[0]) == 0
    Q = parse_place("x", F2, "x")
    g = prescribed_element(D, P, n=4, zero_at=(Q, 1))
    ok = ok and valuation(g, Q) >= 1
    ok = ok and valuation(g, parse_place("x+1", F2, "x")) >= 2
    ok = ok and pole_divisor_of(g).coefficient(P) == 4
    elapsed = time.monotonic() - t0
    _verdict(10, "Riemann-Roch dimension and prescribed elements",
             ok and elapsed < 30.0, f"{elapsed:.2f}s")


def test_criterion_11_cli_determinism(capsys):
    t0 = time.monotonic()
    cases = sorted(p.stem for p in GOLDEN.glob("*.cmd"))
    ok = len(cases) == 10
    for name in cases:
        argv = (GOLDEN / f"{name}.cmd").read_text().splitlines()
        want = (GOLDEN / f"{name}.out").read_text()
        outs = []
        for _ in range(2):
            rc = main(argv)
            cap = capsys.readouterr()
            ok = ok and rc == 0 and cap.err == ""
            outs.append(cap.out)
        ok = ok and outs[0] == want and outs[1] == want
    elapsed = time.monotonic() - t0
    _verdict(11, "10 golden CLI commands, byte-identical twice",
             ok and elapsed < 60.0, f"{elapsed:.2f}s")
