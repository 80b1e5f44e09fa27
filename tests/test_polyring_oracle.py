"""Differential tests of factor, roots and is_irreducible against sympy.

Over prime fields sympy's `Poly(..., modulus=p).factor_list()` is an
independent oracle.  Over GF(4), GF(8) and GF(9), which sympy does not
factor over, the factorization is checked for its defining properties.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

import oracles  # noqa: E402
from ramforge import GF  # noqa: E402
from ramforge.polyring import (  # noqa: E402
    Polynomial,
    factor,
    irreducibles,
    is_irreducible,
    roots,
)

T = sympy.Symbol("T")
BIG_P = 2**31 - 1


def rand_poly(rng, field, deg):
    coeffs = [rng.randrange(field.q) for _ in range(deg)]
    return Polynomial(field, coeffs + [rng.randrange(1, field.q)])


def to_sympy(f):
    return sympy.Poly([c.val for c in reversed(f.coeffs)], T, modulus=f.field.p)


def sympy_factors(f):
    """sympy's factor list of f over GF(p): sorted ((coeffs ascending), e)."""
    p = f.field.p
    out = []
    for g, e in to_sympy(f).factor_list()[1]:
        c = [int(v) % p for v in reversed(g.all_coeffs())]
        inv = pow(c[-1], -1, p)
        out.append((tuple(v * inv % p for v in c), e))
    out.sort(key=lambda t: (len(t[0]), t[0][::-1]))
    return out


def our_factors(f):
    return [(tuple(c.val for c in g.coeffs), e) for g, e in factor(f).factors]


def check_against_sympy(f):
    want = sympy_factors(f)
    assert our_factors(f) == want
    want_roots = sorted((-c[0]) % f.field.p for c, _ in want if len(c) == 2)
    assert [r.val for r in roots(f)] == want_roots
    assert is_irreducible(f) == (f.degree >= 1 and to_sympy(f).is_irreducible)


@pytest.mark.parametrize("p,max_deg,count", [
    (2, 40, 30), (3, 40, 30), (5, 40, 25), (7, 40, 25), (BIG_P, 20, 8),
])
def test_factor_matches_sympy_random(p, max_deg, count):
    field = GF(p)
    rng = random.Random(p)
    for _ in range(count):
        check_against_sympy(rand_poly(rng, field, rng.randint(1, max_deg)))


def test_degree_40_over_a_large_prime_matches_sympy():
    """p far above the degree: the distinct-degree split builds its rows by
    products with x**p mod F instead of shifts."""
    field = GF(BIG_P)
    rng = random.Random(BIG_P)
    for _ in range(3):
        check_against_sympy(rand_poly(rng, field, 40))


@pytest.mark.parametrize("p", [BIG_P, 2**61 - 1])
def test_large_prime_sextic_matches_sympy(p):
    check_against_sympy(Polynomial(GF(p), [1, 1, 0, 0, 0, 0, 1]))


@pytest.mark.parametrize("p,d,k", [
    (2, 1, 2), (2, 4, 3), (2, 5, 6), (3, 2, 3), (3, 3, 8), (5, 1, 5),
    (5, 2, 6), (7, 1, 7), (7, 2, 4), (BIG_P, 1, 3), (BIG_P, 2, 2),
])
def test_equal_degree_products_match_sympy(p, d, k):
    """Products of k distinct irreducibles of degree d: the EDF path."""
    field = GF(p)
    rng = random.Random(1000 * p + d)
    chosen = set()
    while len(chosen) < k:
        g = rand_poly(rng, field, d).monic()
        if is_irreducible(g):
            chosen.add(g)
    f = Polynomial(field, [1])
    for g in chosen:
        f = f * g
    check_against_sympy(f)
    assert sorted(g.encoding() for g, _ in factor(f).factors) == sorted(
        g.encoding() for g in chosen
    )


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pth_powers_match_sympy(p):
    """g**p * h and friends: the squarefree path with p-th root extraction."""
    field = GF(p)
    rng = random.Random(p + 77)
    for _ in range(6):
        g = rand_poly(rng, field, rng.randint(1, 4))
        h = rand_poly(rng, field, rng.randint(0, 4))
        check_against_sympy(g**p * h)
        check_against_sympy(g ** (p * p) * h**2)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_full_field_products_match_sympy(p):
    """x**(p**k) - x: every monic irreducible of degree dividing k."""
    field = GF(p)
    k = {2: 6, 3: 4, 5: 3, 7: 2}[p]
    f = Polynomial.monomial(field, p**k) - Polynomial.x(field)
    check_against_sympy(f)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2)])
def test_factor_properties_over_extension_fields(p, m):
    field = GF(p, m)
    rng = random.Random(10 * p + m)
    polys = [rand_poly(rng, field, rng.randint(1, 24)) for _ in range(12)]
    small = list(irreducibles(field, 2))[:3] + list(irreducibles(field, 3))[:3]
    prod = Polynomial(field, [1])
    for g in small:
        prod = prod * g
    polys += [prod, prod * small[0] ** p]
    for f in polys:
        fact = factor(f)
        assert oracles.factorization_product(fact) == f
        keys = [(g.degree, g.encoding()) for g, _ in fact.factors]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for g, _ in fact.factors:
            assert g.is_monic()
            assert is_irreducible(g)
