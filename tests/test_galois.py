"""Canonical field models: moduli, encodings, tables, embeddings."""

import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from ramforge import GF, embed, galois, polyring
from ramforge.config import TABLE_LIMIT
from ramforge.errors import PreconditionError, SizeBoundError
from ramforge.polyring import (
    Polynomial,
    factor,
    irreducible_poly,
    is_irreducible,
    parse_polynomial,
    roots,
)

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)
F5 = GF(5)
F8 = GF(2, 3)
F9 = GF(3, 2)
F16 = GF(2, 4)
F256 = GF(2, 8)


def test_frozen_moduli():
    assert F4.modulus.to_text("T") == "T^2+T+1"
    assert F8.modulus.to_text("T") == "T^3+T+1"
    assert F16.modulus.to_text("T") == "T^4+T+1"
    assert F9.modulus.to_text("T") == "T^2+1"
    assert F4.modulus.encoding() == 7
    assert F16.modulus.encoding() == 19
    assert F9.modulus.encoding() == 10


@pytest.mark.parametrize(
    "p,m",
    [(2, m) for m in range(2, 13)]
    + [(3, m) for m in range(2, 7)]
    + [(p, m) for p in (5, 7) for m in (2, 3)],
)
def test_modulus_is_encoding_minimal(p, m):
    field = GF(p, m)
    got = tuple(c.val for c in field.modulus.coeffs)
    assert got == oracles.pf_canonical_modulus(p, m)


def test_field_create_validates():
    with pytest.raises(PreconditionError):
        GF(4)
    with pytest.raises(PreconditionError):
        GF(1)
    with pytest.raises(PreconditionError):
        GF(2, 0)


def test_field_create_rejects_huge_order_without_computing_it():
    with pytest.raises(SizeBoundError):
        GF(2, 65)
    with pytest.raises(SizeBoundError):
        GF(2, 10**10)
    assert GF(2, 64).q == 2**64


def test_field_identity_is_cached():
    assert GF(2, 4) is F16
    assert GF(5) is F5


@pytest.mark.parametrize("field", [F4, F8, F9, F16, GF(5, 2), GF(3, 3)])
def test_multiplicative_order_divides_group(field):
    one = field.element(1)
    for v in range(1, field.q):
        assert field.element(v) ** (field.q - 1) == one


def test_element_text_frozen():
    assert [str(F4.element(v)) for v in range(F4.q)] == ["0", "1", "z", "z+1"]
    assert str(F9.element(5)) == "z+2"
    assert str(F2.element(1)) == "1"


@given(v=st.integers(0, 8))
def test_f9_frobenius_is_cube(v):
    a = F9.element(v)
    assert (a**3).pth_root() == a


@given(a=st.integers(0, 7), b=st.integers(0, 7), c=st.integers(0, 7))
def test_f8_ring_axioms(a, b, c):
    x, y, z = F8.element(a), F8.element(b), F8.element(c)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z


@given(v=st.integers(1, 24))
def test_f25_division(v):
    field = GF(5, 2)
    a = field.element(v)
    assert a / a == field.element(1)
    assert a * a.inverse() == 1


def test_embed_frozen_images():
    gen = F4.element(2)
    assert embed(F4, F16, gen).val == 6
    assert embed(F4, F256, gen).val == 188


def test_embed_tower_commutes():
    for v in range(4):
        a = F4.element(v)
        hop = embed(F16, F256, embed(F4, F16, a))
        assert hop == embed(F4, F256, a)


def test_embed_is_a_homomorphism():
    for av in range(4):
        for bv in range(4):
            a, b = F4.element(av), F4.element(bv)
            assert embed(F4, F16, a + b) == embed(F4, F16, a) + embed(F4, F16, b)
            assert embed(F4, F16, a * b) == embed(F4, F16, a) * embed(F4, F16, b)


def test_embed_fixes_prime_subfield():
    assert embed(F2, F16, F2.element(1)).val == 1
    assert embed(F3, F9, F3.element(2)).val == 2


def test_embed_requires_subfield():
    with pytest.raises(PreconditionError):
        embed(F4, F8, F4.element(2))
    with pytest.raises(PreconditionError):
        embed(F3, F4, F3.element(1))


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        F4.element(0).inverse()


@given(v=st.integers(0, 15))
def test_f16_pth_root_section(v):
    a = F16.element(v)
    assert a.pth_root() ** 2 == a


# ---------------------------------------------------------------------------
# exp/log tables


SMALL_TABULATED = [
    (p, m)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    for m in range(2, 11)
    if p**m <= 2**10
]


@pytest.mark.parametrize("p,m", SMALL_TABULATED)
def test_tables_match_cycle_walk(p, m):
    field = GF(p, m)
    exp, log = oracles.pf_exp_log(p, m, tuple(field._mod_digits))
    assert field._exp == exp
    assert field._log == log


# generator and sha256 of repr((exp, log)), frozen from the cycle walk
FROZEN_TABLES = {
    (3, 8): (38, "8a5ffc8382a0faca3975ba11b8ac5e61efdd224f8cb219b4657b3feb3a3f0fe7"),
    (2, 12): (3, "01a3ec8a0eb716acf7312e0c17d0db16c3d8d1d3d646cdbe9bedb125cd6dc06a"),
    (2, 16): (3, "8cf86c5c8887ac0bc1a1b0dc3bf87c65070198c58aa1f6ac897406dd45c64746"),
    (3, 10): (34, "d2d41e7e7ac303a8caeebfa70a32e13cc750e2f59e1922c9b7d9e9b49fbcf56f"),
    (13, 4): (17, "7848e3fc445e8dc3550af1c18b60de9c7a2b4bb5d1bc70b3e33c8e1c4e50a9bb"),
    (251, 2): (256, "3dbd04bead92dffd279b10e3feec06fb874a81e4fc2536a836b24860986783a0"),
}


@pytest.mark.parametrize("p,m", sorted(FROZEN_TABLES))
def test_frozen_generators_and_tables(p, m):
    field = GF(p, m)
    gen, digest = FROZEN_TABLES[(p, m)]
    assert field._exp[1] == gen
    tables = repr((field._exp, field._log)).encode()
    assert hashlib.sha256(tables).hexdigest() == digest


def test_table_build_digit_multiplications(count_calls):
    calls = count_calls("_mul_digits", galois.Field)
    field = galois.Field(3, 10)  # uncached: builds the tables again
    assert field._exp[1] == 34
    assert len(calls) <= 5000  # order test plus two tables of about sqrt(q) products


# ---------------------------------------------------------------------------
# irreducibility: polynomials in K[x**p] are p-th powers


class _EntryDegrees:
    """(degree,) of each polynomial recorded entering the distinct-degree split,
    read off the recorded (K, f) arguments when compared."""

    def __init__(self, calls):
        self.calls = calls

    def degrees(self):
        return [(len(f) - 1,) for _, f in self.calls]

    def __eq__(self, other):
        return self.degrees() == other

    def __repr__(self):
        return repr(self.degrees())


def _count_rabin_tests(count_calls):
    """Record (degree,) for every polynomial that reaches the irreducibility
    test: its one entry into `_ddf`, whose first block decides it."""
    return _EntryDegrees(count_calls("_ddf", polyring))


@pytest.mark.parametrize(
    "field,text",
    [
        (F4, "T^2+z"),
        (F3, "T^3-2"),
        (F2, "T^4+T^2+1"),
        (F3, "T^6+T^3+1"),
        (F5, "T^10+T^5+1"),
        (GF(7), "T^14+T^7+1"),
    ],
)
def test_zero_derivative_rejected_before_rabin(field, text, count_calls):
    f = parse_polynomial(text, field)
    assert f.derivative().is_zero()
    rabin = _count_rabin_tests(count_calls)
    assert not is_irreducible(f)
    assert rabin == []
    fac = factor(f)
    assert oracles.factorization_product(fac) == f
    assert all(e % field.p == 0 for _, e in fac.factors)


def test_least_quadratic_over_gf4096(count_calls):
    field = GF(2, 12)
    rabin = _count_rabin_tests(count_calls)
    f = irreducible_poly(field, 2)
    assert f.to_text("T") == "T^2+T+z^9"
    # read off the trace, then confirmed by one Rabin test (the encoding walk
    # takes 513 of them)
    assert rabin == [(2,)]


# ---------------------------------------------------------------------------
# digit arithmetic of untabulated fields (q > TABLE_LIMIT)


UNTABULATED = [(2, 17), (3, 11), (257, 2)]


@pytest.mark.parametrize("p,m", UNTABULATED)
def test_untabulated_field_arithmetic(p, m):
    field = GF(p, m)
    assert field.q > TABLE_LIMIT
    assert field._exp is None
    modulus = tuple(field._mod_digits)
    rng = random.Random(1000 * p + m)
    for _ in range(20):
        a, b, c = (field.element(rng.randrange(1, field.q)) for _ in range(3))
        assert a * a.inverse() == 1
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a ** (field.q - 1) == 1
        assert (a**p).pth_root() == a
        prod = oracles.pf_mod(oracles.pf_mul(a.coeffs, b.coeffs, p), modulus, p)
        assert (a * b).coeffs == prod + (0,) * (m - len(prod))


def test_untabulated_inverse_powers_from_the_top_bit(count_calls):
    field = GF(2, 17)
    products = count_calls("_mul_bits", galois.Field)
    inv = field.inv_raw(0b1011)
    # a^(q-2): q - 2 has 17 bits, 16 of them set, so 16 squarings and 15
    # products by a, with no square past the top bit and no product by 1
    assert len(products) == 31
    assert field.mul_raw(0b1011, inv) == 1


@pytest.mark.parametrize("p,m", UNTABULATED)
def test_untabulated_field_factoring(p, m):
    field = GF(p, m)
    rng = random.Random(1000 * p + m)
    for d in range(2, 7):
        lead = rng.randrange(1, field.q)
        f = Polynomial(field, [rng.randrange(field.q) for _ in range(d)] + [lead])
        fac = factor(f)
        assert oracles.factorization_product(fac) == f
        assert all(is_irreducible(g) for g, _ in fac.factors)
    rs = sorted({rng.randrange(field.q) for _ in range(4)})
    f = Polynomial.constant(field, 1)
    for r in rs:
        f = f * Polynomial(field, [field.neg_raw(r), 1])
    assert [r.val for r in roots(f)] == rs
