"""Canonical field models: moduli, encodings, tables, embeddings."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from ramforge import GF, embed
from ramforge.errors import PreconditionError, SizeBoundError

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)
F5 = GF(5)
F8 = GF(2, 3)
F9 = GF(3, 2)
F16 = GF(2, 4)
F256 = GF(2, 8)


def min_irreducible_digits(p, m):
    """Encoding-minimal monic irreducible of degree m, by brute force."""
    for low in range(p**m):
        digits = []
        v = low
        for _ in range(m):
            digits.append(v % p)
            v //= p
        if oracles.pf_is_irreducible(tuple(digits) + (1,), p):
            return tuple(digits) + (1,)
    raise AssertionError("no irreducible found")


def test_frozen_moduli():
    assert F4.modulus.to_text("T") == "T^2+T+1"
    assert F8.modulus.to_text("T") == "T^3+T+1"
    assert F16.modulus.to_text("T") == "T^4+T+1"
    assert F9.modulus.to_text("T") == "T^2+1"
    assert F4.modulus.encoding() == 7
    assert F16.modulus.encoding() == 19
    assert F9.modulus.encoding() == 10


@pytest.mark.parametrize(
    "p,m", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)]
)
def test_modulus_is_encoding_minimal(p, m):
    field = GF(p, m)
    got = tuple(c.val for c in field.modulus.coeffs)
    assert got == min_irreducible_digits(p, m)


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
    assert [str(field_el) for field_el in F4.elements()] == ["0", "1", "z", "z+1"]
    assert str(F9.element(5)) == "z+2"
    assert str(F2.element(1)) == "1"


@given(v=st.integers(0, 8))
def test_f9_frobenius_is_cube(v):
    a = F9.element(v)
    assert a.frobenius() == a**3
    assert a.frobenius().pth_root() == a


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
