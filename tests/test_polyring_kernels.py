"""Differential tests of the raw polynomial kernels.

Characteristic 2: GF(2) and the tabulated GF(2**m) run on the XOR/log-domain
kernels, GF(2**17) on the field-call fallback.  Each is checked against the
reference code in `tests/oracles.py`: shift-xor arithmetic on ints for GF(2),
and long-hand polynomial arithmetic with field products reduced digit-wise
(`pf_mul`/`pf_mod`) by the independently found canonical modulus for
GF(2**m).

Odd prime fields: GF(p) divides with integer multiply-adds and takes its
Frobenius steps on packed rows, slots of 1, 2, 4 or 8 bytes chosen from the
largest sum a step adds, with list rows past 8 bytes.  For p < deg F each
row is built from the one before, unreduced, by p multiply-adds with the
tail rows x**(deg F + k) mod F.  Division and gcd are checked against
`pf_mod` and sympy, every row of a map against `pf_mod` of x**(p*i) and
against the slot bound, Frobenius steps against `frobenius_power_mod` on
both sides of every slot-width boundary, and the packed step on the largest
sums its slots must hold.  The gcd runs Euclid on byte slots of one int
for p <= 13, reducing the slots with a table before a row could carry one
past 255, and Euclid on `_divmod` past it.  Both are checked
against a `pf_mod` Euclid and sympy's `gf_gcd` up to degree 400, on every
coefficient p - 1 and on quotients of more rows than one reduction allows,
and the distinct-degree split block by block against a reference on
`pf_gcd`, `pf_mod` and `frobenius_power_mod`.

Odd tabulated GF(p**m): up to q = 256 (q**2 <= TABLE_LIMIT) every kernel
adds through the field's addition table, checked against `ext_add` on every
pair of the nine such fields; past it, as in GF(3**11) past the table limit,
the kernels call Field.add_raw and mul_raw.  Both are checked against the
`ext_poly_*` oracles and square and multiply over GF(9) to GF(3**10), and on
terms whose every digit is p - 1, hundreds to a coefficient.
"""

import random
import sys
from array import array

import pytest

import oracles
from ramforge import GF
from ramforge.polyring import (
    _SLOTS,
    _add,
    _add_tables,
    _derivative,
    _ddf,
    _divmod,
    _frob_map,
    _frob_row,
    _frob_step,
    _gcd,
    _monic,
    _mul,
    _shift,
    _slot_width,
    _sub,
    _unpack,
)

MAX_DEG = 64


def to_int(c):
    return sum(v << i for i, v in enumerate(c))


def from_int(n):
    return tuple(int(b) for b in reversed(bin(n)[2:])) if n else ()


def rand_poly(rng, q, deg):
    """Random coefficients with a nonzero leading one; deg -1 gives 0."""
    if deg < 0:
        return ()
    return tuple(rng.randrange(q) for _ in range(deg)) + (rng.randrange(1, q),)


def input_pairs(rng, q, count):
    """(a, b) pairs up to degree MAX_DEG, half of them with a shared factor."""
    pairs = []
    for k in range(count):
        if k % 2:
            c = rand_poly(rng, q, rng.randint(1, MAX_DEG // 2))
            u = rand_poly(rng, q, rng.randint(0, MAX_DEG - len(c) + 1))
            v = rand_poly(rng, q, rng.randint(0, MAX_DEG - len(c) + 1))
            pairs.append((c, u, v))
        else:
            a = rand_poly(rng, q, rng.randint(-1, MAX_DEG))
            b = rand_poly(rng, q, rng.randint(0, MAX_DEG))
            pairs.append((None, a, b))
    return pairs


def test_gf2_kernels_match_shift_xor():
    K = GF(2)
    rng = random.Random(2)
    for shared, a, b in input_pairs(rng, 2, 40):
        if shared is not None:
            a = from_int(oracles.clmul(to_int(shared), to_int(a)))
            b = from_int(oracles.clmul(to_int(shared), to_int(b)))
        A, B = to_int(a), to_int(b)
        assert tuple(_mul(K, a, b)) == from_int(oracles.clmul(A, B))
        assert tuple(_mul(K, a, a)) == from_int(oracles.clmul(A, A))
        assert tuple(_add(K, a, b)) == from_int(A ^ B)
        assert tuple(_sub(K, a, b)) == from_int(A ^ B)
        q, r = _divmod(K, a, b)
        wq, wr = oracles.cldivmod(A, B)
        assert (tuple(q), tuple(r)) == (from_int(wq), from_int(wr))
        assert tuple(r) == from_int(oracles.clmod(A, B))
        assert tuple(_gcd(K, a, b)) == from_int(oracles.clgcd(A, B))


@pytest.mark.parametrize("m,count", [(2, 12), (3, 12), (12, 4), (17, 2)])
def test_gf2m_kernels_match_digitwise_oracle(m, count):
    K = GF(2, m)
    modulus = oracles.pf_canonical_modulus(2, m)
    assert tuple(K._mod_digits) == modulus
    assert (K._exp is None) == (m == 17)  # GF(2**17): the fallback loop

    def omul(a, b):
        return oracles.ext_poly_mul(a, b, 2, modulus)

    def oadd(a, b):
        n = max(len(a), len(b))
        a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
        return oracles.pf_trim([oracles.ext_add(x, y, 2) for x, y in zip(a, b)])

    rng = random.Random(m)
    for shared, a, b in input_pairs(rng, K.q, count):
        if shared is not None:
            a, b = omul(shared, a), omul(shared, b)
        assert tuple(_mul(K, a, b)) == omul(a, b)
        if K._exp is not None:  # squares take their own path in the kernel
            assert tuple(_mul(K, b, b)) == omul(b, b)
        assert tuple(_add(K, a, b)) == oadd(a, b)
        assert tuple(_sub(K, a, b)) == oadd(a, b)
        q, r = _divmod(K, a, b)
        assert len(r) < len(b)
        assert oadd(omul(tuple(q), b), tuple(r)) == a
        assert (tuple(q), tuple(r)) == oracles.ext_poly_divmod(a, b, 2, modulus)
        want = oracles.ext_poly_gcd(a, b, 2, modulus)
        assert tuple(_gcd(K, a, b)) == want


@pytest.mark.parametrize("m", [1, 2, 3, 12])
def test_scalar_products_and_constant_divisors(m):
    """Degree-0 operands, the divisions a rational-function step makes most."""
    K = GF(2, m)
    modulus = oracles.pf_canonical_modulus(2, m) if m > 1 else None
    rng = random.Random(100 + m)
    for _ in range(20):
        a = rand_poly(rng, K.q, rng.randint(0, 12))
        c = (rng.randrange(1, K.q),)
        if m == 1:
            assert tuple(_mul(K, a, c)) == a
            assert _divmod(K, a, c) == (list(a), [])
            continue
        want = tuple(oracles.ext_mul(x, c[0], 2, modulus) for x in a)
        assert tuple(_mul(K, c, a)) == want
        q, r = _divmod(K, want, c)
        assert (tuple(q), r) == (a, [])


@pytest.mark.parametrize("m", [1, 2, 12])
def test_char2_kernels_make_no_field_calls(monkeypatch, m):
    K = GF(2, m)
    rng = random.Random(200 + m)
    a, b = rand_poly(rng, K.q, 40), rand_poly(rng, K.q, 17)
    kernels = (_mul, _divmod, _add, _sub, lambda K, a, b: _shift(K, a, b[-1]))
    want = [f(K, a, b) for f in kernels]

    def forbidden(*args):
        raise AssertionError("field method called from a char-2 kernel")

    for name in ("add_raw", "sub_raw", "neg_raw", "mul_raw", "inv_raw", "pow_raw"):
        monkeypatch.setattr(type(K), name, forbidden)
    assert [f(K, a, b) for f in kernels] == want


# ---------------------------------------------------------------------------
# odd prime fields: division with no field call, Frobenius steps on packed rows

BIG_P = 2**31 - 1
ODD_PRIMES = [3, 5, 7, 251, 65521, BIG_P]


def row_bound(p, n):
    """The largest slot of a row of a degree-n map over GF(p): reduced rows
    for p >= n; for p < n row 0's 1 plus at most ceil(n / p) tail sums,
    each of p terms at most (p - 1)**2, and p * ceil(n / p) <= n + p - 1."""
    return (n + p - 1) * (p - 1) ** 2 + 1 if p < n else p - 1


# (p, deg F) -> bytes per slot: pairs straddle each step where
# n * (p - 1) * row_bound(p, n), a step's largest sum, outgrows a width,
# for p = 3, 5 and 7 from 1 to 2 and from 2 to 4 bytes; 0 is the list-row
# fallback.  (3, 63), (3, 64), (5, 15) and (5, 16), where rows reduced mod
# p changed width, lie inside the 2-byte range of unreduced rows.
SLOT_WIDTHS = {
    (3, 4): 1, (3, 5): 2, (3, 63): 2, (3, 64): 2, (3, 89): 2, (3, 90): 4,
    (5, 5): 1, (5, 6): 2, (5, 15): 2, (5, 16): 2, (5, 30): 2, (5, 31): 4,
    (7, 7): 1, (7, 8): 2, (7, 14): 2, (7, 15): 4,
    (251, 1): 2, (251, 2): 4, (65521, 1): 4, (65521, 2): 8,
    (BIG_P, 4): 8, (BIG_P, 5): 0,
}


def test_slot_widths_at_each_boundary():
    for (p, n), w in SLOT_WIDTHS.items():
        F = [1] * n + [1]
        assert _slot_width(GF(p), F) == w, (p, n)
        top = n * (p - 1) * row_bound(p, n)
        assert w == 0 or top < 256**w  # w holds a step's largest sum
        assert w <= 1 or top >= 256 ** (w // 2)  # and half of w would not
    for K in (GF(2), GF(2, 2), GF(3, 2), GF(5, 2)):
        assert _slot_width(K, [1] * 9) == 0


def _sympy_poly(c, p):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly(list(reversed(c)) or [0], sympy.Symbol("T"), modulus=p)


def _from_sympy(g, p):
    return oracles.pf_trim(int(v) % p for v in reversed(g.all_coeffs()))


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_gfp_division_and_gcd_match_pf_mod_and_sympy(p):
    """_divmod, _gcd, _monic and _derivative against `pf_mod` and sympy."""
    K = GF(p)
    rng = random.Random(p)
    for shared, a, b in input_pairs(rng, p, 16):
        if shared is not None:
            a, b = oracles.pf_mul(shared, a, p), oracles.pf_mul(shared, b, p)
        A, B = _sympy_poly(a, p), _sympy_poly(b, p)
        q, r = _divmod(K, a, b)
        assert tuple(r) == oracles.pf_mod(a, b, p)
        assert (tuple(q), tuple(r)) == tuple(_from_sympy(g, p) for g in A.div(B))
        c = _sympy_poly(b[-1:], p)  # a constant divisor: the quotient row alone
        assert tuple(_divmod(K, a, b[-1:])[0]) == _from_sympy(A.div(c)[0], p)
        assert tuple(_gcd(K, a, b)) == _from_sympy(A.gcd(B).monic(), p)
        assert tuple(_monic(K, b)[0]) == _from_sympy(B.monic(), p)
        assert tuple(_derivative(K, a)) == _from_sympy(A.diff(), p)


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_gfp_frobenius_steps_match_square_and_multiply(p):
    """Three steps through one map per F, from x and from a random h, at
    every degree of SLOT_WIDTHS for p: packed rows, or list rows past 8
    bytes, against square and multiply in tests/oracles.py."""
    K = GF(p)
    rng = random.Random(10 * p + 1)
    for n in sorted(n for q, n in SLOT_WIDTHS if q == p):
        F = [rng.randrange(p) for _ in range(n)] + [1]
        rows = _frob_map(K, F)
        for h in ((0, 1), rand_poly(rng, p, n - 1)):
            got = want = oracles.pf_mod(h, F, p)
            for _ in range(3):
                got = _frob_step(K, list(got), F, rows, F)
                want = oracles.frobenius_power_mod(want, tuple(F), p, 1)
                assert tuple(got) == want, (p, n, h)
        assert all(isinstance(r, int) for r in rows) == (SLOT_WIDTHS[p, n] > 0)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_gfp_frobenius_rows_match_pf_mod(p):
    """Every row i < n of a full map, x**(p*i) mod F, against `pf_mod`, on
    both sides of each width boundary of SLOT_WIDTHS and for n <= p, where
    row 1 is a power and row i a product.  F is all p - 1 below a monic top,
    which drives the tail sums up, or random with a random lead.  No slot
    passes row_bound."""
    K = GF(p)
    rng = random.Random(20 * p + 1)
    for n in sorted({n for q, n in SLOT_WIDTHS if q == p} | {2, p}):
        lead = rng.randrange(1, p)
        for F in ([p - 1] * n + [1], [rng.randrange(p) for _ in range(n)] + [lead]):
            w = _slot_width(K, F)
            rows = _frob_map(K, F)
            while len(rows) < n:
                rows.append(_frob_row(K, rows, F, w))
            for i, row in enumerate(rows):
                slots = list(_unpack(row, n, w))
                assert max(slots) <= row_bound(p, n), (p, n, i)
                want = oracles.pf_mod((0,) * (p * i) + (1,), tuple(F), p)
                assert oracles.pf_trim(c % p for c in slots) == want, (p, n, i)


@pytest.mark.parametrize("p,n", sorted((p, n) for (p, n), w in SLOT_WIDTHS.items() if w))
def test_packed_step_holds_the_largest_sums(p, n):
    """Every row at its largest unreduced slot, row_bound(p, n), and every
    coefficient of h at p - 1: each slot sums n * (p - 1) * row_bound(p, n),
    the most a step adds, and the step reads that sum back mod p."""
    K = GF(p)
    F = [1] * n + [1]
    w, r = _slot_width(K, F), row_bound(p, n)
    full = int.from_bytes(array(_SLOTS[w], [r] * n), sys.byteorder)
    got = _frob_step(K, [p - 1] * n, F, [full] * n, F)
    assert tuple(got) == oracles.pf_trim([n * (p - 1) * r % p] * n)


# ---------------------------------------------------------------------------
# odd prime fields: _gcd on byte slots for p <= 13, on _divmod past it

EUCLID_PRIMES = ODD_PRIMES + [11, 13, 17]


def pf_gcd(a, b, p):
    """The monic gcd by Euclid on `pf_mod`."""
    a, b = oracles.pf_trim(a), oracles.pf_trim(b)
    while b:
        a, b = b, oracles.pf_mod(a, b, p)
    inv = pow(a[-1], -1, p) if a else 0
    return tuple(x * inv % p for x in a)


def euclid_pairs(rng, p):
    """Zero and constant operands, equal degrees, len(a) < len(b), shared
    factors and non-monic leads, from degree 0 to 400; every coefficient
    p - 1; and quotients of 350 to 399 rows, more than one reduction of the
    byte slots allows (42 rows over GF(3), 1 over GF(13)).  Over x**db + 1
    with a quotient of all p - 1 each row adds the most a slot can take,
    (p - 1) * p, to db - 1 slots, so one row past the budget carries."""

    def r(d):  # a random lead: most divisors are not monic
        return rand_poly(rng, p, d)

    def full(d):
        return (p - 1,) * (d + 1)

    c = r(0)
    pairs = [((), ()), ((), r(5)), (r(7), ()), (c, r(9)), (r(9), c), (c, r(0))]
    pairs += [(r(d), r(d)) for d in (1, 2, 12, 40)]
    pairs += [(r(3), r(30)), (r(0), r(400)), (r(399), r(400)), (r(400), r(1)), (r(400), r(3))]
    pairs += [(full(400), full(1)), (full(400), full(3)), (full(120), full(119))]
    for dg, du, dv in ((1, 0, 0), (3, 5, 5), (8, 20, 7), (60, 40, 90), (150, 250, 240)):
        g = r(dg)
        pairs.append((oracles.pf_mul(g, r(du), p), oracles.pf_mul(g, r(dv), p)))
    g = r(5)  # one operand divides the other
    pairs.append((oracles.pf_mul(g, r(20), p), g))
    pairs.append((oracles.pf_mul(full(5), full(40), p), oracles.pf_mul(full(5), full(30), p)))
    for db in (3, 50):  # x**db + 1 divides a: the gcd is x**db + 1
        b = (1,) + (0,) * (db - 1) + (1,)
        pairs.append((oracles.pf_mul(full(400 - db), b, p), b))
    return pairs


@pytest.mark.parametrize("p", EUCLID_PRIMES)
def test_gfp_euclid_matches_sympy_and_pf_mod(p):
    """Against `pf_mod`'s Euclid and sympy's dense gf_gcd, both ways round."""
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    K = GF(p)
    rng = random.Random(7 * p + 3)
    for a, b in euclid_pairs(rng, p):
        got = tuple(_gcd(K, a, b))
        assert got == pf_gcd(a, b, p), (p, len(a), len(b))
        want = galoistools.gf_gcd([ZZ(x) for x in a[::-1]], [ZZ(x) for x in b[::-1]], p, ZZ)
        assert got == tuple(int(x) for x in want[::-1])
        assert _gcd(K, b, a) == list(got)


def test_gfp_euclid_reduces_the_remainder_it_returns():
    """Every coefficient of the gcd lies in [0, p), the last one is 1, and
    the inputs are left as they were."""
    p = 3
    K = GF(p)
    rng = random.Random(31)
    for _ in range(40):
        g = rand_poly(rng, p, rng.randint(1, 6))
        a = oracles.pf_mul(g, rand_poly(rng, p, rng.randint(0, 30)), p)
        b = oracles.pf_mul(g, rand_poly(rng, p, rng.randint(0, 30)), p)
        la, lb = list(a), list(b)
        got = _gcd(K, la, lb)
        assert (la, lb) == (list(a), list(b))
        assert got[-1] == 1 and all(0 <= x < p for x in got)
        assert len(got) - 1 >= len(g) - 1


def pf_sub(a, b, p):
    n = max(len(a), len(b))
    a, b = tuple(a) + (0,) * (n - len(a)), tuple(b) + (0,) * (n - len(b))
    return oracles.pf_trim((x - y) % p for x, y in zip(a, b))


def pf_exact_quotient(a, b, p):
    """a / b for b | a, by long division; the remainder is checked by pf_mod."""
    assert oracles.pf_mod(a, b, p) == ()
    a, q, inv = list(a), [0] * (len(a) - len(b) + 1), pow(b[-1], -1, p)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + len(b) - 1] * inv % p
        for i, y in enumerate(b):
            a[k + i] = (a[k + i] - c * y) % p
    return tuple(q)


def ddf_reference(f, p):
    """The (product, d) stream of the distinct-degree split of a monic
    squarefree f: h = x**(p**d) mod F by square and multiply, the block
    gcd(h - x, f) by `pf_gcd`, every block yielded, trivial or not, and f
    divided by each nontrivial one; the rest, once deg f < 2(d + 1)."""
    F, h, d, out = f, (0, 1), 0, []
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = oracles.frobenius_power_mod(h, F, p, 1)
        g = pf_gcd(pf_sub(h, (0, 1), p), f, p)
        out.append((g, d))
        if len(g) > 1:
            f = pf_exact_quotient(f, g, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def squarefree_inputs(rng, p):
    """Monic squarefree polynomials of degree 2 to 40: single random ones and
    products of several, so that blocks of one degree hold many factors."""
    out = []
    while len(out) < 12:
        parts = [rand_poly(rng, p, rng.randint(1, 8)) for _ in range(1 + len(out) % 4 * 2)]
        f = (1,)
        for part in parts:
            f = oracles.pf_mul(f, part, p)
        if len(f) - 1 > 40:
            continue
        f = tuple(x * pow(f[-1], -1, p) % p for x in f)
        df = oracles.pf_trim(k * c % p for k, c in enumerate(f))[1:]
        if len(f) > 2 and df and pf_gcd(f, df, p) == (1,):
            out.append(f)
    return out


@pytest.mark.parametrize("p", [3, 5, 13, 17])
def test_ddf_stream_matches_the_reference_step_by_step(p):
    """_ddf's (product, d) stream on seeded squarefree inputs equals
    ddf_reference's, block by block: trivial blocks, blocks after a division
    and the closing rest count too."""
    K = GF(p)
    rng = random.Random(40 * p + 1)
    trivial = after_division = 0
    for f in squarefree_inputs(rng, p):
        got = [(tuple(g), d) for g, d in _ddf(K, list(f))]
        want = ddf_reference(f, p)
        assert got == want, (p, f)
        blocks = [len(g) > 1 for g, _ in want]
        trivial += blocks.count(False)
        after_division += any(blocks[i] and any(blocks[:i]) for i in range(len(blocks)))
    assert trivial and after_division, (trivial, after_division)


# ---------------------------------------------------------------------------
# odd tabulated GF(p**m): an addition table up to q = 256, field calls past it

# every odd GF(p**m), m >= 2, with q**2 <= TABLE_LIMIT: one addition table each
TABLE_FIELDS = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2), (5, 3), (13, 2), (3, 5)]
# the kernel tests below keep the ids they had as digit-sum tests: GF(9),
# GF(25), GF(27) and GF(49) now run on addition tables, as GF(3**5), the last
# field under the gate, does; GF(3**6), GF(5**4) and GF(3**10) on field calls
ODD_EXT_FIELDS = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 5), (3, 6), (5, 4), (3, 10)]


def ext_ops(p, m):
    modulus = oracles.pf_canonical_modulus(p, m)
    return (
        lambda a, b: oracles.ext_poly_mul(a, b, p, modulus),
        lambda a, b: oracles.ext_poly_divmod(a, b, p, modulus),
        lambda a, b: oracles.ext_poly_gcd(a, b, p, modulus),
    )


def assert_tables(K):
    """Once kernels have run: up to q = 256 they built the addition tables,
    past it none."""
    tabled = K.q <= 256
    assert (K._add is not None) == (K._sums is not None) == tabled


@pytest.mark.parametrize("p,m", TABLE_FIELDS)
def test_addition_tables_match_ext_add(p, m):
    """ADD[x][y] against `ext_add` on every pair, and the field's element
    arithmetic, which reads the tables, against `ext_add` and `ext_neg`."""
    K = GF(p, m)
    add = K._add
    assert len(add) == K.q and all(len(row) == K.q for row in add)
    for x in range(K.q):
        assert add[x] == [oracles.ext_add(x, y, p) for y in range(K.q)], x
        assert K.neg_raw(x) == oracles.ext_neg(x, p)
        y = (7 * x + 3) % K.q
        assert K.add_raw(x, y) == oracles.ext_add(x, y, p)
        assert K.sub_raw(x, y) == oracles.ext_add(x, oracles.ext_neg(y, p), p)


def test_addition_table_gate(count_calls):
    """The gate is q**2 <= TABLE_LIMIT: GF(3**5) has an addition table and
    its kernels make no field call; GF(3**6) and GF(17**2) have none, and
    theirs add through Field.add_raw.  Characteristic 2, prime fields and
    untabulated fields have no addition table.  Past the gate neg_raw is
    one mul_raw by p - 1, on the exp/log tables."""
    fields = [GF(p, m) for p, m in TABLE_FIELDS + [(3, 6), (17, 2), (5, 4), (3, 10)]]
    names = ("add_raw", "sub_raw", "neg_raw", "mul_raw", "inv_raw", "pow_raw")
    calls = {name: count_calls(name, type(fields[0])) for name in names}
    for K in fields:
        for made in calls.values():
            made.clear()
        _sub(K, _divmod(K, _mul(K, [1, 2, 1], [2, 1]), [1, 1])[0], [1, 2])
        assert_tables(K)
        if K.q <= 256:
            assert not any(calls.values()), K
        else:
            assert calls["add_raw"], K
    for K in (GF(3), GF(251), GF(2, 8), GF(3, 11)):
        assert K._add is None and _add_tables(K) is None
    for K in (GF(3, 6), GF(3, 10)):
        calls["mul_raw"].clear()
        xs = range(0, K.q, 97)
        assert [K.neg_raw(x) for x in xs] == [oracles.ext_neg(x, 3) for x in xs]
        assert calls["mul_raw"] == [(K, x, 2) for x in xs]


def ext_pairs(rng, q, omul, top):
    """Zero operands, constant divisors, a divisor longer than the dividend,
    shared factors and random (mostly non-monic) leads."""

    def r(d):
        return rand_poly(rng, q, d)

    c = r(0)
    pairs = [((), r(3)), (r(top), c), (c, c), (r(2), r(top)), (r(top), r(top))]
    for _ in range(6):
        pairs.append((r(rng.randint(0, top)), r(rng.randint(0, top // 2))))
    for dg in (1, 4):
        g = r(dg)
        pairs.append((omul(g, r(top - dg)), omul(g, r(top // 2))))
    g = r(3)  # one operand divides the other
    pairs.append((omul(g, r(top // 2)), g))
    return pairs


@pytest.mark.parametrize("p,m", ODD_EXT_FIELDS)
def test_digit_sum_kernels_match_the_extension_oracle(p, m):
    """_mul, _divmod and _gcd, both ways round, and _add, _sub, _monic,
    _derivative and _shift against the `ext_*` oracles, on addition tables
    (q <= 256) or field calls."""
    K = GF(p, m)
    omul, odivmod, ogcd = ext_ops(p, m)
    modulus = oracles.pf_canonical_modulus(p, m)

    def oadd(a, b):
        n = max(len(a), len(b))
        a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
        return oracles.pf_trim([oracles.ext_add(x, y, p) for x, y in zip(a, b)])

    def oscale(a, c):
        return oracles.pf_trim([oracles.ext_mul(x, c, p, modulus) for x in a])

    def oshift(a, alpha):  # Horner's rule in x + alpha
        out = ()
        for c in reversed(a):
            out = oadd(omul(out, (alpha, 1)), (c,))
        return out

    rng = random.Random(100 * p + m)
    for a, b in ext_pairs(rng, K.q, omul, 24 if m < 6 else 10):
        assert tuple(_mul(K, a, b)) == omul(a, b)
        q, r = _divmod(K, a, b)
        assert (tuple(q), tuple(r)) == odivmod(a, b)
        assert tuple(_gcd(K, a, b)) == tuple(_gcd(K, b, a)) == ogcd(a, b)
        assert tuple(_add(K, a, b)) == oadd(a, b)
        assert tuple(_sub(K, a, b)) == oadd(a, tuple(oracles.ext_neg(y, p) for y in b))
        assert tuple(_monic(K, b)[0]) == oscale(b, oracles.ext_inv(b[-1], p, modulus))
        want = oracles.pf_trim([oracles.ext_mul(c, i % p, p, modulus) for i, c in enumerate(a)][1:])
        assert tuple(_derivative(K, a)) == want
        assert tuple(_shift(K, b, b[-1])) == oshift(b, b[-1])
    assert_tables(K)


@pytest.mark.parametrize("p,m", ODD_EXT_FIELDS)
def test_digit_sum_frobenius_steps_match_square_and_multiply(p, m):
    """m steps of one map, h -> h**q mod F, on list rows, with deg F below
    and above p so rows come from both the shift and the product, for a
    monic and a non-monic F."""
    K = GF(p, m)
    rng = random.Random(200 * p + m)
    for n in sorted({3, p + 2} if m < 6 else {3}):
        for F in (list(rand_poly(rng, K.q, n - 1)) + [1], list(rand_poly(rng, K.q, n))):
            rows = _frob_map(K, F)
            for h in ((0, 1), rand_poly(rng, K.q, n - 1)):
                got = list(h)
                for _ in range(m):
                    got = _frob_step(K, got, F, rows, F)
                assert tuple(got) == oracles.frobenius_power_mod(h, tuple(F), p, m), (n, h)


def test_untabulated_odd_extension_takes_the_generic_loop(count_calls):
    """GF(3**11) is past TABLE_LIMIT: no exp/log tables, and its kernels add
    through Field.add_raw."""
    K = GF(3, 11)
    assert K._exp is None
    omul, odivmod, _ = ext_ops(3, 11)
    adds = count_calls("add_raw", type(K))
    rng = random.Random(311)
    a, b = rand_poly(rng, K.q, 6), rand_poly(rng, K.q, 3)
    assert tuple(_mul(K, a, b)) == omul(a, b)
    q, r = _divmod(K, a, b)
    assert (tuple(q), tuple(r)) == odivmod(a, b)
    assert adds


def digits_all(k, p, m):
    """The encoding of the element of GF(p**m) whose every digit is k mod p."""
    return k % p * (p**m - 1) // (p - 1)


def pair_counts(la, lb):
    """How many (i, j) with i < la, j < lb have i + j = k, for each k."""
    return [min(k + 1, la, lb, la + lb - 1 - k) for k in range(la + lb - 1)]


@pytest.mark.parametrize("p,m", ODD_EXT_FIELDS)
def test_digit_slots_hold_the_largest_sums(p, m):
    """Terms whose every digit is p - 1, hundreds to a coefficient, in a
    product, a division and a Frobenius step.  A sum must never carry into
    the next digit."""
    K = GF(p, m)
    full, ones, n = digits_all(-1, p, m), digits_all(1, p, m), 299
    assert _mul(K, [full] * n, [1] * n) == [digits_all(-c, p, m) for c in pair_counts(n, n)]
    # quotient ones over a divisor of ones: every row subtracts ones, adding full
    a = [digits_all(c, p, m) for c in pair_counts(n, n + 1)]
    assert _divmod(K, a, [1] * (n + 1)) == ([ones] * n, [])
    F = [0] * n + [1]  # n = 13 * 23, so n rows of full sum to a nonzero
    assert _frob_step(K, [1] * n, F, [[full] * n] * n, F) == [digits_all(-n, p, m)] * n


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 2), (5, 2), (3, 5)])
def test_odd_kernels_make_no_field_calls(monkeypatch, p, m):
    """_gcd, _mul, _divmod, _add, _sub, _monic, _derivative and _shift, and
    for m > 1 m Frobenius steps on a fresh map, of degree above p (rows by
    shifts) and below it (row 1 by a power), over GF(p) and the addition
    tables of GF(9), GF(25) and GF(3**5)."""
    K = GF(p, m)
    rng = random.Random(300 + 10 * p + m)
    a, b = rand_poly(rng, K.q, 40), rand_poly(rng, K.q, 17)

    def steps(K, a, F):
        rows, h = _frob_map(K, F), _divmod(K, a, F)[1]
        return [h := _frob_step(K, h, F, rows, F) for _ in range(K.m)]

    kernels = [
        _gcd, _mul, _divmod, _add, _sub,
        lambda K, a, b: (_monic(K, a), _monic(K, b), _derivative(K, a)),
        lambda K, a, b: _shift(K, a, b[-1]),
    ]
    pairs = [(a, b), (b, a), (_mul(K, a, b), b), (a, b[:-1] + (1,)), (a, (1, 0, 1)), (a, b[-1:])]
    if m > 1:
        kernels.append(steps)
    want = [f(K, x, y) for f in kernels for x, y in pairs]

    def forbidden(*args):
        raise AssertionError("field method called from an odd-p kernel")

    for name in ("add_raw", "sub_raw", "neg_raw", "mul_raw", "inv_raw", "pow_raw"):
        monkeypatch.setattr(type(K), name, forbidden)
    assert [f(K, x, y) for f in kernels for x, y in pairs] == want
