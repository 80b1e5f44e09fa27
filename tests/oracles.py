"""Independent reference computations for the test suite.

Everything here is written against integer bit tricks (GF(2) polynomials
as ints), naive enumeration, or the package's public operators along a
different route, sharing no algorithmic structure with the code under
test.  Expected values frozen into the test modules were
produced by these functions.
"""

import functools
import itertools

from ramforge.errors import PreconditionError
from ramforge.funcfield import (
    Divisor,
    Place,
    RationalFunction,
    laurent_expand,
    rr_basis,
    valuation,
)
from ramforge.galois import GF, embed
from ramforge.linalg import RelationTracker
from ramforge.polyring import Polynomial, gcd, irreducibles
from ramforge.pseudotame import v_dx

# ---------------------------------------------------------------------------
# GF(2)[w] encoded as python ints: bit k is the coefficient of w^k


def clmul(a, b):
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def cldeg(a):
    return a.bit_length() - 1


def clmod(a, b):
    if b == 0:
        raise ZeroDivisionError
    db = cldeg(b)
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def clgcd(a, b):
    while b:
        a, b = b, clmod(a, b)
    return a


def bits_is_square(n):
    # squares over GF(2) have only even exponents
    k = 1
    mask = 0
    while (1 << k) <= n:
        mask |= 1 << k
        k += 2
    return n & mask == 0


@functools.lru_cache(maxsize=None)
def _shift_row(i):
    # (w+1)^i over GF(2)
    if i == 0:
        return 1
    return clmul(_shift_row(i - 1), 0b11)


def bits_shift_one(n):
    """n(w) -> n(w+1) over GF(2)."""
    out = 0
    i = 0
    while n >> i:
        if (n >> i) & 1:
            out ^= _shift_row(i)
        i += 1
    return out


def bits_reverse(n):
    """w^deg * n(1/w): the coefficient list reversed."""
    d = cldeg(n)
    out = 0
    for i in range(d + 1):
        if (n >> i) & 1:
            out |= 1 << (d - i)
    return out


# ---------------------------------------------------------------------------
# truncated Laurent expansions over GF(2) as window bitmasks
#
# A mask covers exponents [lo, hi); bit (k - lo) is the coefficient of u^k.

WINDOW_LO = -24
WINDOW_HI = 16


def _series_inv_bits(d, nterms):
    # power series inverse of d (bit0 set) to nterms terms
    inv = 0
    acc = 0  # low nterms bits of d * inv
    for k in range(nterms):
        want = 1 if k == 0 else 0
        have = (acc >> k) & 1
        if have != want:
            inv |= 1 << k
            acc ^= d << k
    return inv & ((1 << nterms) - 1)


def expand_mask(n, d, place, lo=WINDOW_LO, hi=WINDOW_HI):
    """Window bitmask of the expansion of n/d at place in {0, 1, inf}."""
    if n == 0:
        return 0
    if place == "one":
        return expand_mask(bits_shift_one(n), bits_shift_one(d), "zero", lo, hi)
    if place == "inf":
        vn, vd = cldeg(d), cldeg(n)  # valuations at infinity
        un, ud = bits_reverse(n), bits_reverse(d)
        v = vn - vd
    else:
        vn = (n & -n).bit_length() - 1
        vd = (d & -d).bit_length() - 1
        un, ud = n >> vn, d >> vd
        v = vn - vd
    nterms = hi - v
    if nterms <= 0:
        return 0
    series = clmul(un, _series_inv_bits(ud, nterms)) & ((1 << nterms) - 1)
    mask = 0
    for i in range(nterms):
        if (series >> i) & 1:
            k = v + i
            if lo <= k < hi:
                mask |= 1 << (k - lo)
    return mask


def tame_from_mask(mask, lo=WINDOW_LO):
    """First nonconstant exponent is odd.  None when nothing nonconstant
    shows inside the window (caller decides what that means)."""
    if 0 >= lo:
        mask &= ~(1 << (0 - lo))
    if mask == 0:
        return None
    k = (mask & -mask).bit_length() - 1 + lo
    return k % 2 == 1


# ---------------------------------------------------------------------------
# brute-force bounded z-search: exists z with x + z^4 tame at the place?

Z_NUM_DEG = 6
Z_DEN_DEG = 6


def _spread4(mask, lo=WINDOW_LO, hi=WINDOW_HI):
    # mask of z -> mask of z^4 over GF(2): exponents multiply by 4
    out = 0
    for i in range(hi - lo):
        if (mask >> i) & 1:
            k = 4 * (i + lo)
            if lo <= k < hi:
                out |= 1 << (k - lo)
            elif k >= hi:
                break
    return out


@functools.lru_cache(maxsize=None)
def quartic_masks(place):
    """Deduplicated window masks of z^4 over all z with bounded degrees."""
    seen = set()
    for zn in range(1 << (Z_NUM_DEG + 1)):
        for zd in range(1, 1 << (Z_DEN_DEG + 1)):
            zmask = expand_mask(zn, zd, place)
            seen.add(_spread4(zmask))
    return tuple(sorted(seen))


def exists_quartic_taming(xn, xd, place):
    """True iff some bounded z makes x + z^4 tame at the place.

    The window is wide enough to be exact: d(x + z^4) = dx, so when the
    sum is tame its first odd exponent equals v(dx) + 1, which for the
    swept degree range always lies inside the window.
    """
    xmask = expand_mask(xn, xd, place)
    for zm in quartic_masks(place):
        if tame_from_mask(xmask ^ zm):
            return True
    return False


def exists_quartic_taming_slow(xn, xd, place, zn_max=Z_NUM_DEG, zd_max=Z_DEN_DEG):
    """Same search without mask deduplication (cross-check for the fast path)."""
    xmask = expand_mask(xn, xd, place)
    for zn in range(1 << (zn_max + 1)):
        for zd in range(1, 1 << (zd_max + 1)):
            zm = _spread4(expand_mask(zn, zd, place))
            if tame_from_mask(xmask ^ zm):
                return True
    return False


def tame_at_oracle(xn, xd, place):
    """Tameness of x itself straight off the window mask."""
    return bool(tame_from_mask(expand_mask(xn, xd, place)))


# ---------------------------------------------------------------------------
# naive prime-field polynomial arithmetic (coefficient tuples, ascending)


def pf_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pf_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return pf_trim(out)


def pf_mod(a, b, p):
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) - 1 >= db and pf_trim(a):
        a = list(pf_trim(a))
        if len(a) - 1 < db:
            break
        shift = len(a) - 1 - db
        c = a[-1] * inv_lead % p
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - c * y) % p
    return pf_trim(a)


def _pf_all_monic(p, deg):
    if deg == 0:
        yield (1,)
        return
    for code in range(p**deg):
        coeffs = []
        v = code
        for _ in range(deg):
            coeffs.append(v % p)
            v //= p
        yield tuple(coeffs) + (1,)


def pf_is_irreducible(coeffs, p):
    """Trial division by every monic polynomial up to half the degree."""
    coeffs = pf_trim(coeffs)
    deg = len(coeffs) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for g in _pf_all_monic(p, d):
            if not pf_mod(coeffs, g, p):
                return False
    return True


def pf_eval(coeffs, v, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * v + c) % p
    return acc


def pf_exp_log(p, m, modulus):
    """exp/log tables of GF(p)[T]/(modulus) by walking whole cycles.

    Elements are encoded as sum(c_i * p**i).  The generator is the smallest
    encoding g >= 2 whose powers reach all q - 1 nonzero elements; exp[i]
    encodes g**i and log[exp[i]] = i (log[0] = 0).
    """
    q = p**m

    def decode(v):
        digits = []
        for _ in range(m):
            digits.append(v % p)
            v //= p
        return pf_trim(digits)

    def encode(c):
        return sum(x * p**i for i, x in enumerate(c))

    for g in range(2, q):
        gd = decode(g)
        exp = [1]
        e = gd
        while e != (1,):
            exp.append(encode(e))
            e = pf_mod(pf_mul(e, gd, p), modulus, p)
        if len(exp) == q - 1:
            break
    log = [0] * q
    for i, v in enumerate(exp):
        log[v] = i
    return exp, log


def cldivmod(a, b):
    """Quotient and remainder of GF(2)[w] ints, by shift-xor."""
    if b == 0:
        raise ZeroDivisionError
    db = cldeg(b)
    q = 0
    while a and cldeg(a) >= db:
        shift = cldeg(a) - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


# ---------------------------------------------------------------------------
# polynomials over GF(p**m) = GF(p)[T]/(modulus), coefficients as encodings
# sum(c_i * p**i), with field products reduced digit-wise by pf_mul/pf_mod


def pf_canonical_modulus(p, m):
    """Digits of the encoding-minimal monic irreducible of degree m."""
    for code in range(p**m):
        digits = []
        v = code
        for _ in range(m):
            digits.append(v % p)
            v //= p
        coeffs = tuple(digits) + (1,)
        if pf_is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("no irreducible found")


def ext_add(a, b, p):
    out, shift = 0, 1
    while a or b:
        out += (a % p + b % p) % p * shift
        a //= p
        b //= p
        shift *= p
    return out


def ext_neg(a, p):
    out, shift = 0, 1
    while a:
        out += (-a) % p * shift
        a //= p
        shift *= p
    return out


def ext_mul(a, b, p, modulus):
    m = len(modulus) - 1

    def decode(v):
        digits = []
        for _ in range(m):
            digits.append(v % p)
            v //= p
        return pf_trim(digits)

    prod = pf_mod(pf_mul(decode(a), decode(b), p), modulus, p)
    return sum(c * p**i for i, c in enumerate(prod))


def ext_inv(a, p, modulus):
    """a**(q-2) by square and multiply."""
    e = p ** (len(modulus) - 1) - 2
    r = 1
    while e:
        if e & 1:
            r = ext_mul(r, a, p, modulus)
        a = ext_mul(a, a, p, modulus)
        e >>= 1
    return r


def ext_poly_mul(a, b, p, modulus):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = ext_add(out[i + j], ext_mul(x, y, p, modulus), p)
    return pf_trim(out)


def ext_poly_divmod(a, b, p, modulus):
    """Schoolbook long division over GF(p**m)."""
    a = list(pf_trim(a))
    inv_lead = ext_inv(b[-1], p, modulus)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        c = ext_mul(a[-1], inv_lead, p, modulus)
        q[shift] = c
        for i, y in enumerate(b):
            prod = ext_mul(c, y, p, modulus)
            a[shift + i] = ext_add(a[shift + i], ext_neg(prod, p), p)
        a = list(pf_trim(a))
    return pf_trim(q), tuple(a)


def ext_poly_gcd(a, b, p, modulus):
    """The monic gcd over GF(p**m), by Euclid."""
    a, b = pf_trim(a), pf_trim(b)
    while b:
        a, b = b, ext_poly_divmod(a, b, p, modulus)[1]
    if not a:
        return ()
    inv = ext_inv(a[-1], p, modulus)
    return tuple(ext_mul(c, inv, p, modulus) for c in a)


def frobenius_power_mod(a, f, p, m):
    """a**(p**m) mod f by square and multiply, on coefficient tuples: pf_mul
    and pf_mod over GF(p), ext_poly_mul and ext_poly_divmod over GF(p**m)
    with its canonical modulus."""
    if m == 1:
        def mulmod(x, y):
            return pf_mod(pf_mul(x, y, p), f, p)
    else:
        modulus = pf_canonical_modulus(p, m)

        def mulmod(x, y):
            return ext_poly_divmod(ext_poly_mul(x, y, p, modulus), f, p, modulus)[1]

    e, r, base = p**m, (1,), mulmod(tuple(a), (1,))
    while e:
        if e & 1:
            r = mulmod(r, base)
        base = mulmod(base, base)
        e >>= 1
    return r


def ext_has_no_root(f, p, m):
    """Whether f over GF(p**m) has no root: gcd(x**q - x, f) = 1, x**q mod f
    by frobenius_power_mod.  For deg f in {2, 3} that is irreducibility."""
    modulus = pf_canonical_modulus(p, m)
    h = list(frobenius_power_mod((0, 1), f, p, m)) + [0, 0]
    h[1] = ext_add(h[1], ext_neg(1, p), p)
    return ext_poly_gcd(h, f, p, modulus) == (1,)


# ---------------------------------------------------------------------------
# values and products of ramforge objects, by their public operators


def horner(f, r):
    """f(r) for a Polynomial f and a FieldElement r."""
    acc = r.field.element(0)
    for c in reversed(f.coeffs):
        acc = acc * r + c
    return acc


def compose(f, g):
    """f(g) for Polynomials f and g over one field, by Horner's rule."""
    acc = Polynomial(g.field)
    for c in reversed(f.coeffs):
        acc = acc * g + c
    return acc


def factorization_product(fac):
    """unit * prod g^e of a Factorization."""
    out = Polynomial.constant(fac.unit.field, fac.unit)
    for g, e in fac.factors:
        out = out * g**e
    return out


# ---------------------------------------------------------------------------
# Laurent expansions by a power-series inverse in Field calls, with the
# infinite place read through x = 1/u


def series_quotient(K, num, den, prec):
    """(start, prec raw coefficients) of num/den in u, for raw ascending
    coefficient lists: the inverse of den term by term, then one product."""
    a = 0
    while a < len(num) and num[a] == 0:
        a += 1
    if a == len(num):
        return 0, [0] * prec
    b = 0
    while den[b] == 0:
        b += 1
    n = num[a:]
    d = den[b:]
    inv0 = K.inv_raw(d[0])
    inv = [inv0]
    for k in range(1, prec):
        s = 0
        for j in range(1, min(k, len(d) - 1) + 1):
            s = K.add_raw(s, K.mul_raw(d[j], inv[k - j]))
        inv.append(K.mul_raw(K.neg_raw(s), inv0))
    out = []
    for k in range(prec):
        s = 0
        for j in range(min(k, len(n) - 1) + 1):
            s = K.add_raw(s, K.mul_raw(n[j], inv[k - j]))
        out.append(s)
    return a - b, out


def laurent_reference(f, place, prec):
    """(start, coefficient field, prec raw coefficients) of f at place.

    Infinity: f(1/u) = u^(deg den - deg num) rev(num)/rev(den).  A finite
    place of degree d: the place's least root alpha in GF(q^d), found by
    trying every element, and the Taylor shift x -> u + alpha there.
    """
    K = f.field
    if place.is_infinite:
        start, raw = series_quotient(
            K, list(reversed(f.num._c)), list(reversed(f.den._c)), prec
        )
        return start + f.den.degree - f.num.degree, K, raw
    R = GF(K.p, K.m * place.degree)

    def lift(poly):
        return Polynomial(R, [embed(K, R, c) for c in poly.coeffs])

    alpha = next(
        r for r in map(R.element, range(R.q)) if horner(lift(place.poly), r) == 0
    )
    u_plus_alpha = Polynomial(R, [alpha, 1])
    start, raw = series_quotient(
        R,
        list(compose(lift(f.num), u_plus_alpha)._c),
        list(compose(lift(f.den), u_plus_alpha)._c),
        prec,
    )
    return start, R, raw


# ---------------------------------------------------------------------------
# the quartic decomposition by the two-level rational-function route:
# every intermediate result is a reduced RationalFunction, and y is split
# again at every step


def even_odd_split(x):
    """x = A^2 + B^2 * w: the coordinates of x in the F^2-basis {1, w}."""
    K = x.field
    N = (x.num * x.den).coeffs
    A = Polynomial(K, [c.pth_root() for c in N[0::2]])
    B = Polynomial(K, [c.pth_root() for c in N[1::2]])
    return RationalFunction(A, x.den), RationalFunction(B, x.den)


def split_wrt(x, y):
    """x = s^2 + r^2 * y for y not a square: (s, r), from w = (y + c^2)/e^2."""
    A, B = even_odd_split(x)
    c, e = even_odd_split(y)
    r = B / e
    return A + r * c, r


def quartic_coords(x, y):
    """(x0, x1, x2, x3) with x = x0^4 + x1^4 y + x2^4 y^2 + x3^4 y^3."""
    s, r = split_wrt(x, y)
    x0, x2 = split_wrt(s, y)
    x1, x3 = split_wrt(r, y)
    return x0, x1, x2, x3


def a_invariant(x, y):
    """a(x, y) = ((x1^2 x3^2 + x2^4) y) / (x3^4 y^2 + x1^4)."""
    _, x1, x2, x3 = quartic_coords(x, y)
    return ((x1 * x3) ** 2 + x2**4) * y / (x3**4 * y**2 + x1**4)


# ---------------------------------------------------------------------------
# squarefree parts by the unit-step loop: one gcd and two divisions per
# multiplicity, up to the largest, whether or not a part has it


def squarefree_reference(f):
    """[(part, multiplicity)] of a nonzero f, as squarefree_decompose gives
    them: monic, merged by multiplicity, sorted by (degree, encoding)."""
    K = f.field
    found = {}

    def pth_root(a):
        return Polynomial(K, [c.pth_root() for c in a.coeffs[:: K.p]])

    def rec(a, scale):
        if a.degree <= 0:
            return
        d = a.derivative()
        if d.is_zero():
            rec(pth_root(a), scale * K.p)
            return
        c = gcd(a, d)
        w, i = a // c, 1
        while w.degree > 0:
            y = gcd(w, c)
            z = w // y
            if z.degree > 0:
                found[i * scale] = found.get(i * scale, 1) * z
            w, c, i = y, c // y, i + 1
        rec(pth_root(c), scale * K.p)

    rec(f.monic(), 1)
    return sorted(
        ((part, mult) for mult, part in found.items()),
        key=lambda t: (t[0].degree, t[0].encoding()),
    )


# ---------------------------------------------------------------------------
# the place below P through the inverse of h mod P: the first relation
# among the powers of w = g/h mod P


def inverse_mod(a, f):
    """a^-1 mod f by the extended Euclidean algorithm; gcd(a, f) = 1."""
    r0, r1 = f, a % f
    s0, s1 = Polynomial(f.field), Polynomial.constant(f.field, 1)
    while not r1.is_zero():  # s_i * a = r_i mod f
        q, r = divmod(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
    if r0.degree != 0:
        raise PreconditionError("not invertible")
    return s0 * r0.leading_coefficient.inverse() % f


def pushforward_reference(cover, P):
    """pushforward_place(cover, P), from the minimal polynomial of
    w = g * (h^-1 mod P)."""
    K = cover.field
    if P.is_infinite:
        return Place.infinite(K)
    p = P.poly
    h = cover.den % p
    if h.is_zero():
        return Place.infinite(K)
    w = cover.num * inverse_mod(h, p) % p
    tracker = RelationTracker(K, p.degree)
    power = Polynomial.constant(K, 1)
    while True:
        combo = tracker.add([power.coefficient(i).val for i in range(p.degree)])
        if combo is not None:
            return Place(K, Polynomial(K, combo))
        power = power * w % p


# ---------------------------------------------------------------------------
# square completion with its exact-order element found by a search of the
# Riemann-Roch basis of L(R - nP)


def _reservoir_places(K, forbidden):
    """Degree-1 finite places by encoding, infinity, then higher degrees."""
    linear = (Place.from_root(K.element(v)) for v in range(K.q))
    higher = (
        Place(K, f) for d in itertools.count(2) for f in irreducibles(K, d)
    )
    for P in itertools.chain(linear, [Place.infinite(K)], higher):
        if P not in forbidden:
            yield P


def square_completion_reference(x, P, Q):
    """square_completion(x, P, Q) for inputs it accepts, with the default
    pole budget: each z0 is the first element of rr_basis(R - nP) with
    valuation exactly n at P."""
    K = x.field
    j_odd = v_dx(x, P) + 1
    stream = _reservoir_places(K, {P, Q})
    reservoir = []
    z = RationalFunction.constant(K, 0)
    for _ in range(j_odd + 2):
        terms = laurent_expand(x + z * z, P, j_odd + 1).terms()
        j, coeff = next((k, c) for k, c in terms if k != 0)
        if j % 2 == 1:
            return z if not z.is_zero() else RationalFunction.constant(K, 1)
        n = j // 2
        while sum(pl.degree for pl in reservoir) < n:
            reservoir.append(next(stream))
        R = Divisor(K, [(pl, 1) for pl in reservoir])
        basis = rr_basis(R - Divisor(K, [(P, n)]))
        z0 = next(b for b in basis if valuation(b, P) == n)
        b = laurent_expand(z0, P, 1).coeffs[0]
        z = z + z0 * (coeff.pth_root() / b)
    raise AssertionError("no odd exponent reached")
