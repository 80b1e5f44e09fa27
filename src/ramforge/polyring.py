"""Dense univariate polynomials over a finite field, with full factorization.

Coefficients are stored ascending as raw integer encodings (see galois);
the zero polynomial has an empty coefficient tuple.  Every routine here is
deterministic: equal-degree splitting walks a fixed, finite candidate list
instead of sampling, so factor lists come out the same on every run and
platform.  Irreducible factors are reported monic and sorted by (degree,
encoding).

The factor chain is classical: squarefree decomposition (with p-th root
extraction when the derivative vanishes), then distinct-degree splitting by
Frobenius powers, then equal-degree splitting by Berlekamp's trace map: the
absolute trace of a candidate modulo the part takes values in GF(p) at the
roots, and any non-constant trace splits the part (see _edf).

The raw kernels _add, _sub, _mul and _divmod choose their loop once per
call, from the field.  In characteristic 2 addition is XOR in every field.
GF(2) and the tabulated GF(2**m) also multiply and divide in the log
domain (_mul2, _divmod2): the logs of one factor's or of the divisor's
coefficients are read once per call and the log of each quotient
coefficient once per row, so the inner loops make no Field method call.
So does the Taylor shift _shift.  Other fields run the generic loops over
Field.add_raw and Field.mul_raw.  Every power, plain or mod f, is one
_power: bit_length(e) - 1 squarings through _mul and popcount(e) - 1
products by the base, none past the result.  Every caller inherits the
choice: gcds, Frobenius and modular powers, the equal-degree split, the
Polynomial operators and the Laurent expansions of funcfield, each one
Taylor shift and one long division.
"""

from operator import xor

from .config import MAX_COVER_DEGREE
from .errors import InternalCheckError, ParseError, PreconditionError, SizeBoundError
from .galois import FieldElement, _prime_divisors, _terms_text
from .record import Record

# ---------------------------------------------------------------------------
# raw kernels: coefficient lists of integer encodings, ascending, trimmed


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


# ---------------------------------------------------------------------------
# characteristic-2 kernels: addition is XOR, products in the log domain

_GF2_TABLES = ([1], [0, 0])  # GF(2): the powers and logs of its generator 1


def _log_tables(K):
    """(exp, log) of GF(2) or of a tabulated GF(2**m); None for other fields.

    The kernels add a log in [0, q-1) to a log shifted down by q - 1, so
    every index into exp lies in [-(q-1), q-1) and a negative one reads
    exp[i + q - 1] = g**i: no reduction modulo q - 1 and no second table.
    """
    if K.p != 2:
        return None
    if K.m == 1:
        return _GF2_TABLES
    if K._exp is None:
        return None
    return K._exp, K._log


def _mul2(tables, a, b):
    """a*b over a field with log tables; the longer factor's logs are read once."""
    exp, log = tables
    n = len(exp)
    if a is b:  # a square: the cross terms cancel in pairs
        out = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                out[2 * i] = exp[2 * log[x] - n]
        return out
    if len(a) < len(b):
        a, b = b, a
    la = [(i, log[x] - n) for i, x in enumerate(a) if x]
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            ly = log[y]
            for i, lx in la:
                out[i + j] ^= exp[lx + ly]
    return _trim(out)


def _divmod2(tables, a, b):
    """Long division over a field with log tables, from the top row down."""
    exp, log = tables
    n = len(exp)
    db = len(b) - 1
    a = list(a)
    if len(a) <= db:
        return [], _trim(a)
    lead = log[b[-1]]
    lb = [(i, log[y] - n) for i, y in enumerate(b[:-1]) if y]
    q = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c = a[k + db]
        if c:
            lc = log[c] - lead
            if lc < 0:
                lc += n
            q[k] = exp[lc]
            for i, ly in lb:
                a[k + i] ^= exp[lc + ly]
    return _trim(q), _trim(a[:db])


def _add(K, a, b):
    """a + b; in characteristic 2 XOR, coefficient by coefficient."""
    if len(a) < len(b):
        a, b = b, a
    return _trim([*map(xor if K.p == 2 else K.add_raw, a, b), *a[len(b):]])


def _sub(K, a, b):
    return _add(K, a, b if K.p == 2 else [K.neg_raw(y) for y in b])


def _mul(K, a, b):
    if not a or not b:
        return []
    tables = _log_tables(K)
    if tables is not None:
        return _mul2(tables, a, b)
    out = [0] * (len(a) + len(b) - 1)
    mul, add = K.mul_raw, K.add_raw
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add(out[i + j], mul(x, y))
    return _trim(out)


def _scalar(K, a, s):
    if s == 0:
        return []
    return _trim([K.mul_raw(c, s) for c in a])


def _divmod(K, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    tables = _log_tables(K)
    if tables is not None:
        return _divmod2(tables, a, b)
    a = list(a)
    db, dl = len(b) - 1, b[-1]
    inv = K.inv_raw(dl)
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        k = len(a) - 1 - db
        c = K.mul_raw(a[-1], inv)
        q[k] = c
        nc = K.neg_raw(c)
        for i, y in enumerate(b):
            if y:
                a[k + i] = K.add_raw(a[k + i], K.mul_raw(nc, y))
        _trim(a)
    return _trim(q), a


def _mod(K, a, b):
    return _divmod(K, a, b)[1]


def _monic(K, a):
    if not a:
        return [], 1
    lc = a[-1]
    if lc == 1:
        return list(a), 1
    inv = K.inv_raw(lc)
    return [K.mul_raw(c, inv) for c in a], lc


def _gcd(K, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, _mod(K, a, b)
    return _monic(K, a)[0]


def _ext_gcd(K, a, b):
    """(g, s, t) with s*a + t*b = g, g the monic gcd."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _divmod(K, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(K, s0, _mul(K, q, s1))
        t0, t1 = t1, _sub(K, t0, _mul(K, q, t1))
    if not r0:
        return [], s0, t0
    if r0[-1] != 1:
        inv = K.inv_raw(r0[-1])
        r0, s0, t0 = (_scalar(K, v, inv) for v in (r0, s0, t0))
    return r0, s0, t0


def _derivative(K, a):
    out = []
    for i in range(1, len(a)):
        out.append(K.mul_raw(a[i], i % K.p))
    return _trim(out)


def _shift(K, a, alpha):
    """a(x + alpha) = sum c_k x**k by the Taylor shift, on raw coefficients.

    Pass k divides c_k + ... + c_n x**(n-k) by x - alpha synthetically
    (c_j += alpha * c_(j+1), from the top down), leaving the remainder,
    the k-th Taylor coefficient of a at alpha, in c_k: n(n-1)/2
    multiply-adds for n coefficients."""
    c = list(a)
    if not alpha:
        return c
    n = len(c)
    tables = _log_tables(K)
    if tables is not None:
        exp, log = tables
        la = log[alpha] - len(exp)
        for k in range(n - 1):
            t = c[-1]
            for j in range(n - 2, k - 1, -1):
                t = c[j] = c[j] ^ exp[log[t] + la] if t else c[j]
        return c
    mul, add = K.mul_raw, K.add_raw
    for k in range(n - 1):
        t = c[-1]
        for j in range(n - 2, k - 1, -1):
            t = c[j] = add(c[j], mul(t, alpha)) if t else c[j]
    return c


def _frob_mod(K, h, f):
    """h**p mod f, via the additivity of x -> x**p.

    Spreading h over x**p costs (deg h)*p slots, so for p >= len(f) the
    power is taken by squaring instead.
    """
    if K.p >= len(f):
        return _power(K, h, K.p, f)
    spread = [0] * ((len(h) - 1) * K.p + 1)
    for i, c in enumerate(h):
        if c:
            spread[i * K.p] = K.frobenius_raw(c)
    return _mod(K, spread, f)


def _frob_q_mod(K, h, f):
    for _ in range(K.m):
        h = _frob_mod(K, h, f)
    return h


def _power(K, a, e, f=None):
    """a**e, reduced mod f when f is given, by binary powering from the top
    bit of e down: r = a, then r = r*r for each lower bit and r = r*a when
    it is set, so bit_length(e) - 1 squarings (through _mul, which spreads
    them in characteristic 2) and popcount(e) - 1 other products."""

    def mul(x, y):
        return _mul(K, x, y) if f is None else _mod(K, _mul(K, x, y), f)

    r = a = a if f is None else _mod(K, a, f)
    for bit in bin(e)[3:]:
        r = mul(r, r)
        if bit == "1":
            r = mul(r, a)
    return r if e else [1]


def _pth_root_poly(K, a):
    """The p-th root of a polynomial lying in F[x**p]."""
    out = []
    for i in range(0, len(a), K.p):
        out.append(K.pth_root_raw(a[i]))
    return _trim(out)


def _decode(K, k):
    digits = []
    while k:
        digits.append(k % K.q)
        k //= K.q
    return digits


def _encode(K, a):
    v = 0
    for c in reversed(a):
        v = v * K.q + c
    return v


# ---------------------------------------------------------------------------


class Polynomial:
    """A dense univariate polynomial over a fixed finite field."""

    __slots__ = ("field", "_c")

    def __init__(self, field, coeffs=()):
        raw = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.field != field:
                    raise PreconditionError("coefficient from a different field")
                raw.append(c.val)
            else:
                raw.append(field.element(c).val)
        _trim(raw)
        self.field = field
        self._c = tuple(raw)

    @classmethod
    def _raw(cls, field, coeffs):
        p = cls.__new__(cls)
        p.field = field
        p._c = tuple(coeffs)
        return p

    @classmethod
    def x(cls, field):
        return cls._raw(field, (0, 1))

    @classmethod
    def constant(cls, field, c):
        v = field.element(c).val
        return cls._raw(field, (v,) if v else ())

    @classmethod
    def monomial(cls, field, k, c=1):
        v = field.element(c).val
        if v == 0:
            return cls._raw(field, ())
        return cls._raw(field, (0,) * k + (v,))

    # -- inspection ----------------------------------------------------

    @property
    def coeffs(self):
        return tuple(FieldElement(self.field, v) for v in self._c)

    def coefficient(self, i):
        v = self._c[i] if 0 <= i < len(self._c) else 0
        return FieldElement(self.field, v)

    @property
    def degree(self):
        return len(self._c) - 1

    def is_zero(self):
        return not self._c

    def is_constant(self):
        return len(self._c) <= 1

    def is_monic(self):
        return bool(self._c) and self._c[-1] == 1

    @property
    def leading_coefficient(self):
        if not self._c:
            return FieldElement(self.field, 0)
        return FieldElement(self.field, self._c[-1])

    def encoding(self):
        """Integer key sum(raw_i * q**i); the canonical ordering of polynomials."""
        return _encode(self.field, self._c)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.field != self.field:
                raise PreconditionError("polynomials over different fields")
            return other
        if isinstance(other, (int, FieldElement)):
            return Polynomial.constant(self.field, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Polynomial._raw(self.field, _add(self.field, self._c, o._c))

    __radd__ = __add__

    def __neg__(self):
        K = self.field
        return Polynomial._raw(K, [K.neg_raw(c) for c in self._c])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Polynomial._raw(self.field, _sub(self.field, self._c, o._c))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Polynomial._raw(self.field, _mul(self.field, self._c, o._c))

    __rmul__ = __mul__

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        q, r = _divmod(self.field, self._c, o._c)
        return Polynomial._raw(self.field, q), Polynomial._raw(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e):
        if e < 0:
            raise PreconditionError("negative polynomial power")
        return Polynomial._raw(self.field, _power(self.field, self._c, e))

    def monic(self):
        return Polynomial._raw(self.field, _monic(self.field, self._c)[0])

    def derivative(self):
        return Polynomial._raw(self.field, _derivative(self.field, self._c))

    def shift(self, alpha):
        """self(x + alpha); see _shift."""
        K = self.field
        return Polynomial._raw(K, _shift(K, self._c, K.element(alpha).val))

    # -- misc -----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self._c == other._c
        )

    def __hash__(self):
        return hash((self.field.p, self.field.m, self._c))

    def __bool__(self):
        return bool(self._c)

    def to_text(self, var="T"):
        return format_polynomial(self, var)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Polynomial({self.to_text()!r} over {self.field!r})"


# ---------------------------------------------------------------------------
# factorization


class Factorization(Record):
    # unit: a FieldElement; factors: (Polynomial, int) pairs, monic, sorted
    # by (degree, encoding)
    __slots__ = ("unit", "factors")

    def __iter__(self):
        return iter(self.factors)


def gcd(a, b):
    if a.field != b.field:
        raise PreconditionError("polynomials over different fields")
    return Polynomial._raw(a.field, _gcd(a.field, a._c, b._c))


def squarefree_decompose(f):
    """Pairwise-coprime squarefree parts: f = lc * prod(g_i ** m_i).

    Parts are monic, merged when multiplicities collide, and sorted by
    (degree, encoding).
    """
    if f.is_zero():
        raise PreconditionError("cannot decompose the zero polynomial")
    K = f.field
    found = {}

    def emit(part, mult):
        if len(part) - 1 > 0:
            cur = found.get(mult)
            found[mult] = _mul(K, cur, part) if cur else part

    def rec(a, scale):
        if len(a) - 1 <= 0:
            return
        d = _derivative(K, a)
        if not d:
            rec(_pth_root_poly(K, a), scale * K.p)
            return
        c = _gcd(K, a, d)
        w = _divmod(K, a, c)[0]
        i = 1
        while len(w) - 1 > 0:
            y = _gcd(K, w, c)
            z = _divmod(K, w, y)[0]
            emit(z, i * scale)
            i += 1
            w = y
            c = _divmod(K, c, y)[0]
        if len(c) - 1 > 0:
            rec(_pth_root_poly(K, c), scale * K.p)

    rec(_monic(K, f._c)[0], 1)
    out = [(Polynomial._raw(K, part), mult) for mult, part in found.items()]
    out.sort(key=lambda t: (t[0].degree, t[0].encoding()))
    return out


def _ddf(K, f):
    """Distinct-degree split of a monic squarefree f: list of (product, d)."""
    out = []
    x = [0, 1]
    h = _mod(K, x, f)
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _frob_q_mod(K, h, f)
        g = _gcd(K, _sub(K, h, x), f)
        if len(g) - 1 > 0:
            out.append((g, d))
            f = _divmod(K, f, g)[0]
            h = _mod(K, h, f)
    if len(f) - 1 > 0:
        out.append((f, len(f) - 1))
    return out


_SHIFTS_BEFORE_CHECK = 64  # failed shifts a before T**p == T is verified


def _try_split(K, part, cand, d):
    """One split attempt by the trace of cand; a proper monic factor or None.

    T = sum(cand**(p**i) for i < m*d) mod part takes, at every root of part,
    the absolute trace of cand there, a value in GF(p).  A constant T fails
    at once.  Otherwise gcd(part, T) splits for p = 2; for odd p, some
    gcd(part, T + a) with a in GF(p) splits at the latest when -a is one of
    the trace values, and (T + a)**((p-1)/2) - 1 is tried alongside.
    """
    t = _mod(K, cand, part)
    trace = t
    for _ in range(K.m * d - 1):
        t = _frob_mod(K, t, part)
        trace = _add(K, trace, t)
    if len(trace) <= 1:
        return None
    n = len(part) - 1
    for a in range(K.p):
        if a == _SHIFTS_BEFORE_CHECK and _frob_mod(K, trace, part) != trace:
            # T is not GF(p)-valued, so part is not a product of degree-d
            # irreducibles and no shift splits it; for large p, say so now
            raise InternalCheckError(
                "equal-degree split: trace not in GF(p)",
                payload={"field": [K.p, K.m], "degree": d, "part": part},
            )
        shifted = _add(K, trace, [a])
        g = _gcd(K, part, shifted)
        if 0 < len(g) - 1 < n:
            return g
        if K.p == 2:
            continue
        half = _power(K, shifted, (K.p - 1) // 2, part)
        g = _gcd(K, part, _sub(K, half, [1]))
        if 0 < len(g) - 1 < n:
            return g
    return None  # only for a part that is not a product of degree-d irreducibles


def _candidates(K, n, j0, i0):
    """Positions (j, i) of the split candidates z**i * x**j for a degree-n part.

    1 <= j < n with p not dividing j, 0 <= i < m, from (j0, i0) on.
    """
    for j in range(j0, n):
        if j % K.p:
            for i in range(i0 if j == j0 else 0, K.m):
                yield j, i


def _edf(K, f, d):
    """All monic irreducible factors of a squarefree f, each of degree d.

    A part of degree n = k*d (k >= 2) is split by the first candidate
    z**i * x**j (encoding p**i for z**i; 1 <= j < n, p not dividing j; j
    outer, i inner) whose trace modulo the part is not constant; see
    _try_split.  Such a candidate exists: the trace is GF(p)-linear, it
    maps K[x]/(part) onto GF(p)**k and Tr(c**p) = Tr(c), so the traces of
    the candidates together with the constants span that image, which is
    more than the constants.  A part therefore splits within m*(n-1)
    attempts.  The candidates that failed on a part have a constant trace
    on each of its factors, so both factors resume the walk at the
    candidate that split it.  A part the walk cannot split, or a factor
    found twice, means f was not a squarefree product of degree-d
    irreducibles and raises InternalCheckError.
    """
    out = []
    stack = [(f, 1, 0)]
    while stack:
        part, j0, i0 = stack.pop()
        n = len(part) - 1
        if n == d:
            if part in out:
                raise InternalCheckError(
                    "equal-degree split found a factor twice",
                    payload={"field": [K.p, K.m], "degree": d, "factor": part},
                )
            out.append(part)
            continue
        for j, i in _candidates(K, n, j0, i0):
            g = _try_split(K, part, [0] * j + [K.p**i], d)
            if g is not None:
                stack.append((g, j, i))
                stack.append((_divmod(K, part, g)[0], j, i))
                break
        else:
            raise InternalCheckError(
                "equal-degree split ran out of candidates",
                payload={"field": [K.p, K.m], "degree": d, "part": part},
            )
    return out


def factor(f):
    """Complete factorization into monic irreducibles times the unit."""
    if f.is_zero():
        raise PreconditionError("cannot factor the zero polynomial")
    K = f.field
    unit = f.leading_coefficient
    pieces = []
    for g, mult in squarefree_decompose(f):
        for prod, d in _ddf(K, list(g._c)):
            for irr in _edf(K, prod, d):
                pieces.append((Polynomial._raw(K, irr), mult))
    pieces.sort(key=lambda t: (t[0].degree, t[0].encoding()))
    fac = Factorization(unit=unit, factors=tuple(pieces))
    return fac


def invert_mod(a, f):
    """The inverse of a modulo f; requires gcd(a, f) = 1."""
    K = a.field
    g, s, _ = _ext_gcd(K, a._c, f._c)
    if len(g) - 1 != 0:
        raise PreconditionError("element not invertible modulo f")
    inv0 = K.inv_raw(g[0])
    return Polynomial._raw(K, _mod(K, _scalar(K, s, inv0), f._c))


def roots(f):
    """Distinct roots in the coefficient field, sorted by encoding."""
    rs = []
    K = f.field
    for g, _ in factor(f).factors:
        if g.degree == 1:
            rs.append(FieldElement(K, K.neg_raw(g._c[0])))
    rs.sort(key=lambda r: r.val)
    return rs


def _least_root(f):
    """The encoding-minimal root of f in its own field, or None: the one
    canonical root, of a place and of a subfield modulus (galois.embed).
    Beyond degree 1, `roots` runs once per f and its field keeps the root."""
    K = f.field
    if f.degree == 1:
        return FieldElement(K, K.mul_raw(K.neg_raw(f._c[0]), K.inv_raw(f._c[1])))
    if f._c not in K._least_roots:
        K._least_roots[f._c] = next(iter(roots(f)), None)
    return K._least_roots[f._c]


def is_irreducible(f):
    """Rabin's criterion via Frobenius powers.

    A polynomial of degree >= 2 with zero derivative lies in K[x**p]; over a
    finite (hence perfect) field it is the p-th power of a polynomial of
    positive degree, so it is rejected before any Frobenius step.
    """
    if f.degree < 1:
        return False
    K = f.field
    n = f.degree
    if n == 1:
        return True
    if not _derivative(K, f._c):
        return False
    fm = _monic(K, f._c)[0]
    x = [0, 1]
    checkpoints = {n // ell for ell in _prime_divisors(n)}
    h = _mod(K, x, fm)
    for i in range(1, n + 1):
        h = _frob_q_mod(K, h, fm)
        if i in checkpoints:
            g = _gcd(K, _sub(K, h, x), fm)
            if len(g) - 1 != 0:
                return False
        if i == n:
            return h == _mod(K, x, fm)
    return False  # pragma: no cover


def irreducibles(field, d):
    """The monic irreducibles of degree d >= 1, in encoding order.

    The first q candidates are T^d + c.  For d >= 2 with p | d their
    derivative vanishes, so each is a p-th power and the walk starts after
    them.
    """
    base = field.q**d
    start = field.q if d >= 2 and d % field.p == 0 else 0
    for j in range(start, base):
        f = Polynomial._raw(field, _decode(field, base + j))
        if is_irreducible(f):
            yield f


def _trace(K, a):
    """The absolute trace a + a**p + ... + a**(p**(m-1)), an encoding in GF(p)."""
    t = x = a
    for _ in range(K.m - 1):
        x = K.frobenius_raw(x)
        t = K.add_raw(t, x)
    return t


def irreducible_poly(field, d):
    """The canonical (encoding-minimal) monic irreducible of degree d.

    For p = 2 and d = 2 it follows from the trace.  Every T^2 + c is a
    square, and T^2 + T + c is irreducible iff Tr(c) = 1 (the Artin-Schreier
    criterion; Lidl and Niederreiter, Finite Fields, Ch. 3).  Tr is
    GF(2)-linear, so Tr vanishes on every encoding below 2**k when Tr(z**i) = 0
    for all i < k: the least c with Tr(c) = 1 is z**k, encoding 2**k, for the
    least such k.  One Rabin test confirms T^2 + T + z**k.
    """
    if d < 1:
        raise PreconditionError("degree must be >= 1")
    if field.p == 2 and d == 2:
        for k in range(field.m):
            if _trace(field, 2**k) == 1:
                f = Polynomial._raw(field, (2**k, 1, 1))
                if is_irreducible(f):
                    return f
                break
        raise InternalCheckError(
            "trace criterion gave no irreducible T^2+T+c",
            payload={"field": [field.p, field.m]},
        )
    return next(irreducibles(field, d))


# ---------------------------------------------------------------------------
# text form: the terms c*X^k in descending degree, by galois._terms_text


def format_polynomial(f, var="T"):
    K = f.field
    return _terms_text([(i, FieldElement(K, v)) for i, v in enumerate(f._c)][::-1], var)


def _tokenize(s):
    toks = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(s) and s[j].isdigit():
                j += 1
            try:
                value = int(s[i:j])
            except ValueError:  # past the interpreter's int_max_str_digits
                raise SizeBoundError(
                    f"integer at position {i} has too many digits"
                ) from None
            toks.append(("INT", value, i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(s) and s[j].isalpha():
                j += 1
            toks.append(("NAME", s[i:j], i))
            i = j
            continue
        if ch in "+-*^()":
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}")
    toks.append(("END", None, len(s)))
    return toks


def _check_parsed_degree(degree, pos):
    """Reject a product or power of degree above the cap before building it."""
    if degree > MAX_COVER_DEGREE:
        raise SizeBoundError(
            f"degree {degree} at position {pos} exceeds the cap {MAX_COVER_DEGREE}"
        )


class _PolyParser:
    def __init__(self, text, field, var):
        self.toks = _tokenize(text)
        self.pos = 0
        self.field = field
        self.var = var

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind} at position {tok[2]}")
        self.pos += 1
        return tok

    def parse(self):
        out = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise ParseError(f"trailing input at position {tok[2]}")
        return out

    def expr(self):
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        acc = self.term()
        if sign < 0:
            acc = -acc
        while self.peek()[0] in "+-":
            op = self.take()[0]
            t = self.term()
            acc = acc - t if op == "-" else acc + t
        return acc

    def term(self):
        acc = self.factor()
        while self.peek()[0] == "*":
            pos = self.take()[2]
            rhs = self.factor()
            _check_parsed_degree(acc.degree + rhs.degree, pos)
            acc = acc * rhs
        return acc

    def factor(self):
        base = self.base()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take("INT")
            if tok[1] < 0:
                raise ParseError(f"negative exponent at position {tok[2]}")
            _check_parsed_degree(base.degree * tok[1], tok[2])
            return base ** tok[1]
        return base

    def base(self):
        tok = self.peek()
        if tok[0] == "INT":
            self.take()
            return Polynomial.constant(self.field, tok[1] % self.field.p)
        if tok[0] == "NAME":
            self.take()
            if tok[1] == self.var:
                return Polynomial.x(self.field)
            if tok[1] == "z" and self.field.m > 1:
                return Polynomial.constant(self.field, self.field.gen)
            raise ParseError(f"unknown name {tok[1]!r} at position {tok[2]}")
        if tok[0] == "(":
            self.take()
            inner = self.expr()
            self.take(")")
            return inner
        raise ParseError(f"unexpected token at position {tok[2]}")


def parse_polynomial(text, field, var="T"):
    if not text.strip():
        raise ParseError("empty polynomial text")
    return _PolyParser(text, field, var).parse()
