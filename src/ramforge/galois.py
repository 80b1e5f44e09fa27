"""Prime and extension finite fields with a canonical choice of modulus.

Fields come from :func:`field_create` (alias :func:`GF`) and are cached, so
two requests for the same order hand back the same object.  An extension
field GF(p**m) is built as GF(p)[T]/(f) where f is the *canonical* modulus:
among all monic irreducibles of degree m over GF(p) it minimizes the integer
encoding sum(c_i * p**i) with coefficients lifted to [0, p).  It is taken
from polyring.irreducible_poly over the prime field, the one enumeration of
irreducibles in the library.

Elements are stored as a single integer in [0, q) under the same encoding,
i.e. the base-p digits of the integer are the coordinates in the power basis
1, z, ..., z**(m-1) of the generator z = T mod f.  A convenient consequence:
prime-subfield elements have the same encoding in every field of the same
characteristic.

Multiplication in extension fields of order up to the table limit runs on
exp/log tables built from the smallest primitive element (smallest in the
integer encoding, so the tables are reproducible).  Set-up finds it by the
order test: g generates the multiplicative group iff g**((q-1)/l) != 1 for
every prime l dividing q - 1.  Multiplication by g is GF(p)-linear, so the
powers of g then follow from two small tables of products with g (one for
the low half of the digits, one for the high half) by lookups and one
addition each; see Field._build_tables.  For odd p and q**2 <= TABLE_LIMIT
an addition table, built digit by digit, comes first.  Larger fields fall
back to digit arithmetic, which is slow but exact; in characteristic 2 the
digits are bits, and a product is carry-less on the integer encodings.
"""

from .config import MAX_FIELD_SIZE, TABLE_LIMIT
from .errors import PreconditionError, SizeBoundError

_FIELD_CACHE = {}


def _is_prime(n):
    """Deterministic Miller-Rabin, valid far beyond the field size bound."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_divisors(n):
    """The distinct prime divisors of n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class Field:
    """A finite field GF(p**m).  Use field_create, not the constructor."""

    def __init__(self, p, m):
        self.p = p
        self.m = m
        self.q = p**m
        self._least_roots = {}  # polyring._least_root: raw coefficients -> root
        self._mod_digits = None  # modulus coefficients, ascending, length m+1
        self._mod_bits = None  # for p = 2: the modulus as a bit vector
        self._exp = None
        self._log = None
        self._add = None  # odd p, q**2 <= TABLE_LIMIT: _add[x][y] encodes x + y
        self._sums = None  # polyring._add_tables, built on first use
        self._digits = None  # polyring._digit_tables, built on first use
        if m > 1:
            from .polyring import irreducible_poly

            self._mod_digits = irreducible_poly(field_create(p, 1), m)._c
            if p == 2:
                self._mod_bits = sum(c << i for i, c in enumerate(self._mod_digits))
            if self.q <= TABLE_LIMIT:
                self._build_tables()

    # -- construction -------------------------------------------------

    @property
    def modulus(self):
        """The canonical modulus as a polynomial over the prime field (None if m == 1)."""
        if self.m == 1:
            return None
        from .polyring import Polynomial

        return Polynomial(field_create(self.p, 1), tuple(self._mod_digits))

    def element(self, v):
        if isinstance(v, FieldElement):
            if v.field is not self:
                raise PreconditionError("element belongs to a different field")
            return v
        v = int(v)
        if self.m == 1:
            return FieldElement(self, v % self.p)
        if not 0 <= v < self.q:
            raise PreconditionError(
                f"encoding {v} out of range for field of order {self.q}"
            )
        return FieldElement(self, v)

    @property
    def zero(self):
        return FieldElement(self, 0)

    @property
    def gen(self):
        """The residue class of T (for m == 1, the element 1)."""
        return FieldElement(self, self.p if self.m > 1 else 1)

    def coeffs_of(self, v):
        out = []
        for _ in range(self.m):
            out.append(v % self.p)
            v //= self.p
        return out

    # -- raw integer arithmetic ---------------------------------------

    def add_raw(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if self._add:
            return self._add[a][b]
        s, shift, p = 0, 1, self.p
        while a or b:
            s += ((a + b) % p) * shift
            a //= p
            b //= p
            shift *= p
        return s

    def neg_raw(self, a):
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        if self._add:  # -a = (p - 1) * a, on the exp/log tables
            return self.mul_raw(a, self.p - 1)
        s, shift, p = 0, 1, self.p
        while a:
            s += ((p - a % p) % p) * shift
            a //= p
            shift *= p
        return s

    def sub_raw(self, a, b):
        return self.add_raw(a, self.neg_raw(b))

    def mul_raw(self, a, b):
        if self.m == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return self._mul_digits(a, b)

    def inv_raw(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.m == 1:
            return pow(a, -1, self.p)
        if self._exp is not None:
            return self._exp[(-self._log[a]) % (self.q - 1)]
        return self.pow_raw(a, self.q - 2)

    def pow_raw(self, a, e):
        if e < 0:
            return self.pow_raw(self.inv_raw(a), -e)
        if self.m == 1:
            return pow(a, e, self.p)
        if a == 0:
            return 0 if e else 1
        if self._exp is not None:
            return self._exp[self._log[a] * e % (self.q - 1)]
        r = a  # from the top bit of e down, as polyring._power
        for bit in bin(e)[3:]:
            r = self._mul_digits(r, r)
            if bit == "1":
                r = self._mul_digits(r, a)
        return r if e else 1

    def frobenius_raw(self, a):
        return self.pow_raw(a, self.p)

    def pth_root_raw(self, a):
        # the inverse of x -> x**p; Frobenius has order m
        return self.pow_raw(a, self.p ** (self.m - 1))

    def _mul_digits(self, a, b):
        if self.p == 2:
            return self._mul_bits(a, b)
        p, m = self.p, self.m
        da = self.coeffs_of(a)
        db = self.coeffs_of(b)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        mod = self._mod_digits
        for k in range(len(prod) - 1, m - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for j in range(m):
                    prod[k - m + j] = (prod[k - m + j] - c * mod[j]) % p
        v, shift = 0, 1
        for c in prod[:m]:
            v += c * shift
            shift *= p
        return v

    def _mul_bits(self, a, b):
        """a*b in GF(2**m) by a carry-less product, reduced by the modulus bits.

        The encodings are the coefficient bit vectors, so the product is
        shift and XOR, and each bit at or above m is cleared, from the top
        down, by XOR with the modulus shifted under it.
        """
        prod = 0
        while b:
            if b & 1:
                prod ^= a
            a <<= 1
            b >>= 1
        mod, m = self._mod_bits, self.m
        top = prod.bit_length() - 1
        while top >= m:
            prod ^= mod << (top - m)
            top = prod.bit_length() - 1
        return prod

    def _build_tables(self):
        """exp/log tables from the smallest primitive element g.

        g is the least candidate >= 2 with g**((q-1)/l) != 1 for every
        prime l dividing q - 1, taken by digit arithmetic.  Then, with
        P = p**(m//2), every encoding splits as v = lo + hi*P, and
        v*g = lo*g + (hi*z**(m//2))*g since multiplication by g is
        GF(p)-linear.  Both products are tabulated once (about 2*sqrt(q)
        digit multiplications), so each power of g costs two lookups and
        one addition.  For odd p and q**2 <= TABLE_LIMIT the addition table comes
        first: x + y = (x0 + y0) % p + p*(x1 + y1) for x = x0 + p*x1, row x1 < x.
        """
        q, n, p = self.q, self.q - 1, self.p
        if p > 2 and q * q <= TABLE_LIMIT:
            digit_sum = [[(x0 + y0) % p for y0 in range(p)] for x0 in range(p)]
            self._add = t = [list(range(q))]
            for x in range(1, q):
                t.append([c + p * u for u in t[x // p][: q // p] for c in digit_sum[x % p]])
        cofactors = [n // ell for ell in _prime_divisors(n)]
        g = next(
            c for c in range(2, q)
            if all(self.pow_raw(c, e) != 1 for e in cofactors)
        )
        P = p ** (self.m // 2)
        low = [self._mul_digits(lo, g) for lo in range(P)]
        high = [self._mul_digits(hi * P, g) for hi in range(q // P)]
        add = self.add_raw
        exp = [1] * n
        e = 1
        for i in range(1, n):
            hi, lo = divmod(e, P)
            e = add(low[lo], high[hi])
            exp[i] = e
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp
        self._log = log

    # -- misc ----------------------------------------------------------

    def __eq__(self, other):
        # field_create hands out one object per order, so identity decides
        # nearly every comparison
        return self is other or (
            isinstance(other, Field) and (self.p, self.m) == (other.p, other.m)
        )

    def __hash__(self):
        return hash((self.p, self.m))

    def __repr__(self):
        return f"GF({self.q})" if self.m > 1 else f"GF({self.p})"


class FieldElement:
    """An element of a Field, stored by its integer encoding."""

    __slots__ = ("field", "val")

    def __init__(self, field, val):
        self.field = field
        self.val = val

    @property
    def coeffs(self):
        """Coordinates in the power basis, ascending, length m."""
        return tuple(self.field.coeffs_of(self.val))

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise PreconditionError("elements from different fields")
            return other
        if isinstance(other, int):
            return FieldElement(self.field, other % self.field.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add_raw(self.val, o.val))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_raw(self.val))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_raw(self.val, o.val))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_raw(self.val, o.val))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_raw(self.val, self.field.inv_raw(o.val)))

    def __rtruediv__(self, other):
        return self.inverse().__mul__(other)

    def __pow__(self, e):
        return FieldElement(self.field, self.field.pow_raw(self.val, e))

    def inverse(self):
        return FieldElement(self.field, self.field.inv_raw(self.val))

    def pth_root(self):
        return FieldElement(self.field, self.field.pth_root_raw(self.val))

    def is_zero(self):
        return self.val == 0

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        if isinstance(other, int):
            # ints compare as prime-subfield residues
            return self.val == other % self.field.p
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.val == other.val
        )

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.val))

    def __str__(self):
        if self.field.m == 1:  # the one constant term, without the term loop
            return str(self.val)
        return _terms_text(reversed([*enumerate(self.field.coeffs_of(self.val))]), "z")

    def __repr__(self):
        return f"{self.field!r}[{self}]"


def _terms_text(terms, var):
    """c*v^k for each (k, c) whose c does not print as 0, joined by +, or 0.
    A c that prints as 1 leaves a bare v^k; one whose text holds a + gets
    parentheses.  Field elements, polynomials and Laurent series use it."""
    parts = []
    for k, c in terms:
        ct = str(c)
        if ct == "0":
            continue
        if "+" in ct:
            ct = f"({ct})"
        if k == 0:
            parts.append(ct)
            continue
        xp = var if k == 1 else f"{var}^{k}"
        parts.append(xp if ct == "1" else f"{ct}*{xp}")
    return "+".join(parts) or "0"


def field_create(p, m=1):
    """The cached field GF(p**m) with the canonical modulus."""
    if m < 1:
        raise PreconditionError("extension degree must be >= 1")
    # p**m >= 2**((bit_length - 1) * m): refuse a huge order before testing p
    too_big = (p.bit_length() - 1) * m >= MAX_FIELD_SIZE.bit_length()
    if too_big or p**m > MAX_FIELD_SIZE:
        raise SizeBoundError(f"field order {p}**{m} exceeds the size bound")
    if not _is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    key = (p, m)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = Field(p, m)
    return _FIELD_CACHE[key]


GF = field_create


def embed(src, dst, a):
    """Map a in GF(p**s) into GF(p**r) along the canonical embedding (s | r).

    The generator of the source goes to the root of the source modulus in
    the destination that is minimal in the integer encoding.  The image of
    a general element is evaluated from its power-basis coordinates.
    """
    a = src.element(a)
    if src.p != dst.p:
        raise PreconditionError("embeddings only exist in equal characteristic")
    if dst.m % src.m != 0:
        raise PreconditionError(
            f"GF({src.q}) does not embed in GF({dst.q}): {src.m} does not divide {dst.m}"
        )
    if src.m == 1 or src == dst:
        return dst.element(a.val)
    from .polyring import Polynomial, _least_root

    # prime-field digits have the same encoding in every field of characteristic p
    gamma = _least_root(Polynomial._raw(dst, src._mod_digits)).val
    # Horner on the power-basis coordinates of a
    acc = 0
    for c in reversed(src.coeffs_of(a.val)):
        acc = dst.add_raw(dst.mul_raw(acc, gamma), c)
    return dst.element(acc)
