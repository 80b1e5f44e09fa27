"""The rational function field F_q(x): places, divisors, valuations,
Laurent expansions, differentials, and genus-0 Riemann-Roch machinery.

Places of the projective line are monic irreducible polynomials plus one
infinite place.  Divisors are immutable sorted coefficient maps.  Laurent
expansions are taken in a fixed prime element per place: 1/x at infinity,
and x - alpha at a finite place of degree d, where alpha is the place's one
canonical (encoding-minimal) root in the residue field GF(q^d) and the
function is base-changed there (for d = 1, GF(q) itself).  Every expansion
is one long division in polyring: the numerator and denominator, shifted
to the place and reversed, divide to the reversed series, so expansions
run on the same per-field kernels as every other polynomial.
Riemann-Roch spaces are written down explicitly, which is what genus 0
buys us.
"""

import math

from . import polyring
from .config import LAURENT_MARGIN, MAX_COVER_DEGREE
from .errors import ParseError, PreconditionError, SizeBoundError
from .galois import GF, FieldElement, _terms_text, embed
from .polyring import Polynomial

# ---------------------------------------------------------------------------
# places


class Place:
    """A closed point of the projective line: monic irreducible or infinity."""

    __slots__ = ("field", "poly")

    def __init__(self, field, poly=None):
        if poly is not None:
            if poly.field != field:
                raise PreconditionError("place polynomial over a different field")
            if not poly.is_monic():
                raise PreconditionError("place polynomial must be monic")
            if poly.degree < 1:
                raise PreconditionError("place polynomial must be nonconstant")
        self.field = field
        self.poly = poly

    @classmethod
    def infinite(cls, field):
        return cls(field, None)

    @classmethod
    def from_root(cls, alpha):
        """The degree-1 place x = alpha."""
        f = alpha.field
        return cls(f, Polynomial(f, [(-alpha).val, 1]))

    @property
    def is_infinite(self):
        return self.poly is None

    @property
    def degree(self):
        return 1 if self.poly is None else self.poly.degree

    def sort_key(self):
        if self.poly is None:
            return (1, 1, 0)
        return (0, self.poly.degree, self.poly.encoding())

    def text(self, var="x"):
        """Bare text form: the polynomial, or `inf`."""
        return "inf" if self.poly is None else self.poly.to_text(var)

    def pretty(self, var="x"):
        """Display form used in fiber diagrams: (x=inf), (x=3), (x^2+x+1=0)."""
        if self.poly is None:
            return f"({var}=inf)"
        if self.poly.degree == 1:
            root = -self.poly.coefficient(0)
            return f"({var}={root})"
        return f"({self.poly.to_text(var)}=0)"

    def __eq__(self, other):
        return (
            isinstance(other, Place)
            and self.field == other.field
            and self.poly == other.poly
        )

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.poly))

    def __repr__(self):
        return f"Place({self.text()})"


def parse_place(text, field, var="x"):
    text = text.strip()
    if text in ("inf", "infinity", "oo"):
        return Place.infinite(field)
    poly = polyring.parse_polynomial(text, field, var)
    if poly.degree < 1:
        raise ParseError(f"{text!r} is not a place")
    poly = poly.monic()
    if not polyring.is_irreducible(poly):
        raise PreconditionError(f"{poly.to_text(var)} is not irreducible")
    return Place(field, poly)


# ---------------------------------------------------------------------------
# divisors


class Divisor:
    """An immutable finite Z-linear combination of places."""

    __slots__ = ("field", "_items", "_coeffs")

    def __init__(self, field, items=()):
        acc = {}
        for place, n in items:
            if place.field != field:
                raise PreconditionError("place over a different field")
            if n:
                acc[place] = acc.get(place, 0) + n
        cleaned = [(pl, n) for pl, n in acc.items() if n]
        cleaned.sort(key=lambda t: t[0].sort_key())
        self.field = field
        self._items = tuple(cleaned)
        self._coeffs = dict(cleaned)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    def items(self):
        return self._items

    def support(self):
        return tuple(pl for pl, _ in self._items)

    def coefficient(self, place):
        return self._coeffs.get(place, 0)

    def degree(self):
        return sum(n * pl.degree for pl, n in self._items)

    def is_zero(self):
        return not self._items

    def is_effective(self):
        return all(n > 0 for _, n in self._items)

    def __add__(self, other):
        if not isinstance(other, Divisor) or other.field != self.field:
            return NotImplemented
        return Divisor(self.field, self._items + other._items)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Divisor(self.field, [(pl, -n) for pl, n in self._items])

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return Divisor(self.field, [(pl, k * n) for pl, n in self._items])

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, Divisor)
            and self.field == other.field
            and self._items == other._items
        )

    def __hash__(self):
        return hash((self.field.p, self.field.m, self._items))

    def to_text(self, var="x"):
        if not self._items:
            return "0"
        parts = []
        for i, (pl, n) in enumerate(self._items):
            sign = "-" if n < 0 else "+"
            body = f"{abs(n)}*({pl.text(var)})"
            if i == 0:
                parts.append(body if n > 0 else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Divisor({self.to_text()})"


# ---------------------------------------------------------------------------
# rational functions


class RationalFunction:
    """num/den in lowest terms: gcd(num, den) = 1 and den monic (den = 1 for 0).

    The public constructor takes any num/den and reduces it by one full gcd.
    The arithmetic keeps the invariant without one, by Henrici's
    cross-cancellation (Knuth, TAOCP vol. 2, 4.5.1), which relies on both
    operands being in lowest terms:

    - (a/b)(c/d) cancels only g1 = gcd(a, d) and g2 = gcd(c, b):
      (a/g1)(c/g2) / ((b/g2)(d/g1));
    - a/b + c/d takes g = gcd(b, d) and t = a(d/g) + c(b/g), then cancels
      only g2 = gcd(t, g): (t/g2) / ((b/g)(d/g2));
    - (a/b)**e = a**e / b**e is already in lowest terms.

    A reduced fraction is unique, so every result equals the public
    constructor applied to the unreduced numerator and denominator.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Polynomial):
            raise PreconditionError("numerator must be a Polynomial")
        field = num.field
        if den is None:
            den = Polynomial.constant(field, 1)
        if den.field != field:
            raise PreconditionError("num and den over different fields")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = num, Polynomial.constant(field, 1)
        else:
            g = polyring.gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lc = den.leading_coefficient
            if lc != 1:
                inv = lc.inverse()
                num, den = num * inv, den * inv
        self.field = field
        self.num = num
        self.den = den

    @classmethod
    def _reduced(cls, num, den):
        """num/den already in lowest terms with den monic; no gcd is taken."""
        f = cls.__new__(cls)
        f.field = num.field
        f.num = num
        f.den = den
        return f

    @classmethod
    def constant(cls, field, c):
        return cls._reduced(
            Polynomial.constant(field, c), Polynomial.constant(field, 1)
        )

    @classmethod
    def x(cls, field):
        return cls._reduced(Polynomial.x(field), Polynomial.constant(field, 1))

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.field != self.field:
                raise PreconditionError("functions over different fields")
            return other
        if isinstance(other, Polynomial):
            if other.field != self.field:
                raise PreconditionError("functions over different fields")
            return RationalFunction._reduced(
                other, Polynomial.constant(self.field, 1)
            )
        if isinstance(other, (int, FieldElement)):
            return RationalFunction.constant(self.field, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, o.num, o.den
        g = _common_factor(b, d)
        if g is None:
            return _reduced_or_zero(a * d + c * b, b * d)
        bg, dg = b // g, d // g
        t = a * dg + c * bg
        g2 = _common_factor(t, g)
        if g2 is None:
            return _reduced_or_zero(t, bg * d)
        return RationalFunction._reduced(t // g2, bg * (d // g2))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._reduced(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _times(self.num, self.den, o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero function")
        c, d = o.den, o.num
        lc = d.leading_coefficient
        if lc != 1:
            inv = lc.inverse()
            c, d = c * inv, d * inv
        return _times(self.num, self.den, c, d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return RationalFunction._reduced(self.num**e, self.den**e)

    def inverse(self):
        return RationalFunction.constant(self.field, 1) / self

    def derivative(self):
        return RationalFunction(_wronskian(self), self.den * self.den)

    def __eq__(self, other):
        if isinstance(other, (int, FieldElement, Polynomial)):
            other = self._coerce(other)
        return (
            isinstance(other, RationalFunction)
            and self.field == other.field
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero()

    def to_text(self, var="x"):
        nt = self.num.to_text(var)
        if self.den.degree < 1:
            return nt
        if len([c for c in self.num._c if c]) > 1:
            nt = f"({nt})"
        dt = self.den.to_text(var)
        if len([c for c in self.den._c if c]) > 1:
            dt = f"({dt})"
        return f"{nt}/{dt}"

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"RationalFunction({self.to_text()!r} over {self.field!r})"


def _wronskian(f):
    """W = N'D - ND' for f = N/D, so that df/dx = W/D^2 (not reduced)."""
    N, D = f.num, f.den
    return N.derivative() * D - N * D.derivative()


def _is_pth_power(f):
    """f in F^p, i.e. df/dx = 0 (the constants are perfect).

    For f = n/d in lowest terms, f' = (n'd - nd')/d^2 vanishes iff
    n'd = nd'.  Then d divides nd', and gcd(n, d) = 1 gives d | d'; as
    deg d' < deg d, that forces d' = 0, and then n'd = 0 gives n' = 0.
    So f' = 0 exactly when n' = 0 and d' = 0, and only those two
    polynomial derivatives are taken.
    """
    return f.num.derivative().is_zero() and f.den.derivative().is_zero()


def _common_factor(a, b):
    """The monic gcd of nonzero a and b, or None when it is 1."""
    if a.degree < 1 or b.degree < 1:
        return None
    g = polyring.gcd(a, b)
    return g if g.degree > 0 else None


def _reduced_or_zero(num, den):
    """num/den for coprime num and monic den; 0/1 when num is zero."""
    if num.is_zero():
        den = Polynomial.constant(num.field, 1)
    return RationalFunction._reduced(num, den)


def _times(a, b, c, d):
    """(a/b)(c/d) for fractions in lowest terms, by Henrici's cancellation."""
    if a.is_zero() or c.is_zero():  # gcd(0, d) = d must not be cancelled
        return _reduced_or_zero(a * c, b)
    g = _common_factor(a, d)
    if g is not None:
        a, d = a // g, d // g
    g = _common_factor(c, b)
    if g is not None:
        c, b = c // g, b // g
    return RationalFunction._reduced(a * c, b * d)


def parse_rational(text, field, var="x"):
    """Parse `num/den` (either side a polynomial expression)."""
    depth = 0
    slash = None
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            if slash is not None:
                raise ParseError("more than one top-level '/'")
            slash = i
    if slash is None:
        return RationalFunction(polyring.parse_polynomial(text, field, var))
    num = polyring.parse_polynomial(text[:slash], field, var)
    den = polyring.parse_polynomial(text[slash + 1 :], field, var)
    if den.is_zero():
        raise ParseError("zero denominator")
    return RationalFunction(num, den)


# ---------------------------------------------------------------------------
# valuations and divisors of functions


def valuation(f, place):
    if f.is_zero():
        return math.inf
    if place.is_infinite:
        return f.den.degree - f.num.degree
    K, w = f.field, place.poly._c
    vn = polyring._divide_out(K, f.num._c, w)[1]
    return vn or -polyring._divide_out(K, f.den._c, w)[1]


def divisor_of(f):
    if f.is_zero():
        raise PreconditionError("the zero function has no divisor")
    K = f.field
    items = []
    for g, e in polyring.factor(f.num).factors:
        items.append((Place(K, g), e))
    for g, e in polyring.factor(f.den).factors:
        items.append((Place(K, g), -e))
    v_inf = f.den.degree - f.num.degree
    if v_inf:
        items.append((Place.infinite(K), v_inf))
    return Divisor(K, items)


def pole_divisor_of(f):
    """The poles of f: the factors of its denominator, and infinity."""
    if f.is_zero():
        raise PreconditionError("the zero function has no divisor")
    K = f.field
    items = [(Place.infinite(K), max(f.num.degree - f.den.degree, 0))]
    if f.den.degree > 0:
        items += [(Place(K, g), e) for g, e in polyring.factor(f.den).factors]
    return Divisor(K, items)


# ---------------------------------------------------------------------------
# Laurent expansion


class LaurentSeries:
    """Finitely many exact terms of a Laurent expansion at a place.

    Exponents run from `start` (the valuation) for `precision` terms;
    coefficients live in the residue field of the place.
    """

    __slots__ = ("place", "start", "coeffs", "coeff_field")

    def __init__(self, place, start, coeffs, coeff_field):
        self.place = place
        self.start = start
        self.coeffs = tuple(coeffs)
        self.coeff_field = coeff_field

    @property
    def precision(self):
        return len(self.coeffs)

    def terms(self):
        return [
            (self.start + i, c)
            for i, c in enumerate(self.coeffs)
            if not c.is_zero()
        ]

    def to_text(self, var="u"):
        return _terms_text(self.terms(), var)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"LaurentSeries({self.to_text()!r} start={self.start})"


def _series_quotient(K, num, den, prec):
    """Laurent coefficients of num/den in the local parameter u.

    num and den are nonzero raw ascending coefficient sequences over K;
    returns (start, prec raw coefficients).  With the leading zeros
    stripped, n cut to prec terms and e = deg d,

        u^(prec-1+e) n(1/u) = (u^e d(1/u)) (u^(prec-1) s(1/u)) + r,

    deg r < e, so the series s is the reversed quotient of one long
    division in polyring.
    """
    a = 0
    while num[a] == 0:
        a += 1
    b = 0
    while den[b] == 0:
        b += 1
    n = num[a : a + prec]
    d = den[b:]
    top = [0] * (len(d) - 1 + prec - len(n))
    top += reversed(n)
    q, _ = polyring._divmod(K, top, d[::-1])
    return a - b, q[::-1]


def default_precision(f):
    return 2 * max(f.num.degree, f.den.degree, 1) + LAURENT_MARGIN


def laurent_expand(f, place, precision=None):
    """Expand f at a place in the canonical prime element.

    Infinite place: parameter 1/x.  Finite place of degree d: f is
    base-changed to the residue field GF(q^d) (for d = 1 that is GF(q)
    itself and nothing is lifted), where the place has its canonical root
    alpha, polyring._least_root of the lifted place polynomial; the
    parameter is x - alpha and the coefficients live in GF(q^d).
    """
    if f.is_zero():
        raise PreconditionError("cannot expand the zero function")
    if precision is None:
        precision = default_precision(f)
    if precision < 1:
        raise PreconditionError("precision must be positive")
    if precision > MAX_COVER_DEGREE:
        raise SizeBoundError(
            f"precision {precision} exceeds the cap {MAX_COVER_DEGREE}"
        )
    K = R = f.field  # R: the residue field of the place
    if place.is_infinite:
        pad = f.den.degree - f.num.degree
        num = (0,) * pad + f.num._c[::-1]
        den = (0,) * -pad + f.den._c[::-1]
    else:
        R = GF(K.p, K.m * place.degree)

        def lift(poly):
            if R is K:
                return poly
            return Polynomial(R, [embed(K, R, c) for c in poly.coeffs])

        alpha = polyring._least_root(lift(place.poly))
        if alpha is None:
            raise PreconditionError("place polynomial has no root after base change")
        num, den = lift(f.num).shift(alpha)._c, lift(f.den).shift(alpha)._c
    start, raw = _series_quotient(R, num, den, precision)
    return LaurentSeries(place, start, [FieldElement(R, v) for v in raw], R)


def uniformizer_text(place, var="x"):
    if place.is_infinite:
        return f"1/{var}"
    if place.degree == 1:
        return place.poly.to_text(var)
    return (
        f"{var}-alpha, alpha the canonical root of {place.poly.to_text(var)} "
        f"in GF({place.field.q}^{place.degree})"
    )


# ---------------------------------------------------------------------------
# differentials and p-th powers


def differential_divisor(f):
    """Divisor of the differential df = f' dx; degree is always -2."""
    fp = f.derivative()
    if fp.is_zero():
        raise PreconditionError(
            "df = 0: the function is a p-th power and does not separate"
        )
    K = f.field
    d = divisor_of(fp) + Divisor(K, [(Place.infinite(K), -2)])
    if d.degree() != -2:
        raise AssertionError("canonical degree violated")  # pragma: no cover
    return d


def pth_power_test(f):
    """Return the p-th root of f when f lies in F^p, else None."""
    if f.is_zero():
        return RationalFunction.constant(f.field, 0)
    if not _is_pth_power(f):
        return None
    K = f.field

    def root_of(poly):
        return Polynomial._raw(K, polyring._pth_root_poly(K, poly._c))

    g = RationalFunction(root_of(f.num), root_of(f.den))
    if g**K.p == f:
        return g
    return None


# ---------------------------------------------------------------------------
# genus-0 Riemann-Roch


def rr_basis(D):
    """A basis of L(D) = {f : (f) + D >= 0} for the genus-0 field F_q(x).

    Shape: required * x^i / h_pos, where h_pos collects allowed finite
    poles, required forces prescribed zeros, and i sweeps the range allowed
    at infinity.  Length is max(0, deg D + 1).
    """
    K = D.field
    h_pos = Polynomial.constant(K, 1)
    required = Polynomial.constant(K, 1)
    n_inf = 0
    for pl, n in D.items():
        if pl.is_infinite:
            n_inf = n
        elif n > 0:
            h_pos = h_pos * pl.poly**n
        else:
            required = required * pl.poly ** (-n)
    return [
        RationalFunction(required * Polynomial.monomial(K, i), h_pos)
        for i in range(h_pos.degree + n_inf - required.degree + 1)
    ]


# candidates prescribed_element tries when q^dim is too large to search all
_SEARCH_LIMIT = 65536


def prescribed_element(D, P, n=None, avoid=(), zero_at=None):
    """An f with (f)_0 >= D, pole divisor exactly n*P, v_R(f) = 0 on avoid.

    zero_at = (Q, k) additionally forces v_Q(f) >= k.  With n=None the
    least feasible pole order is found by upward sweep.  Candidates are
    combinations of the Riemann-Roch basis of n*P - D - k*Q, enumerated
    deterministically with the highest basis elements varying first; the
    search is exhaustive whenever q^dim <= _SEARCH_LIMIT, so a failure in
    that regime is a proof of infeasibility.
    """
    K = D.field
    if not D.is_zero() and not D.is_effective():
        raise PreconditionError("D must be effective")
    if D.coefficient(P):
        raise PreconditionError("P must avoid the support of D")
    for R in avoid:
        if R == P or D.coefficient(R):
            raise PreconditionError("avoid places must differ from P and supp(D)")
    kq = Divisor.zero(K)
    if zero_at is not None:
        Q, k = zero_at
        if Q == P or k < 1:
            raise PreconditionError("zero_at place must differ from P, order >= 1")
        kq = Divisor(K, [(Q, k)])
    need = D.degree() + kq.degree()
    if n is None:
        n0 = max(D.degree(), -(-need // P.degree), 0)
        last_err = None
        for cand_n in range(n0, n0 + 65):
            try:
                return prescribed_element(D, P, cand_n, avoid, zero_at)
            except (PreconditionError, SizeBoundError) as e:
                last_err = e
        raise SizeBoundError(
            f"no feasible pole order found in [{n0}, {n0 + 64}]: {last_err}"
        )
    if n < D.degree():
        raise PreconditionError(f"pole order n={n} below deg D = {D.degree()}")
    E = Divisor(K, [(P, n)]) - D - kq
    if E.degree() < 0:
        raise PreconditionError(
            f"n*deg(P) = {n * P.degree} cannot dominate deg D + zeros = {need}"
        )
    basis = rr_basis(E)
    if not basis:
        raise PreconditionError("empty Riemann-Roch space")
    if all(valuation(b, P) > -n for b in basis):
        raise PreconditionError(
            f"every candidate has pole order below {n} at {P.text()}"
        )
    for R in avoid:
        if all(valuation(b, R) > 0 for b in basis):
            raise PreconditionError(
                f"every candidate vanishes at {R.text()}"
            )
    dim = len(basis)
    q = K.q
    total = q**dim
    exhaustive = total <= _SEARCH_LIMIT
    limit = total if exhaustive else _SEARCH_LIMIT + 1
    for idx in range(1, limit):
        # digits of idx, highest basis elements first
        f = None
        v = idx
        pos = dim - 1
        while v:
            c = v % q
            if c:
                term = basis[pos] * FieldElement(K, c)
                f = term if f is None else f + term
            v //= q
            pos -= 1
        if valuation(f, P) != -n:
            continue
        if any(valuation(f, R) != 0 for R in avoid):
            continue
        return f
    if exhaustive:
        raise PreconditionError(
            "constraint system is infeasible: exhaustive search over "
            f"{total - 1} candidates found no element"
        )
    raise SizeBoundError(
        f"search budget {_SEARCH_LIMIT} exhausted over a space of size {total}"
    )
