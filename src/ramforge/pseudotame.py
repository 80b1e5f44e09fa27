"""Characteristic-2 pseudo-tameness toolkit on the rational field F_{2^m}(w).

An element x is pseudo-tame at a place P when x + z^4 is tame at P for
some z.  The working criterion is local: every non-vanishing Laurent
exponent below v_P(dx) + 1 must be divisible by 4.  Around that sit the
quartic decomposition x = x0^4 + x1^4 y + x2^4 y^2 + x3^4 y^3, the
obstruction invariant a(x, y), its cocycle identity, and the two
constructive lemmas (square completion at a place, quartic pole
reduction) -- all exact, all verified on the way out.

The quartic decomposition splits along F = F^2 + F^2 y on polynomials
over one common denominator: y = Y/E is split once, as Y E = C^2 + G^2 w,
and each step P/Q = (S/T)^2 + (R/T)^2 y shuffles the coefficients of P Q
into even and odd halves, with no gcd.  The four coordinates share the
denominator U = D G^2 of x = N/D; each is reduced once at the end, and
the re-expansion is checked as one cross-multiplied polynomial identity.
Squares are recognized by a vanishing derivative, which over a perfect
constant field is exact (`funcfield._is_pth_power`; for p = 2 the p-th
powers are the squares).

The local layer reads x = N/D directly: dx/dw = W/D^2 with W = N'D - ND',
left unreduced, so v_P(dx) = v_P(W) - 2 v_P(D) at a finite place and
2 deg D - deg W - 2 at infinity, and the zeros of dx/dw lie among the
factors of W.  No rational-function derivative is formed.  One record per
(element, place) carries v_P(dx) and the single expansion of x at P,
exact below v_P(dx) + 2, that both criteria and square completion read.
"""

import itertools

from . import polyring
from .errors import InternalCheckError, PreconditionError
from .funcfield import (
    Place,
    RationalFunction,
    _is_pth_power,
    _poly_valuation,
    _wronskian,
    laurent_expand,
    pole_divisor_of,
    valuation,
)
from .polyring import Polynomial
from .record import Record


def _require_char2(field):
    if field.p != 2:
        raise PreconditionError("this toolkit requires characteristic 2")


def _halves(f):
    """f = A^2 + B^2 w for a polynomial f: returns (A, B)."""
    K, c = f.field, f._c
    return (
        Polynomial._raw(K, polyring._pth_root_poly(K, c)),
        Polynomial._raw(K, polyring._pth_root_poly(K, c[1:])),
    )


def _split(num, den, C, E, G):
    """(S, R, T) with num/den = (S/T)^2 + (R/T)^2 y, where y = Y/E and
    Y E = C^2 + G^2 w.

    num den = A^2 + B^2 w gives num/den = (A/den)^2 + (B/den)^2 w, and
    w = (y + (C/E)^2) (E/G)^2; so S = A G + B C, R = B E, T = den G.
    """
    A, B = _halves(num * den)
    return A * G + B * C, B * E, den * G


def _quartic_polys(x, y):
    """(X0, X1, X2, X3), U with x_i = X_i/U, unreduced, checked exactly."""
    _require_char2(x.field)
    if x.field != y.field:
        raise PreconditionError("x and y over different fields")
    if _is_pth_power(y):
        raise PreconditionError("y must not be a square")
    N, D, Y, E = x.num, x.den, y.num, y.den
    C, G = _halves(Y * E)
    S, R, T = _split(N, D, C, E, G)
    X0, X2, U = _split(S, T, C, E, G)
    X1, X3, _ = _split(R, T, C, E, G)
    # x = sum x_i^4 y^i times D U^4 E^3 is N U^4 E^3 = D sum X_i^4 Y^i E^(3-i),
    # and in characteristic 2 that sum is the one below
    expanded = E * (X0**2 * E + X2**2 * Y) ** 2 + Y * (X1**2 * E + X3**2 * Y) ** 2
    if N * U**4 * E**3 != D * expanded:
        raise InternalCheckError("quartic decomposition failed to re-expand")
    return (X0, X1, X2, X3), U


class QuarticDecomposition(Record):
    # x, y: RationalFunctions; coords: (x0, x1, x2, x3)
    __slots__ = ("x", "y", "coords")


def quartic_decompose(x, y):
    """The unique x0..x3 with x = x0^4 + x1^4 y + x2^4 y^2 + x3^4 y^3."""
    Xs, U = _quartic_polys(x, y)
    coords = tuple(RationalFunction(X, U) for X in Xs)
    return QuarticDecomposition(x=x, y=y, coords=coords)


def a_invariant(x, y):
    """a(x, y) = ((x1^2 x3^2 + x2^4) y) / (x3^4 y^2 + x1^4).

    With x_i = X_i/U and y = Y/E the common U cancels, and in
    characteristic 2 the sums of fourth powers are squares:
    a = (X1 X3 + X2^2)^2 Y E / (X3^2 Y + X1^2 E)^2, reduced once.
    """
    _require_char2(x.field)
    if _is_pth_power(x) or _is_pth_power(y):
        raise PreconditionError("x and y must both be non-squares")
    (_, X1, X2, X3), _ = _quartic_polys(x, y)
    Y, E = y.num, y.den
    den = X3**2 * Y + X1**2 * E
    if den.is_zero():  # pragma: no cover
        raise InternalCheckError("a(x, y) denominator vanished for non-square x")
    return RationalFunction((X1 * X3 + X2**2) ** 2 * Y * E, den**2)


def cocycle_defect(x, y, t):
    """a(x,y) + a(y,t) + a(t,x); always a square (that is the identity)."""
    return a_invariant(x, y) + a_invariant(y, t) + a_invariant(t, x)


# ---------------------------------------------------------------------------
# local tameness and pseudo-tameness


def _orders(x, P, W):
    """(v_P(x), v_P(dx)) from x's W = N'D - ND'; a square x (W = 0) raises.

    v_P(dx/dw) = v_P(W) - 2 v_P(D) needs no gcd, and v_P(D) = 0 where
    v_P(N) > 0, so each of v_P(N), v_P(D), v_P(W) is taken at most once.
    """
    if W.is_zero():
        raise PreconditionError("dx = 0: x is a square")
    N, D = x.num, x.den
    if P.is_infinite:
        return D.degree - N.degree, 2 * D.degree - W.degree - 2
    vN = _poly_valuation(N, P.poly)
    vD = 0 if vN else _poly_valuation(D, P.poly)
    return vN - vD, _poly_valuation(W, P.poly) - 2 * vD


def v_dx(x, P):
    """Valuation of the differential dx at P (dw carries -2 at infinity)."""
    return _orders(x, P, _wronskian(x))[1]


class _Local(Record):
    # field: of x; v_dx: v_P(dx); terms: of x at P, exact below v_dx + 2
    __slots__ = ("field", "v_dx", "terms")

    def tame(self):
        """The leading nonconstant exponent is odd."""
        return next((k for k, _ in self.terms if k != 0), 0) % 2 == 1

    def pseudotame(self):
        """Every exponent below v_P(dx) + 1 is divisible by 4."""
        _require_char2(self.field)
        return all(k % 4 == 0 for k, _ in self.terms if k <= self.v_dx)


def _local(x, P, W):
    """The one record of x at P, read off x's W and one expansion; a
    square x raises."""
    start, v = _orders(x, P, W)
    terms = laurent_expand(x, P, max(v + 2 - start, 1)).terms()
    return _Local(field=x.field, v_dx=v, terms=terms)


def element_is_tame_at(x, P):
    """Tame at P: the leading nonconstant exponent of x at P is odd."""
    return not _is_pth_power(x) and _local(x, P, _wronskian(x)).tame()


def is_pseudotame_at(x, P):
    """Every nonzero exponent below v_P(dx) + 1 is divisible by 4."""
    _require_char2(x.field)
    if _is_pth_power(x):
        raise PreconditionError("x is a square; pseudo-tameness is undefined")
    return _local(x, P, _wronskian(x)).pseudotame()


def critical_places(x):
    """Places where pseudo-tameness is not automatic.

    Everywhere else v_P(dx) = 0 and x is regular, so the criterion holds
    trivially; the sweep covers the poles of x, the zeros of dx/dw, and
    the infinite place.  With dx/dw = W/D^2, those zeros lie among the
    factors of W; a factor of W that divides D is a pole anyway.
    """
    return _critical_places(x, _wronskian(x))


def _critical_places(x, W):
    """critical_places of x, from x's W."""
    K = x.field
    places = {Place.infinite(K), *pole_divisor_of(x).support()}
    if W.degree > 0:
        places.update(Place(K, g) for g, _ in polyring.factor(W).factors)
    return sorted(places, key=Place.sort_key)


# ---------------------------------------------------------------------------
# constructive lemmas


def _place_stream(field, forbidden):
    """Canonical inexhaustible stream of places: degree-1 finite by
    encoding, then infinity, then higher degrees by encoding."""
    linear = (Place.from_root(field.element(v)) for v in range(field.q))
    higher = (
        Place(field, f)
        for d in itertools.count(2)
        for f in polyring.irreducibles(field, d)
    )
    for P in itertools.chain(linear, [Place.infinite(field)], higher):
        if P not in forbidden:
            yield P


def _exact_order_element(basis, P, n):
    for b in basis:
        if valuation(b, P) == n:
            return b
    return None  # pragma: no cover


def square_completion(x, P, Q, pole_budget=None):
    """A z with simple poles, v_Q(z) >= 0, and x + z^2 tame at P.

    The loop reads the leading nonconstant Laurent exponent j of the
    running element at P.  Odd j means tame: a nonzero constant works.
    Even j = 2n is cancelled by a multiple of an element with valuation
    exactly n at P and simple poles inside a growing reservoir R of
    places away from P and Q; squares only touch even exponents, so the
    first odd exponent v_P(dx)+1 is an immovable finish line.
    """
    _check_completion(x, P, Q)
    return _complete_square(x, P, Q, pole_budget, _local(x, P, _wronskian(x)))


def _check_completion(x, P, Q):
    """The preconditions of square_completion that come before x's record."""
    _require_char2(x.field)
    if _is_pth_power(x):
        raise PreconditionError("x is a square; no odd exponent to finish at")
    if P == Q:
        raise PreconditionError("P and Q must differ")
    if P.degree > 1 and not P.is_infinite:
        raise PreconditionError(
            "square completion supports degree-1 and infinite places"
        )
    if valuation(x, P) < 0 or valuation(x, Q) < 0:
        raise PreconditionError("P and Q must avoid the poles of x")


def _complete_square(x, P, Q, pole_budget, local):
    """The body of square_completion, from x's record `local` at P."""
    from .funcfield import Divisor, rr_basis

    K = x.field
    j_odd = local.v_dx + 1
    n_max = max((j_odd - 1) // 2, 0)
    if pole_budget is None:
        pole_budget = max(x.num.degree, x.den.degree) + 4
    if pole_budget < n_max:
        raise PreconditionError(
            f"pole_budget {pole_budget} insufficient: the Riemann-Roch step "
            f"may need pole room {n_max}"
        )

    stream = _place_stream(K, {P, Q})
    reservoir = []

    def reservoir_divisor(min_degree):
        while sum(pl.degree for pl in reservoir) < min_degree:
            reservoir.append(next(stream))
        return Divisor(K, [(pl, 1) for pl in reservoir])

    one = RationalFunction.constant(K, 1)
    z = RationalFunction.constant(K, 0)
    terms = local.terms  # of the running element x + z^2, here z = 0
    for _ in range(n_max + 2):
        j, coeff = next(((k, c) for k, c in terms if k != 0), (None, None))
        if j is None:  # pragma: no cover
            raise InternalCheckError("ran out of Laurent terms before dx+1")
        if j % 2 == 1:
            result = z if not z.is_zero() else one
            if not element_is_tame_at(x + result * result, P):
                raise InternalCheckError("square completion output not tame")
            return result
        n = j // 2
        R = reservoir_divisor(n)
        z0 = _exact_order_element(rr_basis(R - Divisor(K, [(P, n)])), P, n)
        if z0 is None:  # pragma: no cover
            raise InternalCheckError("no exact-order element in L(R - nP)")
        b = laurent_expand(z0, P, 1).coeffs[0]
        z = z + z0 * (coeff.pth_root() / b)
        y = x + z * z  # its terms are exact below j_odd + 1
        terms = laurent_expand(y, P, max(j_odd + 1 - valuation(y, P), 1)).terms()
    raise InternalCheckError("square completion failed to terminate")


def quartic_pole_reduction(x, Q):
    """Strip the multiple-of-4 pole orders of x at its single pole Q.

    Returns (z, reduced) with reduced = x + z^4, poles of z only at Q,
    and -v_Q(reduced) = -v_Q(dx) - 1 exactly (so reduced is tame at Q).
    """
    K = x.field
    _require_char2(K)
    if _is_pth_power(x):
        raise PreconditionError("x is a square")
    poles = pole_divisor_of(x).support()
    if any(pl != Q for pl in poles):
        raise PreconditionError("x must have poles only at Q")
    if Q.degree > 1 and not Q.is_infinite:
        raise PreconditionError(
            "quartic pole reduction supports degree-1 and infinite places"
        )
    if not _local(x, Q, _wronskian(x)).pseudotame():
        raise PreconditionError("x is not pseudo-tame at Q")

    if Q.is_infinite:
        base = RationalFunction(Polynomial.x(K))
    else:
        root = -Q.poly.coefficient(0)
        base = RationalFunction.constant(K, 1) / RationalFunction(
            Polynomial(K, [(-root).val, 1])
        )
    z = RationalFunction.constant(K, 0)
    cur = x
    v = valuation(cur, Q)
    while v < 0 and v % 4 == 0:
        k = -v // 4
        lead = laurent_expand(cur, Q, 1).coeffs[0]
        step = base**k * lead.pth_root().pth_root()
        z = z + step
        cur = cur + step**4
        v_next = valuation(cur, Q)
        if not (v_next > v):  # pragma: no cover
            raise InternalCheckError("pole reduction made no progress")
        v = v_next
    # the target is recomputed from x, not read off the record above
    target = -v_dx(x, Q) - 1
    if -v != target:
        raise InternalCheckError(f"reduced pole order {-v} != target {target}")
    if not element_is_tame_at(cur, Q):
        raise InternalCheckError("reduced element is not tame at Q")
    return z, cur
