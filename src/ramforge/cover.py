"""Rational covers of the projective line and their ramification analysis.

A cover is a nonconstant separable t = g(x)/h(x) in F_q(x), in lowest
terms with h monic and n = deg g > deg h.  Everything downstream is
exact: fibers come from factoring the fiber polynomial, and the different
from one polynomial, the Wronskian W = g'h - gh'.  In the identity
Diff = div(dt/dx) + (dx) + 2 * Conorm(pole divisor of t) (Stichtenoth,
III.4), dt/dx = W/h^2 and (dx) = -2 (x=inf); at a pole P of t with
e = v_P(h) the -2e of h^2 cancels the +2e of the conorm, and at infinity
(2 deg h - deg W) - 2 + 2(n - deg h) remains, so

    Diff = (W) + (2n - 2 - deg W) * (x=inf).

The structural identities (fundamental equality, Dedekind different
bounds, the Hurwitz degree, and the tame branch-count formula) are
recomputed on every report.  A failed identity is a bug in the engine and
raises InternalCheckError rather than ever being reported quietly.
"""

from . import polyring
from .errors import InternalCheckError, PreconditionError
from .funcfield import Divisor, Place, RationalFunction, pole_divisor_of
from .funcfield import _is_pth_power, _wronskian
from .linalg import RelationTracker
from .polyring import Polynomial
from .record import Record


class RationalCover:
    """t = g(x)/h(x): the field extension F_q(x) over F_q(t)."""

    __slots__ = ("field", "map", "var_up", "var_down", "normalization")

    def __init__(self, field, rfmap, var_up="x", var_down="t", normalization=None):
        self.field = field
        self.map = rfmap
        self.var_up = var_up
        self.var_down = var_down
        self.normalization = normalization

    @property
    def degree(self):
        return self.map.num.degree

    @property
    def num(self):
        return self.map.num

    @property
    def den(self):
        return self.map.den

    def __eq__(self, other):
        return (
            isinstance(other, RationalCover)
            and self.field == other.field
            and self.map == other.map
            and self.var_up == other.var_up
            and self.var_down == other.var_down
        )

    def __hash__(self):
        return hash((self.map, self.var_up, self.var_down))

    def to_text(self):
        return f"{self.var_down} = {self.map.to_text(self.var_up)}"

    def __repr__(self):
        return f"RationalCover({self.to_text()})"


def cover_create(field, g, h=None, var_up="x", var_down="t"):
    """Build a cover from numerator and denominator polynomials.

    The fraction is reduced and the denominator made monic.  When the
    numerator degree does not exceed the denominator degree the map is
    post-composed with t -> 1/(t + alpha) (alpha kills the leading term
    when degrees tie, else 0) so that deg num > deg den always holds; the
    move is recorded in `normalization`.
    """
    if h is None:
        h = Polynomial.constant(field, 1)
    if g.field != field or h.field != field:
        raise PreconditionError("polynomials over the wrong field")
    if h.is_zero():
        raise PreconditionError("zero denominator")
    if g.is_zero():
        raise PreconditionError("the zero map is not a cover")
    f = RationalFunction(g, h)
    if f.is_constant():
        raise PreconditionError("constant map is not a cover")
    normalization = None
    if f.num.degree <= f.den.degree:
        if f.num.degree == f.den.degree:
            alpha = -(f.num.leading_coefficient / f.den.leading_coefficient)
        else:
            alpha = field.element(0)
        # t -> 1/(t + alpha): new map is h / (g + alpha*h)
        f = RationalFunction(f.den, f.num + f.den * alpha)
        normalization = {"kind": "reciprocal_shift", "alpha": alpha}
        if f.num.degree <= f.den.degree:  # pragma: no cover
            raise InternalCheckError("normalization failed to raise the degree")
    if _is_pth_power(f):
        raise PreconditionError(
            "inseparable map: dt/dx = 0 (a p-th power of another map)"
        )
    return RationalCover(field, f, var_up, var_down, normalization)


# ---------------------------------------------------------------------------
# fibers and pushforward


class RamPoint(Record):
    # above, below: Places; e, f, d: ints; wild: bool
    __slots__ = ("above", "below", "e", "f", "d", "wild")


def _homogenize(poly, g, h, n):
    """sum c_i g^i h^(n-i) over the coefficients c_i of poly, deg poly <= n,
    by Horner's rule in g with a running power of h: A_n = c_n and
    A_i = A_(i+1) g + c_i h^(n-i) give A_0, from 2n products."""
    K, c = g.field, poly._c
    acc, hp = list(c[n:]), [1]
    for i in range(n - 1, -1, -1):
        acc, hp = polyring._mul(K, acc, g._c), polyring._mul(K, hp, h._c)
        if i < len(c) and c[i]:
            acc = polyring._add(K, acc, polyring._mul(K, hp, [c[i]]))
    return Polynomial._raw(K, acc)


def fiber(cover, Q):
    """The places above Q with ramification indices and residue degrees.

    Returns a list of (Place, e, f) sorted by place.  The fundamental
    equality sum(e*f) = degree is enforced.
    """
    K = cover.field
    if Q.field != K:
        raise PreconditionError("place over the wrong field")
    n = cover.degree
    if Q.is_infinite:
        pts = [(P, e, P.degree) for P, e in pole_divisor_of(cover.map).items()]
    else:
        s = Q.degree
        N = _homogenize(Q.poly, cover.map.num, cover.map.den, s)
        if N.degree != n * s:  # pragma: no cover
            raise InternalCheckError("fiber polynomial degree mismatch")
        pts = []
        for pl, e in polyring.factor(N).factors:
            if pl.degree % s:  # pragma: no cover
                raise InternalCheckError("residue degree not divisible")
            pts.append((Place(K, pl), e, pl.degree // s))
    pts.sort(key=lambda t: t[0].sort_key())
    total = sum(e * f for _, e, f in pts)
    if total != n:
        raise InternalCheckError(
            f"fundamental equality violated over {Q.text(cover.var_down)}: "
            f"sum(e*f) = {total} != {n}"
        )
    return pts


def pushforward_place(cover, P):
    """The place of the downstairs field lying under P.

    Below a finite P that does not divide h lies the minimal polynomial
    sum c_i T^i of w = g/h mod P: the first linear relation among
    1, w, ..., w^d, d = deg P.  Times the unit h^d these are
    v_i = g^i h^(d-i) mod P, with the same first relation, so no inverse
    of h is taken.
    """
    K = cover.field
    if P.is_infinite:
        return Place.infinite(K)
    p = P.poly
    g, h = cover.map.num % p, cover.map.den % p
    if h.is_zero():
        return Place.infinite(K)
    d = p.degree
    h_powers = [Polynomial.constant(K, 1)]
    for _ in range(d):
        h_powers.append(h_powers[-1] * h % p)
    tracker = RelationTracker(K, d)
    g_power = Polynomial.constant(K, 1)
    for h_power in reversed(h_powers):  # d + 1 vectors in dimension d
        v = (g_power * h_power % p)._c
        combo = tracker.add(list(v) + [0] * (d - len(v)))
        if combo is not None:
            return Place(K, Polynomial(K, combo))
        g_power = g_power * g % p
    raise InternalCheckError("no relation among d + 1 vectors")  # pragma: no cover


def conorm(cover, D):
    """Pull a downstairs divisor back, weighting by ramification indices."""
    items = []
    for Q, nq in D.items():
        for P, e, _ in fiber(cover, Q):
            items.append((P, nq * e))
    return Divisor(cover.field, items)


# ---------------------------------------------------------------------------
# the ramification report


class RamificationReport(Record):
    # cover: a RationalCover; fibers: (below Place, tuple of RamPoint) pairs;
    # different_divisor: a Divisor; branch_locus: below Places; tame: bool;
    # checks: a dict of identity name -> bool
    __slots__ = (
        "cover", "fibers", "different_divisor", "branch_locus", "tame", "checks"
    )


def _different_divisor(cover):
    """Diff = (W) + (2n - 2 - deg W) * (x=inf), with W = g'h - gh'.

    dt/dx = W/h^2, so in div(dt/dx) + (dx) + 2 * Conorm(pole divisor of t)
    the -2e of h^2 at a pole P, e = v_P(h), cancels the conorm's +2e, and
    infinity keeps (2 deg h - deg W) - 2 + 2(n - deg h).  A constant W,
    as at every wild step, is not factored.
    """
    K = cover.field
    W = _wronskian(cover.map)
    factors = polyring.factor(W).factors if W.degree > 0 else []
    items = [(Place(K, pl), e) for pl, e in factors]
    items.append((Place.infinite(K), 2 * cover.degree - 2 - W.degree))
    return Divisor(K, items)


def ramification_report(cover):
    """Full fiber-by-fiber analysis with every structural identity checked.

    The fibers listed are those over (t=infinity) and under the support of
    the different, which holds every ramified point.
    """
    K = cover.field
    n = cover.degree
    inf = Place.infinite(K)
    inf_pts = fiber(cover, inf)
    diff = _different_divisor(cover)

    if not (diff.is_zero() or diff.is_effective()):
        raise InternalCheckError(
            f"different divisor not effective: {diff.to_text(cover.var_up)}"
        )

    # the places in the fiber over infinity need no pushforward
    off_inf = set(diff.support()) - {P for P, _, _ in inf_pts}
    below = {inf} | {pushforward_place(cover, P) for P in off_inf}

    fibers = []
    for Q in sorted(below, key=Place.sort_key):
        pts = tuple(
            RamPoint(
                above=P,
                below=Q,
                e=e,
                f=f,
                d=diff.coefficient(P),
                wild=e % K.p == 0,
            )
            for P, e, f in (inf_pts if Q == inf else fiber(cover, Q))
        )
        fibers.append((Q, pts))

    all_points = [pt for _, pts in fibers for pt in pts]
    branch = tuple(
        Q for Q, pts in fibers if any(pt.e > 1 for pt in pts)
    )
    tame = all(not pt.wild for pt in all_points)

    checks = {}
    checks["fundamental_equality"] = all(
        sum(pt.e * pt.f for pt in pts) == n for _, pts in fibers
    )
    # d comes from W and e from the fibers: two independent computations
    checks["dedekind"] = all(
        (pt.d >= pt.e if pt.wild else pt.d == pt.e - 1) and (pt.d > 0) == (pt.e > 1)
        for pt in all_points
    )
    # deg Diff = (sum of the factor degrees of W) + 2n - 2 - deg W
    checks["hurwitz"] = diff.degree() == 2 * n - 2
    if tame:
        k = sum(Q.degree for Q in branch)
        n_geo = sum(
            pt.f * Q.degree
            for Q, pts in fibers
            if Q in branch
            for pt in pts
        )
        checks["remark4"] = diff.degree() == k * n - n_geo
    else:
        checks["remark4"] = None

    failed = [name for name, ok in checks.items() if ok is False]
    if failed:
        raise InternalCheckError(
            f"structural identities failed for {cover.to_text()}: "
            + ", ".join(failed),
            payload={"checks": checks, "cover": cover.to_text()},
        )

    return RamificationReport(
        cover=cover,
        fibers=tuple(fibers),
        different_divisor=diff,
        branch_locus=branch,
        tame=tame,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# composition


def compose(inner, outer):
    """The composite cover x -> y of inner x -> t and outer t -> y."""
    if inner.field != outer.field:
        raise PreconditionError("covers over different fields")
    if inner.var_down != outer.var_up:
        raise PreconditionError(
            f"variable mismatch: inner maps to {inner.var_down!r}, "
            f"outer starts from {outer.var_up!r}"
        )
    K = inner.field
    g1, h1 = inner.map.num, inner.map.den
    n2 = outer.degree
    N = _homogenize(outer.map.num, g1, h1, n2)
    D = _homogenize(outer.map.den, g1, h1, n2)
    comp = cover_create(K, N, D, var_up=inner.var_up, var_down=outer.var_down)
    if comp.degree != inner.degree * outer.degree:
        raise InternalCheckError(
            f"composite degree {comp.degree} != "
            f"{inner.degree} * {outer.degree}"
        )
    return comp


# ---------------------------------------------------------------------------
# serialization


def report_as_dict(report):
    cov = report.cover
    up, down = cov.var_up, cov.var_down
    return {
        "field": {"p": cov.field.p, "m": cov.field.m},
        "map": {
            "num": cov.map.num.to_text(up),
            "den": cov.map.den.to_text(up),
        },
        "degree": cov.degree,
        "fibers": [
            {
                "below": Q.text(down),
                "points": [
                    {"above": pt.above.text(up), "e": pt.e, "f": pt.f, "d": pt.d}
                    for pt in pts
                ],
            }
            for Q, pts in report.fibers
        ],
        "different": [
            {"place": pl.text(up), "coeff": c}
            for pl, c in report.different_divisor.items()
        ],
        "different_degree": report.different_divisor.degree(),
        "branch_locus": [Q.text(down) for Q in report.branch_locus],
        "tame": report.tame,
        "checks": dict(report.checks),
    }
