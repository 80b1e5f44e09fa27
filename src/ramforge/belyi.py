"""Constructive Belyi-type covers of the projective line over F_q.

Two pipelines, both returning fully verified chains:

* tame: t = 1 - x^(q^r - 1) with r the lcm of the degrees of the requested
  places.  Each requested place lands unramified over (t=0), while (x=0)
  and (x=infinity) are totally ramified over (t=1) and (t=infinity); the
  branch locus is inside {1, infinity} and the cover is tame.

* wild: the tame map followed by two degree-(p+1) wild steps
  v = ((s-c)^(p+1)+1)/(s-c) with shifts 0 and 2, which funnel every branch
  point into the single place (y=infinity).

Every claim the construction makes is recomputed from scratch on the
composite by the ramification engine; a mismatch raises InternalCheckError.
"""

import math

from .config import MAX_COVER_DEGREE
from .cover import (
    compose,
    cover_create,
    pushforward_place,
    ramification_report,
    report_as_dict,
)
from .errors import InternalCheckError, PreconditionError, SizeBoundError
from .funcfield import Place, RationalFunction
from .polyring import Polynomial
from .record import Record


class CertCheck(Record):
    __slots__ = ("name", "ok", "detail")  # str, bool, str


class BelyiChain(Record):
    # steps: RationalCovers; step_reports: one RamificationReport per step;
    # composite: a RationalCover; kind: "wild" | "tame"; report: the
    # RamificationReport of the composite; certificate: CertChecks
    __slots__ = ("steps", "step_reports", "composite", "kind", "report", "certificate")


def _check_degree(n, what):
    """Raise SizeBoundError when a map of degree n would pass the cap."""
    if n > MAX_COVER_DEGREE:
        raise SizeBoundError(f"{what} = {n} exceeds the cap {MAX_COVER_DEGREE}")


def _head_degree(field, S, what):
    """q^r - 1, r the lcm of the degrees over S.  Since q^r >= 2^r, an r past
    the bit length of the cap raises SizeBoundError before any power."""
    r = math.lcm(*(P.degree for P in S))
    if r > MAX_COVER_DEGREE.bit_length():
        raise SizeBoundError(f"{what} with r = {r} exceeds the cap {MAX_COVER_DEGREE}")
    return field.q**r - 1


def _require(cond, name, detail):
    if not cond:
        raise InternalCheckError(f"certificate {name} failed: {detail}")
    return CertCheck(name=name, ok=True, detail=detail)


# ---------------------------------------------------------------------------
# the tame map


def lemma_main_map(field, S, var_up="x", var_down="t"):
    """The cover t = 1 - x^(q^r - 1), r = lcm of the degrees over S.

    Verifies on the computed report: every place of S sits unramified over
    (t=0); (x=0) over (t=1) and (x=infinity) over (t=infinity) are totally
    ramified; nothing else ramifies; the cover is tame.
    """
    if not S:
        raise PreconditionError("S must be nonempty")
    zero_place = Place(field, Polynomial.x(field))
    for P in S:
        if P.is_infinite:
            raise PreconditionError("places in S must be finite")
        if P == zero_place:
            raise PreconditionError(
                "S may not contain (x=0); pre-compose with a translation first"
            )
        if P.field != field:
            raise PreconditionError("place over the wrong field")
    n = _head_degree(field, S, "map degree q^r - 1")
    _check_degree(n, "map degree q^r - 1")
    g = Polynomial.constant(field, 1) - Polynomial.monomial(field, n)
    cov = cover_create(field, g, var_up=var_up, var_down=var_down)
    rep = ramification_report(cov)

    t0 = Place(field, Polynomial.x(field))  # (t=0)
    t1 = Place.from_root(field.element(1))  # (t=1)
    tinf = Place.infinite(field)
    for P in S:
        if pushforward_place(cov, P) != t0:
            raise InternalCheckError(f"{P.text(var_up)} does not lie over 0")
    if n > 1:
        for P in S:
            if rep.different_divisor.coefficient(P) != 0:  # Dedekind: e > 1
                raise InternalCheckError(f"{P.text(var_up)} ramifies over 0")
        fibs = dict(rep.fibers)
        if not any(
            pt.above == zero_place and pt.e == n and pt.f == 1
            for pt in fibs.get(t1, ())
        ):
            raise InternalCheckError("(x=0) not totally ramified over 1")
        if not any(
            pt.above.is_infinite and pt.e == n and pt.f == 1
            for pt in fibs.get(tinf, ())
        ):
            raise InternalCheckError("(x=inf) not totally ramified over inf")
        allowed = {t1, tinf}
        if not set(rep.branch_locus) <= allowed:
            raise InternalCheckError("unexpected branch place in the tame map")
    else:
        if rep.branch_locus:
            raise InternalCheckError("degree-1 map must be unramified")
    if not rep.tame:
        raise InternalCheckError("the 1 - x^(q^r-1) map must be tame")
    return cov, rep


# ---------------------------------------------------------------------------
# the wild step


def wild_step(field, shift, var_up="t", var_down="u"):
    """The degree-(p+1) cover v = ((s - shift)^(p+1) + 1)/(s - shift).

    Returns (cover, report).  Its one branch place is (v=infinity), with
    fiber {(s=shift): e=1, (s=infinity): e=p, d=2p}; this is read off the
    computed report and enforced.  These checks back the chain's
    f_beta_separable entry: the fiber over v = beta is cut out by
    f = T^(p+1) - beta*T + 1 (T = s - shift), and no finite place in the
    branch locus means f is separable for every beta in the algebraic
    closure, since p + 1 = 1 makes dv/dT = -1/T^2 zero-free.
    """
    p = field.p
    c = field.element(shift)
    s_minus_c = Polynomial(field, [(-c).val, 1])
    g = s_minus_c ** (p + 1) + 1
    cov = cover_create(field, g, s_minus_c, var_up=var_up, var_down=var_down)
    rep = ramification_report(cov)
    vinf = Place.infinite(field)
    if tuple(rep.branch_locus) != (vinf,):
        raise InternalCheckError("wild step must branch exactly at infinity")
    pts = dict(rep.fibers)[vinf]
    if len(pts) != 2:
        raise InternalCheckError("wild step fiber over infinity must have 2 points")
    by_above = {pt.above: pt for pt in pts}
    shifted_zero = Place(field, s_minus_c)
    if by_above[shifted_zero].e != 1:
        raise InternalCheckError("shifted zero must be unramified")
    wild_pt = by_above[Place.infinite(field)]
    if wild_pt.e != p or wild_pt.d != 2 * p:
        raise InternalCheckError(
            f"wild point has (e, d) = ({wild_pt.e}, {wild_pt.d}), "
            f"expected ({p}, {2 * p})"
        )
    return cov, rep


# ---------------------------------------------------------------------------
# chains


def _chain_pushforward(pairs, P):
    """The place under P at the bottom of a chain of (cover, report) steps,
    and the product of the e along the way.

    Each e is read off the step's report when it lists the fiber; otherwise
    P lies outside the support of the step's different, so e = 1.
    """
    cur = P
    e_total = 1
    for step, rep in pairs:
        Q = pushforward_place(step, cur)
        pts = dict(rep.fibers).get(Q)
        if pts is not None:
            e = next((pt.e for pt in pts if pt.above == cur), None)
            if e is None:  # pragma: no cover
                raise InternalCheckError("fiber/pushforward inconsistency")
            e_total *= e
        elif rep.different_divisor.coefficient(cur) != 0:  # pragma: no cover
            raise InternalCheckError(
                f"{cur.text(step.var_up)} ramifies but its fiber is not listed"
            )
        cur = Q
    return cur, e_total


def _compose_all(steps):
    comp = steps[0]
    for step in steps[1:]:
        comp = compose(comp, step)
    return comp


def _substitute_all(steps):
    """The composite map by Horner substitution of each step into the next.

    An independent route to the map `_compose_all` builds by homogenizing.
    """

    def horner(poly, r):
        acc = RationalFunction.constant(r.field, 0)
        for c in reversed(poly.coeffs):
            acc = acc * r + c
        return acc

    cur = steps[0].map
    for step in steps[1:]:
        cur = horner(step.num, cur) / horner(step.den, cur)
    return cur


def _verify_chain_multiplicativity(report, landings):
    details = []
    fibs = {Q: {pt.above: pt for pt in pts} for Q, pts in report.fibers}
    for P, Q, e_chain in landings:
        pt = fibs.get(Q, {}).get(P)
        e_comp = pt.e if pt is not None else None
        if e_comp != e_chain:
            raise InternalCheckError(
                f"chain e-product {e_chain} != composite e {e_comp} "
                f"at {P.text()}"
            )
        details.append(f"{P.text()}:{e_chain}")
    return ", ".join(details)


def wild_belyi(field, S, var_up="x"):
    """A chain whose composite branches only over (y=infinity).

    With S nonempty the chain is [1 - x^(q^r-1); wild step at shift 0;
    wild step at shift 1+1] from x down to y.  The first shift pins (t=0),
    where S lands, under the wild point; the second must be the image
    1^(p+1) + 1 = 1 + 1 of the head's branch place (t=1), so that its
    ramification also drains to (y=infinity).  (1+1 is the field element,
    not the encoding 2: over GF(4) they differ.)  With S empty the tame
    head is unnecessary and the chain is the two wild steps alone
    (starting at t).  The certificate is recomputed from the composite,
    never assumed.  A composite degree (q^r - 1)*(p + 1)^2 above the
    degree cap raises SizeBoundError before any map is built.
    """
    two = field.element(1) + field.element(1)
    pairs = []
    specials = [Place(field, Polynomial.x(field)), Place.infinite(field)]
    what = "composite degree (q^r - 1)*(p + 1)^2"
    head_degree = _head_degree(field, S, what) if S else 1
    expected_degree = head_degree * (field.p + 1) ** 2
    # the composite is built and factored, so it is capped like the head map
    _check_degree(expected_degree, what)
    if S:
        pairs.append(lemma_main_map(field, S, var_up=var_up, var_down="t"))
        specials = list(S) + specials
    pairs.append(wild_step(field, 0, var_up="t", var_down="u"))
    pairs.append(wild_step(field, two, var_up="u", var_down="y"))
    steps = [cov for cov, _ in pairs]
    composite = _compose_all(steps)
    report = ramification_report(composite)
    yinf = Place.infinite(field)
    landings = [(P, *_chain_pushforward(pairs, P)) for P in specials]

    cert = []
    cert.append(
        _require(
            _substitute_all(steps) == composite.map,
            "composite_equals_steps",
            f"{len(steps)} steps compose to degree {composite.degree}",
        )
    )
    cert.append(
        _require(
            composite.degree == expected_degree,
            "composite_degree",
            f"degree {composite.degree} == {expected_degree}",
        )
    )
    cert.append(
        _require(
            set(report.branch_locus) <= {yinf},
            "branch_locus_subset",
            "branch locus inside {(y=inf)}: "
            + (report.branch_locus[0].text("y") if report.branch_locus else "empty"),
        )
    )
    cert.append(
        _require(
            composite.degree == 1 or not report.tame,
            "wild_when_nontrivial",
            f"degree {composite.degree} cover is wild",
        )
    )
    sp_details = []
    for P, Q, _ in landings:
        if Q != yinf:
            raise InternalCheckError(
                f"special place {P.text()} lands at {Q.text('y')}, not (y=inf)"
            )
        sp_details.append(P.text(steps[0].var_up))
    cert.append(
        CertCheck(
            name="special_places_to_infinity",
            ok=True,
            detail="all of " + ", ".join(sp_details) + " -> (y=inf)",
        )
    )
    mult_detail = _verify_chain_multiplicativity(report, landings)
    cert.append(
        CertCheck(name="chain_e_multiplicative", ok=True, detail=mult_detail)
    )
    cert.append(
        CertCheck(
            name="f_beta_separable",
            ok=True,
            detail="swept inside each wild step",
        )
    )
    return BelyiChain(
        steps=tuple(steps),
        step_reports=tuple(rep for _, rep in pairs),
        composite=composite,
        kind="wild",
        report=report,
        certificate=tuple(cert),
    )


def tame_belyi_genus0(field, S, var_up="x"):
    """Single-step tame chain: branch locus within {(t=1), (t=infinity)}."""
    cov, rep = lemma_main_map(field, S, var_up=var_up, var_down="t")
    n = cov.degree
    t1 = Place.from_root(field.element(1))
    tinf = Place.infinite(field)
    cert = []
    cert.append(_require(rep.tame, "tame", f"degree {n} prime to {field.p}"))
    cert.append(
        _require(
            set(rep.branch_locus) <= {t1, tinf},
            "branch_in_zero_one_inf",
            "branch locus inside {(t=1), (t=inf)}",
        )
    )
    if n > 1:
        fibs = dict(rep.fibers)
        both_total = set(rep.branch_locus) == {t1, tinf} and all(
            len(fibs[Q]) == 1 and fibs[Q][0].e == n for Q in (t1, tinf)
        )
        cert.append(
            _require(
                both_total,
                "two_totally_ramified",
                f"k=2 branch places, each with a single point of e={n}",
            )
        )
    else:
        cert.append(
            CertCheck(
                name="two_totally_ramified",
                ok=True,
                detail="degree 1: unramified edge case",
            )
        )
    return BelyiChain(
        steps=(cov,),
        step_reports=(rep,),
        composite=cov,
        kind="tame",
        report=rep,
        certificate=tuple(cert),
    )


def chain_as_dict(chain):
    return {
        "steps": [report_as_dict(r) for r in chain.step_reports],
        "composite": report_as_dict(chain.report),
        "kind": chain.kind,
        "certificate": [
            {"name": c.name, "ok": c.ok, "detail": c.detail}
            for c in chain.certificate
        ],
    }
