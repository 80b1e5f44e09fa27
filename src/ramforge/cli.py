"""Command line front end.

Verbs operate over GF(p^m) selected with --p/--m.  Polynomial and place
arguments use fixed variable names per verb: covers are maps t = f(x),
pseudo-tameness works in w, bare polynomials use T.  Output is plain
text by default; --format json emits a single canonical JSON document
(sorted keys, no whitespace).

Exit codes: 0 success, 2 parse error, 3 precondition violated, 4 size
budget exceeded, 5 internal consistency check failed.
"""

import argparse
import json
import sys

from .belyi import chain_as_dict, tame_belyi_genus0, wild_belyi
from .cover import (
    RamPoint,
    cover_create,
    fiber,
    ramification_report,
    report_as_dict,
)
from .errors import InternalCheckError, RamforgeError
from .funcfield import (
    _wronskian,
    laurent_expand,
    parse_place,
    parse_rational,
    pole_divisor_of,
    uniformizer_text,
)
from .galois import GF
from .polyring import factor as factor_poly
from .polyring import irreducible_poly, parse_polynomial
from .pseudotame import (
    _check_completion,
    _complete_square,
    _critical_places,
    _local,
    _place_stream,
)


def _field_text(field):
    if field.m == 1:
        return f"GF({field.p})"
    return f"GF({field.p}^{field.m})"


def _check_word(value):
    if value is None:
        return "n/a"
    return "ok" if value else "FAIL"


def _point_line(pt, var_up):
    line = f"{pt.above.pretty(var_up)} | e={pt.e} f={pt.f} d={pt.d}"
    return line + " wild" if pt.wild else line


def _report_text(report):
    cov = report.cover
    up, down = cov.var_up, cov.var_down
    lines = [
        f"cover: {cov.to_text()} over {_field_text(cov.field)}",
        f"degree: {cov.degree}",
    ]
    if cov.normalization is not None:
        alpha = cov.normalization["alpha"]
        lines.append(
            f"normalized: composed with {down} -> 1/({down}+{alpha}) first"
        )
    for below, pts in report.fibers:
        lines.append(f"fiber over {below.pretty(down)}:")
        for pt in pts:
            lines.append("  " + _point_line(pt, up))
    diff = report.different_divisor
    lines.append(f"different: {diff.to_text(up)} (degree {diff.degree()})")
    if report.branch_locus:
        locus = ", ".join(q.pretty(down) for q in report.branch_locus)
        lines.append(f"branch locus: {locus}")
    else:
        lines.append("unramified cover")
    lines.append("tame: " + ("yes" if report.tame else "no"))
    checks = " ".join(f"{k}={_check_word(v)}" for k, v in report.checks.items())
    lines.append(f"checks: {checks}")
    return "\n".join(lines)


def _chain_text(chain):
    parts = [
        f"kind: {chain.kind}",
        f"degree: {chain.composite.degree}",
        f"steps: {len(chain.steps)}",
    ]
    for i, report in enumerate(chain.step_reports, 1):
        parts.append("")
        parts.append(f"step {i}:")
        parts.append(_report_text(report))
    parts.append("")
    parts.append("composite:")
    parts.append(_report_text(chain.report))
    parts.append("")
    parts.append("certificate:")
    for cert in chain.certificate:
        word = "ok" if cert.ok else "FAIL"
        parts.append(f"  {cert.name}: {word} ({cert.detail})")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# verb handlers: each returns (json_object, text)


def _cmd_analyze(args):
    field = GF(args.p, args.m)
    num = parse_polynomial(args.num, field, "x")
    den = parse_polynomial(args.den, field, "x")
    cov = cover_create(field, num, den)
    if args.at is not None:
        below = parse_place(args.at, field, "t")
        report = ramification_report(cov)
        pts = None
        for q, report_pts in report.fibers:
            if q == below:
                pts = report_pts
                break
        if pts is None:
            # not in the report means unramified with trivial different
            pts = tuple(
                RamPoint(above=pl, below=below, e=e, f=f, d=0, wild=False)
                for pl, e, f in fiber(cov, below)
            )
        obj = {
            "below": below.text("t"),
            "points": [
                {"above": pt.above.text("x"), "e": pt.e, "f": pt.f, "d": pt.d}
                for pt in pts
            ],
        }
        lines = [f"fiber over {below.pretty('t')}:"]
        lines += ["  " + _point_line(pt, "x") for pt in pts]
        return obj, "\n".join(lines)
    report = ramification_report(cov)
    return report_as_dict(report), _report_text(report)


def _parse_places(text, field, var):
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        place = parse_place(chunk, field, var)
        if place not in out:
            out.append(place)
    return out


def _cmd_belyi_wild(args):
    field = GF(args.p, args.m)
    spots = _parse_places(args.places, field, "x")
    chain = wild_belyi(field, spots)
    return chain_as_dict(chain), _chain_text(chain)


def _cmd_belyi_tame(args):
    field = GF(args.p, args.m)
    spots = _parse_places(args.places, field, "x")
    chain = tame_belyi_genus0(field, spots)
    return chain_as_dict(chain), _chain_text(chain)


def _place_facts(place, local):
    return {
        "place": place.text("w"),
        "v_dx": local.v_dx,
        "tame": local.tame(),
        "pseudotame": local.pseudotame(),
    }


def _facts_line(facts):
    tame = "yes" if facts["tame"] else "no"
    pseudo = "yes" if facts["pseudotame"] else "no"
    return f"v_dx={facts['v_dx']} tame={tame} pseudotame={pseudo}"


def _cmd_pseudotame(args):
    field = GF(args.p, args.m)
    x = parse_rational(args.x, field, "w")
    W = _wronskian(x)  # one W serves every record of x
    if args.at is not None:
        place = parse_place(args.at, field, "w")
        local = _local(x, place, W)
        facts = _place_facts(place, local)
        lines = [
            f"element: {x.to_text('w')} over {_field_text(field)}",
            f"place: {place.pretty('w')}",
            _facts_line(facts),
        ]
        witness = None
        poles = set(pole_divisor_of(x).support())
        if not facts["tame"] and place not in poles:
            # the first free place, if it is of degree 1 or infinity
            partner = next(_place_stream(field, poles | {place}))
            if partner.degree == 1:
                try:
                    _check_completion(x, place, partner)
                    z = _complete_square(x, place, partner, args.budget, local)
                except RamforgeError as exc:
                    lines.append(f"completion unavailable: {exc}")
                else:
                    # the completion raises unless x + z^2 is tame here
                    witness = {"z": z.to_text("w"), "tame_after": True}
                    lines.append(f"completion z: {witness['z']}")
                    lines.append("x+z^2 tame here: yes")
        facts["witness"] = witness
        facts["element"] = x.to_text("w")
        return facts, "\n".join(lines)

    spots = _critical_places(x, W)
    rows = [_place_facts(place, _local(x, place, W)) for place in spots]
    everywhere = all(r["pseudotame"] for r in rows)
    obj = {
        "element": x.to_text("w"),
        "critical": rows,
        "everywhere": everywhere,
    }
    lines = [f"element: {x.to_text('w')} over {_field_text(field)}"]
    lines.append(
        "critical places: " + ", ".join(p.pretty("w") for p in spots)
    )
    for place, facts in zip(spots, rows):
        lines.append(f"{place.pretty('w')} | " + _facts_line(facts))
    lines.append("pseudotame everywhere: " + ("yes" if everywhere else "no"))
    return obj, "\n".join(lines)


def _cmd_laurent(args):
    field = GF(args.p, args.m)
    f = parse_rational(args.f, field, "x")
    place = parse_place(args.at, field, "x")
    series = laurent_expand(f, place, args.prec)
    obj = {
        "place": place.text("x"),
        "start": series.start,
        "precision": series.precision,
        "terms": [[k, str(c)] for k, c in series.terms()],
        "uniformizer": uniformizer_text(place, "x"),
    }
    text = "\n".join(
        [
            f"expansion of {f.to_text('x')} at {place.pretty('x')}:",
            f"{series.to_text('u')} + O(u^{series.start + series.precision})",
            f"u = {uniformizer_text(place, 'x')}",
        ]
    )
    return obj, text


def _cmd_factor(args):
    field = GF(args.p, args.m)
    f = parse_polynomial(args.poly, field, "T")
    fact = factor_poly(f)
    obj = {
        "input": f.to_text("T"),
        "unit": str(fact.unit),
        "factors": [
            {"poly": g.to_text("T"), "mult": e} for g, e in fact.factors
        ],
    }
    rhs = []
    if not fact.unit == 1:
        rhs.append(str(fact.unit))
    for g, e in fact.factors:
        rhs.append(f"({g.to_text('T')})" + (f"^{e}" if e > 1 else ""))
    if not rhs:
        rhs.append(str(fact.unit))
    return obj, f"{f.to_text('T')} = " + " * ".join(rhs)


def _cmd_field(args):
    field = GF(args.p, args.m)
    modulus = field.modulus
    generator = None
    if field._exp is not None:
        generator = str(field.element(field._exp[1]))
    obj = {
        "p": field.p,
        "m": field.m,
        "q": field.q,
        "modulus": None if modulus is None else modulus.to_text("T"),
        "generator": generator,
        "sample_irreducible_deg2": irreducible_poly(field, 2).to_text("T"),
    }
    lines = [
        f"field: {_field_text(field)}",
        f"p: {field.p}",
        f"m: {field.m}",
        f"q: {field.q}",
        "modulus: "
        + ("T (prime field)" if modulus is None else modulus.to_text("T")),
        "multiplicative generator: "
        + ("(not tabulated)" if generator is None else generator),
        f"least irreducible of degree 2: {obj['sample_irreducible_deg2']}",
    ]
    return obj, "\n".join(lines)


_HANDLERS = {
    "analyze": _cmd_analyze,
    "belyi-wild": _cmd_belyi_wild,
    "belyi-tame": _cmd_belyi_tame,
    "pseudotame": _cmd_pseudotame,
    "laurent": _cmd_laurent,
    "factor": _cmd_factor,
    "field": _cmd_field,
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--p", type=int, required=True, help="field characteristic (a prime)"
    )
    common.add_argument(
        "--m", type=int, default=1, help="extension degree (default 1)"
    )
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help="accepted for driver-script compatibility; the engine itself "
        "is deterministic and ignores it",
    )

    parser = argparse.ArgumentParser(
        prog="ramforge",
        description="exact ramification analysis of rational covers of the "
        "projective line over finite fields",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    s = sub.add_parser(
        "analyze", parents=[common], help="ramification report of t = f(x)"
    )
    s.add_argument("num", help="numerator polynomial in x")
    s.add_argument(
        "den", nargs="?", default="1", help="denominator polynomial in x"
    )
    s.add_argument(
        "--at",
        default=None,
        help="only the fiber over this downstairs place "
        "(monic irreducible in t, or inf)",
    )

    s = sub.add_parser(
        "belyi-wild",
        parents=[common],
        help="wild tower sending the given places into the single branch "
        "point at infinity",
    )
    s.add_argument(
        "--places",
        default="",
        help="comma separated finite places in x (may be empty)",
    )

    s = sub.add_parser(
        "belyi-tame",
        parents=[common],
        help="tame map branched inside {0, 1, inf} splitting the given "
        "places completely",
    )
    s.add_argument(
        "--places",
        default="",
        help="comma separated finite places in x (may be empty)",
    )

    s = sub.add_parser(
        "pseudotame",
        parents=[common],
        help="pseudo-tameness report in characteristic 2",
    )
    s.add_argument("x", help="rational function in w")
    s.add_argument(
        "--at", default=None, help="single place in w to examine"
    )
    s.add_argument(
        "--budget",
        type=int,
        default=None,
        help="pole budget for the square-completion witness",
    )

    s = sub.add_parser(
        "laurent", parents=[common], help="Laurent expansion at a place"
    )
    s.add_argument("f", help="rational function in x")
    s.add_argument(
        "--at", required=True, help="place in x (monic irreducible or inf)"
    )
    s.add_argument(
        "--prec", type=int, default=None, help="number of terms to compute"
    )

    s = sub.add_parser(
        "factor", parents=[common], help="factor a univariate polynomial"
    )
    s.add_argument("poly", help="polynomial in T")

    sub.add_parser(
        "field", parents=[common], help="describe the canonical field model"
    )

    return parser


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        obj, text = _HANDLERS[args.verb](args)
    except RamforgeError as exc:
        print(f"ramforge: error: {exc}", file=sys.stderr)
        if isinstance(exc, InternalCheckError) and exc.payload is not None:
            print(_canonical_json(exc.payload), file=sys.stderr)
        return exc.exit_code
    if args.format == "json":
        out = _canonical_json(obj)
    else:
        out = text
    sys.stdout.write(out + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
