#!/usr/bin/env python3
"""Build a wild tower over a chosen finite field and walk through it.

Constructs the chain for a set of finite places, prints every step with
its fiber data, and ends with the recomputed certificate.  Fully
deterministic for a given configuration.

    python3 scripts/tower_demo.py
    python3 scripts/tower_demo.py --p 3 --places x+1,x^2+1
    python3 scripts/tower_demo.py --p 2 --m 2 --places x+z
"""

import argparse
import dataclasses

from ramforge import GF, wild_belyi
from ramforge.funcfield import parse_place


@dataclasses.dataclass(frozen=True)
class DemoConfig:
    p: int = 2
    m: int = 1
    places: tuple = ("x^2+x+1",)


def show_report(rep, var_up, var_down):
    cov = rep.cover
    print(f"  map: {cov.to_text()}  (degree {cov.degree})")
    for below, pts in rep.fibers:
        print(f"  fiber over {below.pretty(var_down)}:")
        for pt in pts:
            tag = " wild" if pt.wild else ""
            print(
                f"    {pt.above.pretty(var_up)} e={pt.e} f={pt.f} d={pt.d}{tag}"
            )
    print(f"  different degree: {rep.different_divisor.degree()}")


def run(cfg):
    field = GF(cfg.p, cfg.m)
    S = {parse_place(s, field, "x") for s in cfg.places if s}
    chain = wild_belyi(field, S)
    label = ", ".join(sorted(s for s in cfg.places if s))
    print(f"tower over GF({field.q}) for S = {{{label}}}")
    print(f"kind: {chain.kind}, composite degree {chain.composite.degree}")
    for i, (step, rep) in enumerate(zip(chain.steps, chain.step_reports), 1):
        print(f"\nstep {i}:")
        show_report(rep, step.var_up, step.var_down)
    print("\ncomposite:")
    show_report(chain.report, chain.composite.var_up, chain.composite.var_down)
    print("\ncertificate:")
    for c in chain.certificate:
        word = "ok" if c.ok else "FAIL"
        print(f"  {c.name}: {word} ({c.detail})")


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, default=2, help="characteristic")
    ap.add_argument("--m", type=int, default=1, help="extension degree")
    ap.add_argument(
        "--places",
        default="x^2+x+1",
        help="comma-separated finite places for S; empty string for S = {}",
    )
    a = ap.parse_args()
    places = tuple(s.strip() for s in a.places.split(",") if s.strip())
    return DemoConfig(p=a.p, m=a.m, places=places)


if __name__ == "__main__":
    run(parse_args())
