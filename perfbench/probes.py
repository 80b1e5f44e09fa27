"""Probes of single layers, outside the workloads' job loops.

Kernel probes time field and polynomial arithmetic at fixed sizes.  The
baseline rows repeat the ROADMAP's baseline table, each in its own child
process under a time box: a row that runs past its box is killed and
recorded as exceeded, with the time it had run.
"""

import collections
import json
import os
import random
import statistics
import subprocess
import sys
import time

from workloads import HERE, ROOT, cli_env

KERNEL_FIELDS = {"gf2": (2, 1), "gf4": (2, 2), "gf3": (3, 1), "gf9": (3, 2)}
KERNEL_DEGREES = {"d16": (16, 15), "d256": (256, 3)}  # degree: repeats
RAW_OPS = 4000


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_probes(seed):
    """galois.*_raw_ns and polyring.*_ms at fixed sizes, untraced."""
    from ramforge import GF
    from ramforge.polyring import Polynomial, gcd

    rng = random.Random(f"kernels:{seed}")
    out = {}
    for tag in ("gf4", "gf9"):
        K = GF(*KERNEL_FIELDS[tag])
        pairs = [(rng.randrange(1, K.q), rng.randrange(1, K.q)) for _ in range(RAW_OPS)]
        add, mul, inv = K.add_raw, K.mul_raw, K.inv_raw
        ops = {
            "add": lambda: [add(a, b) for a, b in pairs],
            "mul": lambda: [mul(a, b) for a, b in pairs],
            "inv": lambda: [inv(a) for a, _ in pairs],
        }
        for op, fn in ops.items():
            out[f"galois.{op}_raw_ns.{tag}"] = (_median_time(fn, 7) / RAW_OPS * 1e9, "ns")
    for tag, (p, m) in KERNEL_FIELDS.items():
        K = GF(p, m)
        for dtag, (d, repeats) in KERNEL_DEGREES.items():
            def poly(deg):
                c = [rng.randrange(K.q) for _ in range(deg)]
                return Polynomial(K, c + [rng.randrange(1, K.q)])

            a, b, c = poly(d), poly(d), poly(2 * d)
            ops = {
                "mul": lambda: a * b,
                "divmod": lambda: divmod(c, b),
                "gcd": lambda: gcd(a, b),
            }
            for op, fn in ops.items():
                secs = _median_time(fn, repeats)
                out[f"polyring.{op}_ms.{tag}.{dtag}"] = (secs * 1e3, "ms")
    return out


# ---------------------------------------------------------------------------
# baseline rows: name -> Row.  A row with wall=True is timed from outside
# (wall time of a CLI run or of the test suite, as a user sees it); the
# others time their operation inside the child.  The degree-512 multiply
# is printed, not a metric: polyring.mul_ms.gf2.d256 tracks the same kernel.

Row = collections.namedtuple("Row", "box owner cmd wall")


def _cli(*args):
    return [sys.executable, "-m", "ramforge.cli"] + list(args)


def _row(name):
    return [sys.executable, os.path.join(HERE, "run.py"), "--row", name]


ROWS = {
    "baseline.factor_x512_gf2_s": Row(5, "survey", _row("factor_x512_gf2"), False),
    "baseline.factor_x256_gf4_s": Row(8, "survey", _row("factor_x256_gf4"), False),
    "baseline.mul512_gf2_ms": Row(5, "survey", _row("mul512_gf2"), False),
    "baseline.cli_wild_gf4_d135_s": Row(
        8, "cli", _cli("belyi-wild", "--p", "2", "--m", "2",
                          "--places", "x+1,x^2+x+z"), True),
    "baseline.cli_wild_p5_d864_s": Row(
        5, "cli", _cli("belyi-wild", "--p", "5", "--places", "x^2+x+1"), True),
    "baseline.pseudotame_gf8_deg7_s": Row(5, "char2", _row("pseudotame_gf8_deg7"), False),
    "baseline.field_gf3_10_s": Row(12, "cli", _row("field_gf3_10"), False),
    "baseline.field_gf2_16_s": Row(6, "cli", _row("field_gf2_16"), False),
    "tests.tier1_s": Row(
        90, "char2", [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                     "--continue-on-collection-errors"], True),
}


def row_child(name):
    """Body of one baseline row, run in its own process; prints a JSON line."""
    from ramforge import GF, Place, factor, field_create, is_pseudotame_at
    from ramforge.funcfield import RationalFunction
    from ramforge.polyring import Polynomial, irreducible_poly

    result = {}
    if name.startswith("factor_"):
        K = GF(2) if name.endswith("gf2") else GF(2, 2)
        n = 512 if name.endswith("gf2") else 256
        x = Polynomial.x(K)
        t0 = time.perf_counter()
        fac = factor(x**n - x)
        result["seconds"] = time.perf_counter() - t0
        # x^(q^k) - x is the product of the monic irreducibles of degree | k
        result["ok"] = len(fac.factors) == (60 if n == 512 else 70)
    elif name == "mul512_gf2":
        sys.path.insert(0, os.path.join(ROOT, "tests"))
        from oracles import clmul

        rng = random.Random(512)
        a, b = (rng.getrandbits(512) | 1 << 512 for _ in range(2))
        K = GF(2)
        pa, pb = (Polynomial(K, [(v >> i) & 1 for i in range(513)]) for v in (a, b))
        list_s = _median_time(lambda: pa * pb, 5)
        oracle_s = _median_time(lambda: clmul(a, b), 5)
        prod = pa * pb
        bits = sum(c.val << i for i, c in enumerate(prod.coeffs))
        result.update(seconds=list_s, oracle_seconds=oracle_s, ok=bits == clmul(a, b))
    elif name == "pseudotame_gf8_deg7":
        K = GF(2, 3)
        P = Place(K, irreducible_poly(K, 7))
        w = Polynomial.x(K)
        t0 = time.perf_counter()
        is_pseudotame_at(RationalFunction(w**5 + w**2), P)
        result.update(seconds=time.perf_counter() - t0, ok=True)
    elif name.startswith("field_"):
        p, m = (3, 10) if name == "field_gf3_10" else (2, 16)
        t0 = time.perf_counter()
        field_create(p, m)
        result.update(seconds=time.perf_counter() - t0, ok=True)
    print(json.dumps(result))


def run_rows(workload):
    """The rows this workload's traced run probes; others read 0 (n/a)."""
    out, lines, ok = {}, [], True
    for name, row in ROWS.items():
        unit = "ms" if name.endswith("_ms") else "s"
        out[name] = (0.0, unit)
        if row.owner != workload:
            continue
        t0 = time.perf_counter()
        proc = subprocess.Popen(row.cmd, cwd=ROOT, env=cli_env(), text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            stdout, stderr = proc.communicate(timeout=row.box)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            out[name] = (time.perf_counter() - t0, unit)
            lines.append(f"  {name}: EXCEEDED its {row.box} s box "
                         f"(killed after {out[name][0]:.2f} s)")
            continue
        wall = time.perf_counter() - t0
        if row.wall:
            out[name] = (wall, unit)
            status = f"exit {proc.returncode}"
            if name == "tests.tier1_s":
                status = (stdout.strip().splitlines() or ["no output"])[-1]
            elif proc.returncode != 0:
                ok = False
            lines.append(f"  {name}: {wall:.3f} s ({status})")
            continue
        try:
            res = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            ok = False
            lines.append(f"  {name}: child failed: {stderr.strip()[-200:]}")
            continue
        ok = ok and res["ok"]
        scale = 1e3 if unit == "ms" else 1.0
        out[name] = (res["seconds"] * scale, unit)
        lines.append(f"  {name}: {out[name][0]:.3f} {unit} (ok={res['ok']})")
        if "oracle_seconds" in res:
            lines.append(f"  tests/oracles.py clmul: {res['oracle_seconds'] * 1e3:.4f} ms")
    del out["baseline.mul512_gf2_ms"]
    return out, lines, ok


def startup_probes(repeats=5):
    """cli.interpreter_ms (bare interpreter) and cli.import_ms (import ramforge)."""
    env = cli_env()
    bare, imports = [], []
    code = ("import time; t = time.perf_counter(); import ramforge; "
            "print(time.perf_counter() - t)")
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
        bare.append(time.perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              check=True, capture_output=True, text=True)
        imports.append(float(proc.stdout))
    return {
        "cli.interpreter_ms": (statistics.median(bare) * 1e3, "ms"),
        "cli.import_ms": (statistics.median(imports) * 1e3, "ms"),
    }
