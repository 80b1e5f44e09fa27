#!/usr/bin/env python3
"""Benchmark of ramforge: three seeded closed-loop workloads.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
With `--trace 0` the run measures the end-to-end metrics; with `--trace 1`
it runs each round untraced and then traced, and reports the per-layer
metrics, the kernel probes and the baseline rows.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.

Maintenance: `--record-digests` runs the whole input pool of a seed once
and merges its output digests into perfbench/digests/<workload>.json,
which lists the seeds it covers.  Run it at the parent commit to check a
change on a new seed.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # for confirming a claim on a seed not used to tune it
SETUP_CHILDREN = 3


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def import_library():
    """Import ramforge from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "ramforge", "__init__.py")):
        fail(f"no ramforge sources under {SRC}")
    sys.path.insert(0, SRC)
    import ramforge

    if os.path.dirname(os.path.dirname(os.path.abspath(ramforge.__file__))) != SRC:
        fail(f"ramforge imported from {ramforge.__file__}, not from {SRC}")


def setup(workload, seed):
    """Import the library, build the workload's fields and draw its inputs.

    Returns the rounds, the set-up's wall time and the host's mean kernel
    time (calibrate.py) over five calls before it and five after it.
    """
    before = calibrate.samples(5)
    t0 = time.perf_counter()
    import_library()
    import workloads

    rounds = workloads.WORKLOADS[workload](seed)
    wall = time.perf_counter() - t0
    return rounds, wall, statistics.fmean(before + calibrate.samples(5))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest_path(workload):
    return os.path.join(HERE, "digests", f"{workload}.json")


def load_digests(workload):
    """(seeds whose whole input pool is covered, input digest -> output digest)."""
    try:
        with open(digest_path(workload)) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return [], {}
    return table["seeds"], table["digests"]


class JobTimeout(BaseException):
    """A job ran past its workload's time box (BaseException: never swallowed)."""


def _alarm(signum, frame):
    raise JobTimeout


class Result:
    __slots__ = ("job", "wall", "output", "digest", "error", "exceeded", "self_s")

    def __init__(self, job, wall, output, error, exceeded, self_s):
        self.job, self.wall, self.output = job, wall, output
        self.digest = None if output is None else digest(output)
        self.error, self.exceeded, self.self_s = error, exceeded, self_s


def run_job(job, box):
    """(output, error, exceeded): a job past its box is stopped, not failed."""
    signal.setitimer(signal.ITIMER_REAL, box)
    try:
        out = job.run()
    except JobTimeout:
        return None, None, True
    except Exception as exc:  # a failed job is counted; the loop goes on
        return None, f"{type(exc).__name__}: {exc}", False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if job.key.startswith("cli|") and not out.startswith("exit=0\n"):
        return out, out.split("\n", 1)[0], False
    return out, None, False


def run_round(jobs, box, tracer=None, sampler=None):
    """With a sampler, the box is `box` seconds at the reference host speed,
    so that a slower host does not stop more jobs."""
    signal.signal(signal.SIGALRM, _alarm)
    results = []
    job_box = box
    for job in jobs:
        if sampler is not None:
            sampler.maybe()
            job_box = box * sampler.mean() / calibrate.REF_S
        self0 = tracer.self_total if tracer else 0.0
        t0 = time.perf_counter()
        out, error, exceeded = run_job(job, job_box)
        wall = time.perf_counter() - t0
        if tracer is not None and getattr(job, "trace", None):
            tracer.merge(job.trace)
        self_s = tracer.self_total - self0 if tracer else 0.0
        results.append(Result(job, wall, out, error, exceeded, self_s))
    return results


def run_loop(rounds, seconds, box, sampler):
    """Run whole rounds, at least two, cycling the pool, until `seconds` pass.

    The calibration kernel is timed between jobs, outside their time.
    """
    results = []
    start = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - start < seconds:
        results += run_round(rounds[i % len(rounds)], box, sampler=sampler)
        i += 1
    sampler.maybe()
    return results


def check(results, expected, covered, lines):
    """Count failed jobs: errors, non-zero exits and digest mismatches.

    When the committed digests cover the seed (`covered`), a completed job
    whose input has no committed digest fails too, so a change to the
    canonical input or output text cannot pass unchecked.
    """
    failed = 0
    seen = {}
    checked = 0
    for r in results:
        key = digest(r.job.key)
        want = expected.get(key) or seen.get(key)
        why = r.error
        if why is None and r.digest is not None:
            if want is not None and r.digest != want:
                why = f"digest {r.digest} != {want}"
            elif covered and key not in expected:
                why = "no committed digest for this input"
            seen.setdefault(key, r.digest)
        checked += key in expected
        if why is not None:
            failed += 1
            if failed <= 5:
                lines.append(f"  FAILED {r.job.key[:120]}: {why}")
    exceeded = sum(r.exceeded for r in results)
    lines.append(f"  digests: {checked}/{len(results)} jobs checked against "
                 f"committed digests, {failed} failed, {exceeded} exceeded their box")
    return failed


def throughput(results):
    """Completed jobs per second of the summed wall time of whole rounds.

    A job stopped at its box counts with its time and no completion.
    """
    return sum(not r.exceeded for r in results) / sum(r.wall for r in results)


def latency_metrics(workload, results, scale, lines):
    """Throughput and latencies at the reference host speed: job times are
    multiplied by `scale` (calibrate.REF_S over the run's kernel time)."""
    import workloads

    walls = sorted(r.wall for r in results)
    n = len(walls)
    pct = workloads.TAIL_PERCENTILE[workload]
    rank = min(n - 1, math.ceil(pct / 100.0 * n) - 1)
    lines.append(f"  latency_tail_ms is p{pct} of n={n} jobs ({n - 1 - rank} beyond it)")
    raw = (throughput(results), statistics.median(walls) * 1e3, walls[rank] * 1e3)
    p99 = walls[min(n - 1, math.ceil(0.99 * n) - 1)] * 1e3
    lines.append(f"  as measured: {raw[0]:.6g} jobs/s, p50 {raw[1]:.6g} ms, "
                 f"p{pct} {raw[2]:.6g} ms, p99 {p99:.6g} ms")
    return {
        "throughput_jobs_per_s": (raw[0] / scale, "1/s"),
        "latency_p50_ms": (raw[1] * scale, "ms"),
        "latency_tail_ms": (raw[2] * scale, "ms"),
    }


def child_setups(workload, seed):
    """(set-up wall time, kernel time) of fresh processes."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((out["setup_s"], out["kernel_s"]))
    return samples


def sympy_cross_check(results, rounds, lines):
    """Survey fibers over GF(2), GF(3), GF(5) against sympy's factor_list."""
    import crosscheck

    done, bad = crosscheck.fibers(results[:len(rounds[0])])
    lines.append(f"  sympy cross-check: {done} fibers, {len(bad)} disagree")
    lines += [f"  DISAGREE {b}" for b in bad[:5]]
    return done > 0 and not bad


def measure(args, rounds, setup_main, lines):
    seeds, expected = load_digests(args.workload)
    sampler = calibrate.Sampler()
    results = run_loop(rounds, args.seconds, job_box(args.workload), sampler)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setups = [setup_main] + child_setups(args.workload, args.seed)
    failed = check(results, expected, args.seed in seeds, lines)
    # In-process jobs feel every fast and slow spell of the host, so the
    # mean kernel time tracks them.  cli jobs run in child processes, and
    # short spells that slow the kernel several-fold between them move the
    # jobs far less (over ten runs the mean corrected cli's spread to 0.31,
    # the median to 0.03-0.05), so cli takes the median.
    kernel = (statistics.median if args.workload == "cli" else statistics.fmean)(
        sampler.samples)
    lines.append(f"  host speed: kernel {kernel * 1e3:.4g} ms (mean of "
                 f"{len(sampler.samples)}: {sampler.mean() * 1e3:.4g} ms, median "
                 f"{statistics.median(sampler.samples) * 1e3:.4g} ms, "
                 f"reference {calibrate.REF_S * 1e3:g} ms)")
    metrics = latency_metrics(args.workload, results, calibrate.REF_S / kernel, lines)
    # each set-up at the speed of the process that made it
    metrics["setup_s"] = (statistics.median(
        wall * calibrate.REF_S / k for wall, k in setups), "s")
    metrics["peak_rss_mb"] = (peak_mb, "MB")
    lines.append(f"  error_rate = {failed / len(results):.4f} "
                 f"({failed} of {len(results)} jobs)")
    lines.append("  setup_s samples (wall s / kernel ms): " + ", ".join(
        f"{wall:.3f}/{k * 1e3:.3g}" for wall, k in setups))
    correct = failed == 0
    if args.workload == "survey":
        correct = sympy_cross_check(results, rounds, lines) and correct
    return correct, len(results), failed, metrics


def measure_traced(args, rounds, lines):
    from spans import Tracer, layer_metrics
    import probes
    import workloads

    seeds, expected = load_digests(args.workload)
    covered = args.seed in seeds
    box = job_box(args.workload)
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    i = 0
    # each round runs untraced, then traced: same inputs, same machine state
    while not i or time.perf_counter() - start < args.seconds:
        jobs = rounds[i % len(rounds)]
        plain += run_round(jobs, box)
        tracer.install()
        try:
            traced += run_round(jobs, box, tracer)
        finally:
            tracer.uninstall()
        i += 1
    failed = (check(plain, expected, covered, lines)
              + check(traced, expected, covered, lines))
    correct = failed == 0
    same = all(a.digest == b.digest for a, b in zip(plain, traced)
               if a.digest and b.digest)
    lines.append(f"  traced digests equal untraced: {same}")
    over = [r for r in traced if r.self_s > r.wall + 1e-6]
    lines.append(f"  jobs whose summed self time exceeds their wall time: {len(over)}")
    correct = correct and same and not over

    metrics = layer_metrics(tracer)
    ratio = throughput(traced) / throughput(plain)
    lines.append(f"  traced/untraced throughput = {ratio:.3f} "
                 f"({len(traced)} traced jobs, {len(plain)} untraced)")
    metrics.update(probes.kernel_probes(args.seed))
    rows, row_lines, rows_ok = probes.run_rows(args.workload)
    metrics.update(rows)
    lines += row_lines
    correct = correct and rows_ok
    is_cli = args.workload == "cli"
    metrics.update(probes.startup_probes() if is_cli else
                   {"cli.interpreter_ms": (0.0, "ms"), "cli.import_ms": (0.0, "ms")})
    metrics["cli.render_s"] = (tracer.render_s if is_cli else 0.0, "s")
    for verb in workloads.CLI_VERBS:
        walls = [r.wall for r in plain if r.job.key.startswith(f"cli|{verb} ")]
        metrics[f"cli.{verb}.p50_ms"] = (
            statistics.median(walls) * 1e3 if walls else 0.0, "ms")
    return correct, len(plain) + len(traced), failed, metrics


def job_box(workload):
    import workloads

    return workloads.JOB_BOX_S[workload]


def record_digests(args, rounds):
    """Digests of every job in the pool; the seed counts as covered only if
    every job completed, under a box far wider than the runs use."""
    import workloads

    signal.signal(signal.SIGALRM, _alarm)
    path = digest_path(args.workload)
    seeds, table = load_digests(args.workload)
    for jobs in rounds:
        for job in jobs:
            out, error, exceeded = run_job(job, workloads.RECORD_BOX_S)
            if error is not None:
                fail(f"{job.key}: {error}")
            if exceeded:
                fail(f"{job.key}: exceeded its box; seed {args.seed} not recorded")
            table[digest(job.key)] = digest(out)
    seeds = sorted(set(seeds) | {args.seed})
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"seeds": seeds, "digests": table}, fh, sort_keys=True, indent=0)
        fh.write("\n")
    print(f"{len(table)} digests for seeds {seeds} in {path}")


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("survey", "char2", "cli"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is "
                         "held out for confirming a claim)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-digests", action="store_true")
    return ap.parse_args(argv)


def main(argv=None):
    if argv is None and sys.argv[1:2] == ["--row"]:
        import_library()
        import probes

        probes.row_child(sys.argv[2])
        return 0
    args = parse_args(argv)
    rounds, setup_s, kernel_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s}))
        return 0
    if args.record_digests:
        record_digests(args, rounds)
        return 0
    names = expected_names(args.trace)
    lines = [f"workload {args.workload}, seed {args.seed}, "
             f"{args.seconds:g} s, trace {args.trace}"]
    if args.trace:
        correct, attempted, failed, metrics = measure_traced(args, rounds, lines)
    else:
        correct, attempted, failed, metrics = measure(
            args, rounds, (setup_s, kernel_s), lines)
    if set(metrics) != set(names) or any(metrics[k][1] != names[k] for k in names):
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(names))}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        lines.append(f"  {name} = {value:.6g} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
