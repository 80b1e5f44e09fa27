#!/usr/bin/env python3
"""Time the two GF(p) gcd paths of ramforge.polyring, side by side.

`_gcd` runs Euclid on byte slots of one int for p <= 13 (`_gcd_bytes`)
and one loop on int lists past it (`_gcd_loop`).  This script times both
paths on the same pairs (seed 25), a of degree n and b of degree n - 1 with
random (mostly non-monic) leads, so the full remainder sequence runs.  Each
figure is the best of --repeat runs of --number calls, the two paths taking
turns, in microseconds per gcd.  Past p = 13 a row can carry a byte slot
into the next (its sums reach (p - 1)*p + p - 1 > 255), so byte slots read
"-" there.  Both paths must return the same gcd on every pair.

    python3 scripts/kernel_timings.py
    python3 scripts/kernel_timings.py --degrees 8,64 --repeat 3
"""

import argparse
import dataclasses
import random
import time

from ramforge.polyring import _BYTE_TABLES, _gcd_bytes, _gcd_loop


@dataclasses.dataclass(frozen=True)
class TimingConfig:
    degrees: tuple = (2, 4, 8, 16, 32, 48, 64, 128, 256, 400)
    repeat: int = 5
    number: int = 0  # calls per run; 0 picks about 20 ms of work per run


def rand_poly(rng, p, deg):
    return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]


def time_us(path, p, a, b, number):
    """Microseconds per call over `number` calls of path(p, a, b)."""
    t0 = time.perf_counter()
    for _ in range(number):
        path(p, a, b)
    return (time.perf_counter() - t0) / number * 1e6


def run(cfg):
    seed = 25
    rng = random.Random(seed)
    print(f"_gcd per call in us, best of {cfg.repeat}, seed {seed}")
    print(f"{'p':>3} {'deg':>4} {'bytes':>9} {'loop':>9} {'loop/bytes':>10}")
    for p in (3, 5, 13, 17):  # both sides of the byte bound p <= 13
        paths = [_gcd_bytes, _gcd_loop] if p in _BYTE_TABLES else [_gcd_loop]
        for n in cfg.degrees:
            a, b = rand_poly(rng, p, n), rand_poly(rng, p, n - 1)
            want = _gcd_loop(p, a, b)
            assert all(path(p, a, b) == want for path in paths), (p, n)
            number = cfg.number or max(1, int(2e4 / time_us(_gcd_loop, p, a, b, 1)))
            times = dict.fromkeys(paths, float("inf"))
            for _ in range(cfg.repeat):  # the paths take turns
                for path in paths:
                    times[path] = min(times[path], time_us(path, p, a, b, number))
            loop = times[_gcd_loop]
            if _gcd_bytes in times:
                fast = times[_gcd_bytes]
                print(f"{p:>3} {n:>4} {fast:>9.1f} {loop:>9.1f} {loop / fast:>10.2f}")
            else:
                print(f"{p:>3} {n:>4} {'-':>9} {loop:>9.1f} {'-':>10}")
    print("  both paths returned the same gcd on every pair")


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])

    def ints(text):
        return tuple(int(v) for v in text.split(","))

    ap.add_argument("--degrees", type=ints, default=TimingConfig.degrees)
    ap.add_argument("--repeat", type=int, default=TimingConfig.repeat)
    ap.add_argument("--number", type=int, default=TimingConfig.number)
    a = ap.parse_args()
    return TimingConfig(a.degrees, a.repeat, a.number)


if __name__ == "__main__":
    run(parse_args())
