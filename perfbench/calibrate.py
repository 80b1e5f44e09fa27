"""A fixed reference computation that follows the host's speed.

The benchmark runs on a few cores of a shared host whose speed changes by a
third or more over minutes, so two runs of the same code a few minutes apart
can differ by more than the benchmark's bounds.  `kernel()` is a fixed piece
of pure-Python work in the style of the library's inner loops (list
polynomials over a small field through table lookups and method calls, a
Euclidean gcd, a dict), written here and independent of ramforge and
of the seed.  The host's speed changes within a second too (the kernel's
time ranges over 2x between calls a tenth of a second apart), so a run
times the kernel between jobs, at most every EVERY_S seconds, and takes the
mean of those times (the median where jobs run in child processes) as the
host's speed over the run.  The time metrics are reported at the reference
speed: multiplied by REF_S / (that kernel time).
A change to the library cannot change the kernel's time.
"""

import statistics
import time

# The reference kernel time: a round figure near the kernel's mean time on
# a 2-core virtual machine of a shared host with Python 3.11 (2.6-4.9 ms
# per run).  The normalised metrics read as raw ones on a host where the
# kernel takes REF_S.
REF_S = 0.004
EVERY_S = 0.1
P = 251
DEGREE = 24
REPEAT = 5


class _Field:
    """GF(P) through exp/log tables, as the library's extension fields are."""

    def __init__(self, p):
        g = next(g for g in range(2, p)
                 if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
        self.p = p
        self.exp = [pow(g, k, p) for k in range(p - 1)]
        self.log = [0] * p
        for k, v in enumerate(self.exp):
            self.log[v] = k

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.p - 1)]

    def inv(self, a):
        return self.exp[-self.log[a] % (self.p - 1)]


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _mul(K, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = K.add(out[i + j], K.mul(x, y))
    return _trim(out)


def _mod(K, a, b):
    a = list(a)
    inv = K.inv(b[-1])
    db = len(b) - 1
    while len(a) > db:
        c = K.mul(a[-1], inv)
        shift = len(a) - 1 - db
        for j, y in enumerate(b):
            a[shift + j] = K.add(a[shift + j], K.p - K.mul(c, y) if y else 0)
        _trim(a)
    return a


def _gcd(K, a, b):
    while b:
        a, b = b, _mod(K, a, b)
    return a


_K = _Field(P)
_A = [(7 * i * i + 3 * i + 1) % P or 1 for i in range(DEGREE + 1)]
_B = [(5 * i * i + 11 * i + 2) % P or 1 for i in range(DEGREE + 1)]


def kernel():
    """Fixed work, about REF_S seconds on the reference host."""
    for _ in range(REPEAT):
        ab = _mul(_K, _A, _B)
        g = _gcd(_K, ab, _mul(_K, _A, _A))
        pairs = {(i, c): c for i, c in enumerate(ab)}
    return len(g), sum(pairs.values()) % P


def time_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def samples(n):
    """Kernel times of `n` calls, after one warm-up call."""
    kernel()
    return [time_kernel() for _ in range(n)]


class Sampler:
    """Times the kernel when called, at most every EVERY_S seconds."""

    def __init__(self):
        kernel()
        self.samples = []
        self._sum = 0.0
        self._due = 0.0

    def maybe(self):
        if time.perf_counter() >= self._due:
            t = time_kernel()
            self.samples.append(t)
            self._sum += t
            self._due = time.perf_counter() + EVERY_S

    def mean(self):
        """Mean kernel time so far."""
        return self._sum / len(self.samples)
