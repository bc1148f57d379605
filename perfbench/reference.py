"""Probes of how fast the host runs, and the scale they give a measured time.

The benchmark's host is a shared 2-vCPU guest.  Other tenants' load
slows it by up to about 1.8x, in spells that last from a fraction of a
second to tens of seconds, and nothing in the guest shows it (no steal
time; CPU time slows as much as wall time).  Medians over a 40 s run do
not remove it: raw times spread 9-37% (q3 - q1 over the median) across
runs.

So ``run.py`` pins itself and the operations it starts to one CPU, makes
``CALLS_PER_SAMPLE`` reference calls just before each launch, and one
every ``run.PROBE_PERIOD_S`` while the operation runs.  Each probe
pre-empts the operation on the shared CPU for a moment and sees the
speed the operation sees.  A launch's time is multiplied by

    scale = (REFERENCE_S / mean(probes)) ** ELASTICITY,

which reports it in seconds of a host that runs one ``reference_call()``
in ``REFERENCE_S`` (about its time on this host when quiet).

``ELASTICITY`` is measured, not chosen freely: over 18-36 runs of one
operation, log(operation time) against log(mean probe) has slope
0.56-0.6 (correlation 0.92-0.94) for both ``rmatrix --m 6 --n 6`` and
``check cactus-action``; short, freshly scheduled probes feel the slow
spells more than the long-running operation does.  An exponent of 1
over-corrects.  With 0.7, ten runs per workload spread 2-6% (wall, CPU
and headline times); with 1, five runs spread 4-17%.

The load is the benchmark's own code, made only of the standard library,
and never changes with ``qcactus``: a slower or faster program shows in
full.  It mixes what the program spends its time on: sparse polynomial
products and Euclid's gcd with ``Fraction`` coefficients (the ``qexact``
side) and hashing of small tuples in sets and dicts (the ``crystals``
side).
"""

from fractions import Fraction
import time

REFERENCE_S = 0.0016  # one reference_call() on the host above when it is quiet
CALLS_PER_SAMPLE = 5
ELASTICITY = 0.7

_clock = time.perf_counter


def _poly_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _poly_rem(a, b):
    """Remainder of dense coefficient lists (highest degree last)."""
    a = list(a)
    lead = b[-1]
    while len(a) >= len(b):
        factor = a[-1] / lead
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        while a and not a[-1]:
            a.pop()
    return a


def _poly_gcd(a, b):
    while b:
        a, b = b, _poly_rem(a, b)
    return a


def _dense(p):
    return [p.get(k, Fraction(0)) for k in range(max(p) + 1)]


def _load():
    p = {k: Fraction(k % 5 + 1, k % 3 + 2) for k in range(0, 14, 2)}
    q = {k: Fraction((3 * k) % 7 + 1, 2) for k in range(1, 12, 3)}
    r = {0: Fraction(1), 3: Fraction(-2, 3), 5: Fraction(1, 4)}
    g = _poly_gcd(_dense(_poly_mul(p, r)), _dense(_poly_mul(q, r)))
    seen, counts = set(), {}
    for i in range(900):
        word = (i % 7, (i * 3) % 5, (i * 11) % 13, i % 4)
        seen.add(word)
        counts[word[:2]] = counts.get(word[:2], 0) + 1
    return len(g) + len(seen) + len(counts)


def reference_call():
    """Run the fixed load once and return its wall time in seconds."""
    start = _clock()
    _load()
    return _clock() - start


def scale(probes):
    """Factor that turns a time measured during ``probes`` into reference time."""
    return (REFERENCE_S / (sum(probes) / len(probes))) ** ELASTICITY


def sample():
    """Wall times of ``CALLS_PER_SAMPLE`` back-to-back reference calls."""
    return [reference_call() for _ in range(CALLS_PER_SAMPLE)]
