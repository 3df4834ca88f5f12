"""Shared pieces of the benchmark: paths, statistics and an independent evaluator.

The evaluator composes the generator images that `build_generators` returns
with its own tuple arithmetic, so output checks never rely on the engine's
`PartialInjection` product, normal forms or Coxeter tables.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import sys
import time
from collections import deque

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def child_env() -> dict[str, str]:
    """Environment for cold `python -m rennermonoids.cli` children: the package
    is not installed, so it is found through PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=SRC)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# The probe's time on an undisturbed core of the machine the baseline notes
# come from (2 cores of a KVM host, Xeon, Python 3.11.7).
PROBE_REF_S = 0.008

_PROBE_GENS = ((2, 1, 3, 4, 5, 6, 7), (2, 3, 4, 5, 6, 7, 1))


def probe_s() -> float:
    """Time of a fixed piece of pure-Python work that never touches the
    engine: a breadth-first walk of the symmetric group S7 (5,040 elements)
    with this module's product, 8 ms on an undisturbed core.

    The machines this runs on switch between a fast state and states up to
    2.3 times slower, for spells of seconds to minutes that can outlast a
    run: neighbours on the same host, with steal time near zero and CPU time
    slowing as much as wall time.  The probe slows with them (see `Scale`)."""
    gc.disable()  # a collection of the engine's heap would land in the probe
    t0 = time.perf_counter()
    seen = {_PROBE_GENS[0]: None}
    queue = deque(seen)
    while queue:
        w = queue.popleft()
        for g in _PROBE_GENS:
            v = compose(g, w)
            if v not in seen:
                seen[v] = None
                queue.append(v)
    elapsed = time.perf_counter() - t0
    gc.enable()
    assert len(seen) == 5040
    return elapsed


class Scale:
    """Machine scaling of timed samples.

    Each sample is bracketed by two probes, and its time is scaled by
    PROBE_REF_S over their mean, together with any probes taken while it
    ran: what it would have taken with the probe at its reference time.
    Scaled samples from fast and slow spells agree to within about 5-15%,
    where raw ones differ by up to 2.3 times; an end-to-end metric is a
    median of scaled samples, so it moves with the engine's speed and not
    with the share of the run spent slow."""

    def __init__(self) -> None:
        self.before = 0.0

    def start(self) -> None:
        self.before = probe_s()

    def stop(self, during=()) -> float:
        """The factor for the sample that ran since `start`, given also the
        probes taken ``during`` it."""
        probes = [self.before, probe_s(), *during]
        return PROBE_REF_S * len(probes) / sum(probes)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def compose(a: tuple, b: tuple) -> tuple:
    """Matrix product of two partial injections given as image tuples:
    apply ``b`` first, then ``a``."""
    return tuple(None if v is None else a[v - 1] for v in b)


class Alphabet:
    """Generator images of one family and rank, plus the unit group as words.

    The unit group is walked breadth first with this module's own product,
    so every unit gets a shortest word that does not come from the engine.
    """

    def __init__(self, family: str, rank: int):
        from rennermonoids.model import MonoidFamily, build_generators

        self.family, self.rank = family, rank
        gens = build_generators(MonoidFamily(family, rank))
        self.names = {str(g): g for g in gens}
        self.images = {str(g): p.image for g, p in gens.items()}
        self.degree = len(next(iter(self.images.values())))
        self.identity = tuple(range(1, self.degree + 1))
        self.reflections = tuple(t for t in self.images if t[0] == "s")
        # Tokens of the lattice idempotents, "1" standing for the unit.
        self.idempotents = tuple(t for t in self.images if t[0] != "s") + ("1",)
        words = {self.identity: ()}
        queue = deque([self.identity])
        while queue:
            w = queue.popleft()
            for t in self.reflections:
                v = compose(self.images[t], w)
                if v not in words:
                    words[v] = (t, *words[w])
                    queue.append(v)
        self.unit_words = tuple(words.values())

    def evaluate(self, tokens) -> tuple:
        out = self.identity
        for t in tokens:
            out = compose(out, self.images[t])
        return out


def rook_count(n: int) -> int:
    """Size of the rook monoid of degree n: sum over k of C(n, k)^2 * k!."""
    return sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))


def end_to_end(attempted: int, failed: int, metrics: dict, details: dict) -> dict:
    """Result of an untraced run; ``metrics`` maps name -> (value, unit).
    ok_share is the share of checked operations whose output was right."""
    out = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    out["ok_share"] = {"value": 1 - failed / attempted, "unit": "share"}
    return {"attempted": attempted, "failed": failed, "metrics": out, "details": details}
