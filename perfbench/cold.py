"""The cold workloads: one `renner` process per command, as a shell user runs it.

sweep    `renner --json enumerate --words` at A5, B4 and D4.  Each element is
         decomposed exactly once, so the normal-form memo never hits: this is
         the miss path of normal_decompose, reduced_word and serialisation.
certify  `renner --json verify` at A6, B4 and D5.  No normal_decompose runs;
         model-layer enumeration dominates, D5 being a D-specific rank.

The package is not installed, so every command is
`python -m rennermonoids.cli` with PYTHONPATH=src; the benchmark runs it
through child.py, which also probes the machine while the command runs.
Commands run in rounds, in an order the seed fixes; each round runs every
command that has fewer than MIN_SAMPLES samples or less than half of
`seconds` of sample time, so short commands get more samples than long
ones.  A query is one cold command, and its latency is the median of its
scaled samples (`common.Scale`).
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

from common import (
    BENCH_DIR,
    ROOT,
    Alphabet,
    Scale,
    child_env,
    end_to_end,
    median,
    percentile,
    rook_count,
)
from tracing import EXPECTED, layer_metrics, merge, missing_spans, span_table

WORKLOADS = {
    "sweep": ((("A", 5), ("B", 4), ("D", 4)), ("enumerate", "--words")),
    "certify": ((("A", 6), ("B", 4), ("D", 5)), ("verify",)),
}
MIN_SAMPLES = 2
# Monoid sizes outside family A, recorded from a seed run; at each rank they
# equal verify's three-way completeness count (checked by test_perfbench.py).
RECORDED_SIZE = {
    ("B", 2): 57,
    ("B", 3): 757,
    ("B", 4): 13889,
    ("D", 3): 541,
    ("D", 4): 10625,
    ("D", 5): 258661,
}
TIMEOUT_S = 170


def expected_size(family: str, rank: int) -> int:
    return rook_count(rank) if family == "A" else RECORDED_SIZE[family, rank]


@dataclass
class Outcome:
    code: int
    output: str
    wall_s: float
    scale: float = 1.0  # machine scaling of wall_s (common.Scale)
    report: dict = field(default_factory=dict)

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.scale


def run_cli(argv: list[str], mode: str | None = None) -> Outcome:
    """One cold command, bracketed by machine probes; ``mode`` "trace" or
    "count" runs it under tracing.py."""
    if mode is None:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), *argv]
    else:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "tracing.py"), mode, *argv]
    scale = Scale()
    scale.start()
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return Outcome(-1, "", time.perf_counter() - t0)
    wall = time.perf_counter() - t0
    if mode is None:
        # The child's own probes are taken out of its time.
        during = _child_probes(proc.stderr)
        return Outcome(proc.returncode, proc.stdout, wall - sum(during), scale.stop(during))
    factor = scale.stop()
    if proc.returncode != 0:
        return Outcome(proc.returncode, proc.stdout, wall, factor)
    report = json.loads(proc.stdout)
    return Outcome(report["code"], report["output"], wall, factor, report)


def _child_probes(stderr: str) -> list[float]:
    """The probe times child.py writes as the last line of stderr."""
    try:
        probes = json.loads(stderr.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return []
    return probes if isinstance(probes, list) else []


def check_sweep(family: str, rank: int, out: Outcome) -> int:
    """Words emitted, or -1 when the output is wrong.  The count must be the
    monoid size, and the words must be distinct and evaluate to distinct
    elements under the benchmark's own product."""
    result = json.loads(out.output)["result"]
    words, size = result["words"], expected_size(family, rank)
    alphabet = Alphabet(family, rank)
    images = {alphabet.evaluate(t for t in w.split() if t != "1") for w in words}
    ok = out.code == 0 and result["count"] == size == len(words) == len(set(words)) == len(images)
    return len(words) if ok else -1


def check_certify(family: str, rank: int, out: Outcome) -> int:
    """Elements certified, or -1: verdict pass, every relation flavour sound,
    and monoid == triples == values == the monoid size, with nothing missing
    and no collisions."""
    result = json.loads(out.output)["result"]
    comp = next(c for c in result["checks"] if c["name"] == "completeness")
    relations = [c for c in result["checks"] if c["name"].startswith("relations-")]
    ok = (
        out.code == 0
        and result["ok"] is True
        and len(relations) == 3
        and all(c["ok"] and c["failures"] == 0 for c in relations)
        and comp["ok"]
        and comp["monoid"] == comp["triples"] == comp["values"] == expected_size(family, rank)
        and comp["missing"] == comp["collisions"] == 0
    )
    return comp["monoid"] if ok else -1


_CHECKS = {"sweep": check_sweep, "certify": check_certify}


class ColdRun:
    def __init__(self, workload: str, seed: int, ranks=None):
        default_ranks, self.command = WORKLOADS[workload]
        self.workload = workload
        self.ranks = ranks or default_ranks
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.items: dict[tuple[str, int], int] = {}  # items checked, last run per rank
        self._checked: dict[tuple[str, int], str] = {}  # output that passed its check

    def _record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def setup(self) -> tuple[float, float]:
        """Sum over ranks of one cold `len 1` (interpreter start, import and
        build), raw and scaled."""
        raw = scaled = 0.0
        for f, r in self.ranks:
            out = run_cli(["--family", f, "--rank", str(r), "len", "1"])
            self._record(out.code == 0 and out.output.strip() == "length: 0")
            raw += out.wall_s
            scaled += out.scaled_s
        return raw, scaled

    def one_pass(self, mode: str | None = None, ranks=None) -> dict:
        """Every command (or those of ``ranks``) once, in seeded order;
        returns the outcome per rank."""
        order = list(self.ranks if ranks is None else ranks)
        self.rng.shuffle(order)
        outcomes = {}
        for f, r in order:
            out = run_cli(["--json", "--family", f, "--rank", str(r), *self.command], mode)
            if out.code == 0 and self._checked.get((f, r)) == out.output:
                n = self.items[f, r]  # the same output as one already checked
            else:
                try:
                    n = _CHECKS[self.workload](f, r, out)
                except (ValueError, KeyError, TypeError, StopIteration):
                    n = -1
                if n >= 0:
                    self._checked[f, r] = out.output
            self._record(n >= 0)
            self.items[f, r] = max(n, 0)
            outcomes[f, r] = out
        return outcomes


def _pass_s(outcomes: dict) -> float:
    """Scaled time of a pass."""
    return sum(o.scaled_s for o in outcomes.values())


def run(workload: str, seed: int, seconds: float, trace: bool, ranks=None) -> dict:
    cold = ColdRun(workload, seed, ranks)
    if trace:
        return _run_traced(cold, seconds)
    # Set-up samples run before the first two rounds and after the last,
    # spread over the run rather than over one spell of the machine.
    setups: list[tuple[float, float]] = []
    per_rank: dict[tuple[str, int], list[Outcome]] = {rank: [] for rank in cold.ranks}
    share = seconds / 2

    def due():
        return [
            k for k, v in per_rank.items() if len(v) < MIN_SAMPLES or sum(o.wall_s for o in v) < share
        ]

    while due():
        if len(setups) < 2:
            setups.append(cold.setup())
        for rank, o in cold.one_pass(ranks=due()).items():
            per_rank[rank].append(o)
    setups.append(cold.setup())
    latencies = [median([o.scaled_s for o in v]) for v in per_rank.values()]
    wall = sum(latencies)
    metrics = {
        "setup_s": (median([s for _, s in setups]), "s"),
        "wall_s": (wall, "s"),
        "query_p50_us": (percentile(latencies, 50) * 1e6, "us"),
        "query_p99_us": (percentile(latencies, 99) * 1e6, "us"),
        "queries_per_s": (len(latencies) / wall, "1/s"),
        "elements_per_s": (sum(cold.items.values()) / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    details = {
        "setup_samples_s": [raw for raw, _ in setups],
        "command_samples_s": {f"{f}{r}": [o.wall_s for o in v] for (f, r), v in per_rank.items()},
        "command_scales": {f"{f}{r}": [o.scale for o in v] for (f, r), v in per_rank.items()},
        "unscaled": {
            "setup_s": median([raw for raw, _ in setups]),
            "wall_s": sum(median([o.wall_s for o in v]) for v in per_rank.values()),
        },
    }
    return end_to_end(cold.attempted, cold.failed, metrics, details)


def _run_traced(cold: ColdRun, seconds: float) -> dict:
    plain = cold.one_pass()
    traced: list[dict] = []
    while not traced or sum(map(_pass_s, traced)) < seconds:
        traced.append(cold.one_pass("trace"))
    counted = cold.one_pass("count")
    n = len(traced)
    done = [o for p in traced for o in p.values() if o.report]
    agg = merge((o.report["spans"], 1 / n) for o in done)
    missing = missing_spans(cold.workload, agg)
    products = sum(o.report.get("products", 0) for o in counted.values())
    output_bytes = sum(len(o.output.encode()) for o in done) / n
    details = {
        "traced_passes": n,
        "missing_spans": missing,
        "spans": span_table(agg),
        "wall_traced_s": median([_pass_s(p) for p in traced]),
        "wall_untraced_s": _pass_s(plain),
    }
    overhead = details["wall_traced_s"] - details["wall_untraced_s"]
    return {
        "attempted": cold.attempted + len(EXPECTED[cold.workload]),
        "failed": cold.failed + len(missing),
        "metrics": layer_metrics(agg, products, output_bytes, overhead),
        "details": details,
    }
