"""Tests of the benchmark itself; nothing here is timed.

    python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cold  # noqa: E402
import common  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import tracing  # noqa: E402
from common import PROBE_REF_S, ROOT, Alphabet, Scale, rook_count  # noqa: E402

SMALL = {
    "session": (("A", 4), ("B", 3), ("D", 4)),
    "sweep": (("A", 3), ("B", 2)),
    "certify": (("B", 2), ("D", 3)),
}


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_names_what_the_runs_report():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        layer[:3] for layer in tracing.PER_LAYER
    ]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for name, _, _, moves in tracing.PER_LAYER:
        for metric, workload in moves:
            assert metric in end_to_end and workload in run.WORKLOADS, name
    res = session.run(
        1, 0, False, ranks=SMALL["session"], block=100, min_blocks=2, setup_reps=1
    )
    reported = {name: m["unit"] for name, m in res["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_session_stream_is_fixed_per_seed():
    def blocks(seed):
        stream = session.SessionStream(seed)
        stats = session.StreamStats()
        qs = [q for _ in range(3) for q in stream.next_block()]
        for q in qs:
            stats.add(q)
        return qs, stats.summary()

    first, again, other = blocks(7), blocks(7), blocks(8)
    assert first == again
    assert first[0] != other[0]
    summary = first[1]
    assert 0.4 < summary["repeat_share"] < 0.9
    labels = {f"{f}{r}" for f, r in session.RANKS}
    assert {k.split(":")[0] for k in summary["idempotent_spread"]} == labels


def test_new_operands_deal_every_idempotent_in_turn():
    stream = session.SessionStream(4)
    for k, alphabet in enumerate(stream.alphabets):
        n = len(alphabet.idempotents)
        dealt = [stream._token(k) for _ in range(3 * n)]
        for i in range(0, 3 * n, n):
            assert sorted(dealt[i : i + n]) == sorted(alphabet.idempotents)


def test_scale_is_the_reference_over_the_mean_of_the_bracketing_probes(monkeypatch):
    probes = iter([0.010, 0.030])
    monkeypatch.setattr(common, "probe_s", lambda: next(probes))
    scale = Scale()
    scale.start()
    assert scale.stop() == pytest.approx(PROBE_REF_S / 0.020)


def test_alphabet_walks_the_whole_unit_group():
    for fam, rank, order in (("A", 4, 24), ("B", 3, 48), ("D", 4, 192)):
        a = Alphabet(fam, rank)
        assert len(a.unit_words) == order
        assert len({a.evaluate(w) for w in a.unit_words}) == order


@pytest.mark.parametrize("fam,rank", [("A", 5), *cold.RECORDED_SIZE])
def test_recorded_sizes_equal_the_completeness_count(fam, rank):
    if (fam, rank) == ("D", 5):
        pytest.skip("too slow for a unit test; every certify run checks it")
    from rennermonoids import RennerMonoid, verify_completeness

    rep = verify_completeness(RennerMonoid(fam, rank))
    assert rep.missing == 0 and rep.monoid_size == rep.triple_count == rep.value_count
    assert rep.monoid_size == cold.expected_size(fam, rank)
    if fam == "A":
        assert rep.monoid_size == rook_count(rank)


def test_output_checks_reject_wrong_answers():
    good = cold.run_cli(["--json", "--family", "A", "--rank", "2", "enumerate", "--words"])
    assert cold.check_sweep("A", 2, good) == rook_count(2)
    payload = json.loads(good.output)
    payload["result"]["words"][-1] = payload["result"]["words"][0]
    bad = cold.Outcome(0, json.dumps(payload), good.wall_s)
    assert cold.check_sweep("A", 2, bad) == -1

    good = cold.run_cli(["--json", "--family", "B", "--rank", "2", "verify"])
    assert cold.check_certify("B", 2, good) == 57
    payload = json.loads(good.output)
    payload["result"]["checks"][-1]["values"] -= 1
    bad = cold.Outcome(0, json.dumps(payload), good.wall_s)
    assert cold.check_certify("B", 2, bad) == -1

    stream = session.SessionStream(3, ranks=(("A", 3),), block=50)
    from rennermonoids.monoid import RennerMonoid

    engine = RennerMonoid("A", 3)
    q = next(q for q in stream.next_block() if q.kind == "nf")
    word, length = session.answer(engine, q)
    assert session.check(engine, stream.alphabets[0], q, (word, length))
    assert not session.check(engine, stream.alphabets[0], q, (word, length + 1))


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_records_every_expected_span(workload):
    if workload == "session":
        res = session.run(5, 0, True, ranks=SMALL[workload], block=100, min_blocks=4)
    else:
        res = cold.run(workload, 5, 0, True, ranks=SMALL[workload])
    assert res["details"]["missing_spans"] == []
    assert res["failed"] == 0
    assert [m for m in res["metrics"]] == [name for name, *_ in tracing.PER_LAYER]
    assert res["metrics"]["model.products"]["value"] > 0


def test_span_check_fails_when_a_binding_is_not_patched():
    """Patching only model.enumerate_monoid, and not the name monoid.py
    looks up, leaves the enumeration span empty; the check must say so."""
    import rennermonoids.cli as cli
    import rennermonoids.monoid as monoid

    tracer = tracing.Tracer()
    tracer.install()
    try:
        monoid.enumerate_monoid = monoid.enumerate_monoid.__wrapped__
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--json", "--family", "B", "--rank", "2", "verify"]) == 0
    finally:
        tracer.uninstall()
    assert tracing.missing_spans("certify", tracer.take()) == [tracing.ENUMERATE]


def test_refuses_to_run_without_the_engine_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
