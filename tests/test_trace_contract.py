"""The benchmark tracer's span contract, checked on tiny A3 workloads.

`perfbench/tracing.py` counts a run as failed when a span it expects on a
workload records no time, for instance because a refactor stopped calling
a traced entry point.  Each test here installs its `Tracer`, runs a small
version of one workload and asserts that no expected span is missing, so
the suite notices in about a second what a full traced run would.
"""

import os
import sys

import pytest

import rennermonoids.cli as cli
from rennermonoids import GeneratorName, RennerMonoid

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))

import tracing  # noqa: E402

S, E = GeneratorName.s, GeneratorName.e


def _session():
    eng = RennerMonoid("A", 3)
    x = eng.evaluate([S(1), E(2), S(2)])
    nf = eng.normal_decompose(x)
    assert eng.normal_decompose(x) == nf  # the tracer counts this call a hit
    eng.canonical_word(eng.multiply(nf, nf))
    eng.left_mult_generator(1, nf)


def _cli(*argv):
    def run():
        # cli.main is looked up here, after install, so the traced main runs
        assert cli.main(["--family", "A", "--rank", "3", *argv]) == 0

    return run


WORKLOADS = {
    "session": _session,
    "sweep": _cli("enumerate", "--words"),
    "certify": _cli("verify"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_records_every_expected_span(workload, capsys):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        WORKLOADS[workload]()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracing.missing_spans(workload, tracer.take()) == []
