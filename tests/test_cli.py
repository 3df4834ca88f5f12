import json
import re
import shlex
from pathlib import Path

import pytest

from rennermonoids import GeneratorName, PartialInjection, RennerMonoid
from rennermonoids.cli import WordParseError, main, parse_word
from oracles import by_token, up_intersection_words, weyl_order
from test_normal_forms import corrupt_left_factor
from test_presentation import LADDER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --json is a global flag, so it goes before the subcommand
def run_json(capsys, family, rank, *rest):
    code = main(["--family", family, "--rank", str(rank), "--json", *rest])
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def readme_cli_examples():
    """The `renner` lines of the README's CLI block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("renner ")]


@pytest.mark.parametrize("line", readme_cli_examples())
def test_readme_cli_examples(capsys, line):
    # each example exits 0, and prints every line its comment promises after
    # "->", the lines separated by commas
    command, _, comment = line.partition("#")
    code, out, err = run(capsys, *shlex.split(command)[1:])
    assert (code, err) == (0, "")
    promised = comment.partition("->")[2]
    assert {want.strip() for want in promised.split(",") if want.strip()} <= set(out.splitlines())


def test_readme_cli_examples_promise_output():
    promises = [line.partition("->")[2] for line in readme_cli_examples()]
    assert [p.strip() for p in promises if p] == [
        "word: e0, length: 0",
        "count: 7",
        "verdict: pass",
    ]


def test_parse_word(engine):
    eng = engine("A", 2)
    assert parse_word("e1 s1 e1", eng) == [
        GeneratorName.e(1),
        GeneratorName.s(1),
        GeneratorName.e(1),
    ]
    assert parse_word("1", eng) == []
    assert parse_word("s1 1 s1", eng) == [GeneratorName.s(1)] * 2
    with pytest.raises(WordParseError, match="unknown generator s9 at position 1"):
        parse_word("s9", eng)
    with pytest.raises(WordParseError, match="malformed token 'x2' at position 2"):
        parse_word("s1 x2", eng)
    # Arabic-Indic and fullwidth digits are malformed; a leading zero or an
    # index too long for int() is an unknown generator
    with pytest.raises(WordParseError, match="malformed token 's\u0661' at position 1"):
        parse_word("s\u0661 s1", eng)
    with pytest.raises(WordParseError, match="malformed token 's\uff12' at position 2"):
        parse_word("s1 s\uff12", eng)
    with pytest.raises(WordParseError, match="unknown generator s01 at position 1"):
        parse_word("s01", eng)
    with pytest.raises(WordParseError, match="unknown generator s1{5000} at position 2"):
        parse_word("e1 s" + "1" * 5000, eng)


def test_nf_text(capsys):
    code, out, err = run(capsys, "--family", "A", "--rank", "2", "nf", "e1 s1 e1")
    assert code == 0
    assert "word: e0" in out
    assert "length: 0" in out


def test_nf_json_round_trip_is_fixed_point(capsys):
    code, payload, _ = run_json(capsys, "A", 2, "nf", "e1 s1 e1")
    assert code == 0
    assert payload["family"] == "A" and payload["rank"] == 2
    result = payload["result"]
    assert result == {"word": ["e0"], "w1": [], "e": "e0", "w2": [], "length": 0}
    word = " ".join(result["word"]) or "1"
    code2, payload2, _ = run_json(capsys, "A", 2, "nf", word)
    assert code2 == 0 and payload2["result"] == result


def test_mul(capsys):
    code, payload, _ = run_json(capsys, "A", 2, "mul", "e1 s1", "e1 s1")
    assert code == 0
    assert payload["result"]["word"] == ["e0"]
    code, out, _ = run(capsys, "--family", "A", "--rank", "3", "mul", "s1", "s2")
    assert code == 0
    assert "word: s1 s2" in out


def test_len(capsys):
    code, out, _ = run(capsys, "--family", "A", "--rank", "2", "len", "s1 e1 s1")
    assert code == 0
    assert out.strip() == "length: 2"


def test_enumerate_count(capsys):
    code, payload, _ = run_json(capsys, "A", 2, "enumerate")
    assert code == 0
    assert payload["result"]["count"] == 7


def test_bare_enumerate_counts_without_decoding(capsys, monkeypatch):
    def refuse(self, cap):
        raise AssertionError("bare enumerate decoded the elements")

    monkeypatch.setattr(RennerMonoid, "elements", refuse)
    for family, rank, count in [("A", 5, 1546), ("B", 4, 13889), ("D", 4, 10625)]:
        assert run(capsys, "--family", family, "--rank", str(rank), "enumerate") == (
            0,
            f"count: {count}\n",
            "",
        )
        code, payload, _ = run_json(capsys, family, rank, "enumerate")
        assert (code, payload["result"]) == (0, {"count": count})
    code, out, err = run(capsys, "--family", "B", "--rank", "4", "--cap", "13888", "enumerate")
    assert (code, out) == (3, "")
    assert "13889 elements, cap=13888" in err


def test_enumerate_words_are_distinct_normal_forms(capsys, engine):
    code, payload, _ = run_json(capsys, "B", 2, "enumerate", "--words")
    assert code == 0
    words = payload["result"]["words"]
    assert len(words) == 57 == len(set(words))
    assert "1" in words  # the unit is the empty word
    eng = engine("B", 2)
    for w in words:
        parsed = parse_word(w, eng)
        assert (" ".join(str(g) for g in parsed) or "1") == w


def test_present_matches_library(capsys, engine):
    from rennermonoids import generate_reduced, relation_lines

    code, out, _ = run(
        capsys, "--family", "B", "--rank", "2", "present", "--flavor", "reduced"
    )
    assert code == 0
    assert out.splitlines() == relation_lines(generate_reduced(engine("B", 2)))


def test_verify_pass(capsys):
    code, payload, _ = run_json(capsys, "B", 2, "verify")
    assert code == 0
    assert payload["result"]["ok"] is True
    names = [c["name"] for c in payload["result"]["checks"]]
    assert names == [
        "relations-full",
        "relations-reduced",
        "relations-explicit",
        "completeness",
    ]


def test_typemap(capsys):
    code, payload, _ = run_json(capsys, "D", 3, "typemap")
    assert code == 0
    rows = {r["element"]: r for r in payload["result"]["typemaps"]}
    assert rows["f3"]["nonabsorbing"] == ["s1", "s3"]
    assert rows["e1"]["absorbing"] == ["s2", "s3"]
    ups = {(r["e"], r["f"]): r["words"] for r in payload["result"]["up_intersections"]}
    assert ups[("e3", "f3")] == ["1", "s3 s1 s2"]


@pytest.mark.parametrize("family,rank", LADDER)
def test_typemap_up_intersections_match_the_per_pair_oracle(capsys, engine, family, rank):
    code, payload, _ = run_json(capsys, family, rank, "typemap")
    assert code == 0
    assert payload["result"]["up_intersections"] == up_intersection_words(engine(family, rank))


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "--family", "A", "--rank", "2", "nf", "s9")
    assert code == 2
    assert out == ""
    assert "unknown generator s9 at position 1" in err


def test_bad_rank_exit_code(capsys):
    code, out, err = run(capsys, "--family", "D", "--rank", "2", "nf", "1")
    assert code == 2
    assert "rank" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--family", "A", "--rank", "2", "frobnicate"])
    assert exc.value.code == 2


def test_cap_exceeded_exit_code(capsys):
    code, out, err = run(
        capsys, "--family", "A", "--rank", "3", "--cap", "5", "enumerate"
    )
    assert code == 3
    assert "cap=5" in err


@pytest.mark.parametrize("cap", ["-5", "0"])
def test_cap_below_one_is_a_usage_error(capsys, cap):
    with pytest.raises(SystemExit) as exc:
        main(["--family", "A", "--rank", "3", "--cap", cap, "verify"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --cap: must be at least 1, got {cap}" in captured.err


def test_out_of_range_index_exit_code(capsys):
    code, out, err = run(capsys, "--family", "B", "--rank", "2", "len", "e9")
    assert code == 2
    assert "unknown generator e9" in err
    code, out, err = run(capsys, "--family", "B", "--rank", "2", "len", "s" + "9" * 5000)
    assert code == 2
    assert "unknown generator s999" in err


def test_failed_internal_check_exits_4_without_traceback(capsys, monkeypatch):
    build = RennerMonoid.__init__

    def corrupted(self, family, rank):
        build(self, family, rank)
        corrupt_left_factor(self, PartialInjection((2, None)))  # the value of s1 e1

    monkeypatch.setattr(RennerMonoid, "__init__", corrupted)
    code, out, err = run(capsys, "--family", "A", "--rank", "2", "nf", "s1 e1")
    assert (code, out) == (4, "")
    assert err == (
        "error: internal check failed: normal decomposition does not reproduce its input\n"
    )
    assert "Traceback" not in err


def test_failed_build_check_exits_4(capsys, monkeypatch):
    import rennermonoids.coxeter as coxeter

    monkeypatch.setattr(coxeter.WeylGroup, "min_coset_rep", lambda self, w, gens: self.identity)
    code, out, err = run(capsys, "--family", "A", "--rank", "3", "len", "1")
    assert (code, out) == (4, "")
    assert err.startswith("error: internal check failed: w2^-1 does not carry dom(")


def test_lattice_elements_sharing_a_domain_exit_4(capsys, monkeypatch):
    from rennermonoids.lattice import CrossSectionLattice, LambdaElement

    build = CrossSectionLattice.__init__

    def doubled(self, fam, gens, weyl):
        build(self, fam, gens, weyl)
        # one more element on e1's idempotent, past the lattice's own checks
        self.elements += (LambdaElement(GeneratorName.e(99), by_token(self, "e1").idem),)

    monkeypatch.setattr(CrossSectionLattice, "__init__", doubled)
    message = "lattice elements e1 and e99 share (1,)"
    with pytest.raises(RuntimeError) as exc:
        RennerMonoid("A", 3)
    assert str(exc.value) == message
    code, out, err = run(capsys, "--family", "A", "--rank", "3", "len", "1")
    assert (code, out, err) == (4, "", f"error: internal check failed: {message}\n")


def test_join_escaping_the_absorbing_subgroup_exits_4(capsys, monkeypatch):
    from rennermonoids.lattice import TypeMap

    build = RennerMonoid.__init__

    def corrupted(self, family, rank):
        build(self, family, rank)
        # e0 absorbs every reflection at B2; with none absorbed, a join
        # e w f = e0 with w != 1 (e2 s2 s1 s2 e2, say) escapes
        e0 = by_token(self.lattice, "e0")
        tm = self.lattice.type_map(e0)
        self.lattice._types[e0.idem._b] = TypeMap(tm.commuting, frozenset(), tm.nonabsorbing)

    monkeypatch.setattr(RennerMonoid, "__init__", corrupted)
    code, out, err = run(capsys, "--family", "B", "--rank", "2", "present", "--flavor", "full")
    assert (code, out) == (4, "")
    assert re.fullmatch(
        r"error: internal check failed: middle factor of \w+\*w\*\w+ escapes the"
        r" absorbing subgroup of e0\n",
        err,
    )
    assert "Traceback" not in err


def test_join_above_the_plain_meet_exits_4(capsys, monkeypatch):
    from rennermonoids.lattice import CrossSectionLattice

    # every meet read as the bottom e0: the join e1 1 e1 = e1 is above it
    monkeypatch.setattr(CrossSectionLattice, "meet", lambda self, e, f: by_token(self, "e0"))
    code, out, err = run(capsys, "--family", "B", "--rank", "2", "present", "--flavor", "full")
    assert (code, out) == (4, "")
    assert re.fullmatch(
        r"error: internal check failed: \w+\*w\*\w+ is not below the plain meet\n", err
    )
    assert "Traceback" not in err


def test_oversized_enumeration_refused_before_enumerating(capsys, monkeypatch):
    import rennermonoids.monoid as monoid

    code, out, err = run(capsys, "--family", "B", "--rank", "4", "--cap", "13889", "enumerate")
    assert (code, out) == (0, "count: 13889\n")

    def never(*args, **kwargs):
        raise AssertionError("enumerate_monoid entered")

    monkeypatch.setattr(monoid, "enumerate_monoid", never)
    code, out, err = run(capsys, "--family", "B", "--rank", "4", "--cap", "13888", "enumerate")
    assert code == 3
    assert out == ""
    assert "13889 elements" in err and "cap=13888" in err


def test_oversized_verify_refused_before_enumerating(capsys, monkeypatch):
    import rennermonoids.monoid as monoid

    code, out, err = run(capsys, "--family", "B", "--rank", "4", "--cap", "13889", "verify")
    assert code == 0

    def never(*args, **kwargs):
        raise AssertionError("enumerate_monoid entered")

    monkeypatch.setattr(monoid, "enumerate_monoid", never)
    code, out, err = run(capsys, "--family", "B", "--rank", "4", "--cap", "13888", "verify")
    assert code == 3
    assert out == ""
    assert "13889 elements" in err and "cap=13888" in err


def test_oversized_rank_refused_before_any_build(capsys, monkeypatch):
    import rennermonoids.coxeter as coxeter
    import rennermonoids.monoid as monoid

    def never(*args, **kwargs):
        raise AssertionError("WeylGroup.__init__ entered")

    monkeypatch.setattr(monoid, "MAX_WEYL_ORDER", 719)  # |W(A6)| = 720
    monkeypatch.setattr(coxeter.WeylGroup, "__init__", never)
    code, out, err = run(capsys, "--family", "A", "--rank", "6", "nf", "s1")
    assert code == 3
    assert out == ""
    assert "720" in err


def test_oversized_rank_orders_exceed_the_limit():
    from rennermonoids import MonoidFamily
    from rennermonoids.monoid import MAX_WEYL_ORDER

    assert weyl_order("A", 12) == 479001600
    assert MonoidFamily("A", 12).weyl_order_past(10**9) == 479001600 > MAX_WEYL_ORDER


def test_huge_rank_refused_by_the_size_limit(capsys):
    from rennermonoids.monoid import MAX_WEYL_ORDER

    code, out, err = run(capsys, "--family", "B", "--rank", "1500", "len", "1")
    assert code == 3
    assert out == ""
    assert f"limit {MAX_WEYL_ORDER}" in err


def test_huge_rank_refused_without_its_factorial(capsys, monkeypatch):
    import math

    factorial = math.factorial

    def small_factorial(n):
        if n > 20:
            raise AssertionError(f"factorial({n}) computed")
        return factorial(n)

    monkeypatch.setattr(math, "factorial", small_factorial)
    code, out, err = run(capsys, "--family", "D", "--rank", str(10**9), "len", "1")
    assert code == 3
    assert out == ""
    assert "limit" in err


def test_out_of_memory_exits_3_without_traceback(capsys, monkeypatch):
    def exhausted(self, cap):
        raise MemoryError

    # The closure, which bare enumerate and every element list go through.
    monkeypatch.setattr(RennerMonoid, "inverse_images", exhausted)
    code, out, err = run(capsys, "--family", "A", "--rank", "3", "enumerate")
    assert (code, out) == (3, "")
    assert err == "error: out of memory: allocation failed\n"


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_closed_output_pipe_exits_141_without_traceback(mode):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    argv = ["--family", "B", "--rank", "4", *mode, "enumerate", "--words"]
    with subprocess.Popen(
        [sys.executable, "-m", "rennermonoids.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    ) as proc:
        # Read less than a line (the JSON payload is one line); the output,
        # about 0.6 MB, outgrows the pipe, so the writer is still writing
        # when the reader goes away.
        assert proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


def test_json_output_is_whole_when_a_signal_interrupts_a_blocked_write():
    # With PYTHONUNBUFFERED set, stdout is a raw file: a signal handler that
    # runs while the write blocks on a full pipe makes write(2) return a
    # partial count, and the rest is lost unless the writer loops on it.
    # Text mode goes through the same writer.
    import os
    import subprocess
    import sys
    import time
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    argv = ["--json", "--family", "D", "--rank", "4", "enumerate", "--words"]
    child = "\n".join(
        [
            "import signal, sys",
            "from rennermonoids.cli import main",
            "signal.signal(signal.SIGALRM, lambda *_: None)",
            "signal.setitimer(signal.ITIMER_REAL, 0.05, 0.05)",
            f"code = main({argv!r})",
            "signal.setitimer(signal.ITIMER_REAL, 0)",
            "sys.exit(code)",
        ]
    )
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": "1"}
    with subprocess.Popen(
        [sys.executable, "-c", child],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        time.sleep(1.5)  # the payload, about 0.4 MB, fills the pipe meanwhile
        out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")
    assert len(json.loads(out)["result"]["words"]) == 10625


# Prints a digest of every output of the commands whose results come from
# sets of PartialInjections, then a digest of the iteration order of one
# such set, which a PartialInjection's hash (that of its image bytes) makes
# depend on the interpreter's hash seed.
_DIGEST_CHILD = """
import contextlib, hashlib, io
import rennermonoids.cli as cli
from rennermonoids import RennerMonoid

outputs = hashlib.sha256()
for family, rank in (("A", 3), ("B", 3), ("D", 4)):
    for argv in (["present", "--flavor", "full"], ["present", "--flavor", "reduced"],
                 ["typemap"], ["verify"], ["enumerate", "--words"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--family", family, "--rank", str(rank), *argv])
        outputs.update(f"{code}:{out.getvalue()}".encode())
print(outputs.hexdigest())
order = [p.image for p in RennerMonoid("A", 3).weyl.parabolic({1, 2})]
print(hashlib.sha256(repr(order).encode()).hexdigest())
"""


def test_outputs_do_not_depend_on_the_hash_seed():
    """`present`, `typemap`, `verify` and `enumerate --words` print the same
    bytes under two hash seeds, although the sets they read iterate in
    another order under each."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    children = [
        subprocess.Popen(
            [sys.executable, "-S", "-c", _DIGEST_CHILD],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            text=True,
        )
        for seed in ("0", "1")
    ]
    results = [child.communicate(timeout=120) for child in children]
    assert [(child.returncode, err) for child, (_, err) in zip(children, results)] == [(0, "")] * 2
    (outputs0, order0), (outputs1, order1) = (out.split() for out, _ in results)
    assert order0 != order1
    assert outputs0 == outputs1
