import json

import pytest

from rennermonoids import GeneratorName
from rennermonoids.cli import WordParseError, main, parse_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --json is a global flag, so it goes before the subcommand
def run_json(capsys, family, rank, *rest):
    code = main(["--family", family, "--rank", str(rank), "--json", *rest])
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


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


def test_out_of_range_index_exit_code(capsys):
    code, out, err = run(capsys, "--family", "B", "--rank", "2", "len", "e9")
    assert code == 2
    assert "unknown generator e9" in err


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

    assert MonoidFamily("A", 12).weyl_order == 479001600
    assert MonoidFamily("A", 12).weyl_order > MAX_WEYL_ORDER


def test_huge_rank_refused_by_the_size_limit(capsys):
    from rennermonoids.monoid import MAX_WEYL_ORDER

    code, out, err = run(capsys, "--family", "B", "--rank", "1500", "len", "1")
    assert code == 3
    assert out == ""
    assert f"limit {MAX_WEYL_ORDER}" in err


def test_huge_rank_refused_without_its_factorial(capsys, monkeypatch):
    import math

    import rennermonoids.model as model

    def small_factorial(n):
        if n > 20:
            raise AssertionError(f"factorial({n}) computed")
        return math.factorial(n)

    monkeypatch.setattr(model, "factorial", small_factorial)
    code, out, err = run(capsys, "--family", "D", "--rank", str(10**9), "len", "1")
    assert code == 3
    assert out == ""
    assert "limit" in err
