"""Command line interface: normal forms, lengths, presentations, verification.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 enumeration cap exceeded, unit group too large to build, or out of memory
("error: out of memory: ..."), 4 an internal consistency check of the engine
failed (a RuntimeError from a build-time or per-call self-check, reported as
"error: internal check failed: ..."), 141 (128 + SIGPIPE) the reader of
stdout closed it before the output was written.
All diagnostics go to stderr; with --json the payload on stdout is a
single compact JSON object with family, rank, command, result.
Only the commands that use them import `presentation` and `json`.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import groupby
from typing import Iterator, Sequence

from .model import DEFAULT_ENUMERATION_CAP, EnumerationCapExceeded, GeneratorName
from .monoid import NormalForm, OutsideMonoidError, RennerMonoid

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141

_TOKEN = re.compile(r"[sef][0-9]+")


class WordParseError(ValueError):
    pass


def parse_word(text: str, engine: RennerMonoid) -> list[GeneratorName]:
    """Whitespace-separated tokens: s<i>, e<j>, f<l>, or 1 for the empty word."""
    word = []
    by_name = {str(g): g for g in engine.alphabet}
    for pos, tok in enumerate(text.split(), start=1):
        if tok == "1":
            continue
        if _TOKEN.fullmatch(tok) is None:
            raise WordParseError(f"malformed token {tok!r} at position {pos}")
        g = by_name.get(tok)
        if g is None:
            raise WordParseError(f"unknown generator {tok} at position {pos}")
        word.append(g)
    return word


def _nf_result(engine: RennerMonoid, nf: NormalForm) -> dict:
    """The canonical word, split at e's letter into the words of w1 and w2;
    the unit has no letter, and its w2 is 1."""
    word = [str(g) for g in engine.canonical_word(nf)]
    cut = len(word) if nf.e.name is None else word.index(nf.e.token)
    return {
        "word": word,
        "w1": word[:cut],
        "e": nf.e.token,
        "w2": word[cut + 1 :],
        "length": engine.length(nf),
    }


def _cmd_nf(engine: RennerMonoid, args) -> tuple[dict, int]:
    nf = engine.normal_decompose(engine.evaluate(parse_word(args.word, engine)))
    return _nf_result(engine, nf), EXIT_OK


def _cmd_mul(engine: RennerMonoid, args) -> tuple[dict, int]:
    a = engine.normal_decompose(engine.evaluate(parse_word(args.left, engine)))
    b = engine.normal_decompose(engine.evaluate(parse_word(args.right, engine)))
    return _nf_result(engine, engine.multiply(a, b)), EXIT_OK


def _cmd_len(engine: RennerMonoid, args) -> tuple[dict, int]:
    x = engine.evaluate(parse_word(args.word, engine))
    return {"length": engine.length_of_element(x)}, EXIT_OK


def _cmd_present(engine: RennerMonoid, args) -> tuple[dict, int]:
    from .presentation import generate_explicit, generate_full, generate_reduced, relation_lines

    pres = {
        "full": generate_full,
        "reduced": generate_reduced,
        "explicit": generate_explicit,
    }[args.flavor](engine)
    return {
        "flavor": pres.flavor,
        "alphabet": [str(g) for g in pres.alphabet],
        "relations": [
            {"tag": r.tag, "lhs": [str(g) for g in r.lhs], "rhs": [str(g) for g in r.rhs]}
            for r in pres.relations
        ],
        "lines": relation_lines(pres),
    }, EXIT_OK


def _cmd_verify(engine: RennerMonoid, args) -> tuple[dict, int]:
    from . import presentation

    checks = []
    for flavor, gen in (
        ("full", presentation.generate_full),
        ("reduced", presentation.generate_reduced),
        ("explicit", presentation.generate_explicit),
    ):
        rep = presentation.verify_relations(engine, gen(engine))
        checks.append(
            {
                "name": f"relations-{flavor}",
                "ok": rep.ok,
                "checked": rep.checked,
                "failures": len(rep.failures),
            }
        )
    comp = presentation.verify_completeness(engine, args.cap)
    checks.append(
        {
            "name": "completeness",
            "ok": comp.ok,
            "monoid": comp.monoid_size,
            "triples": comp.triple_count,
            "values": comp.value_count,
            "missing": comp.missing,
            "collisions": comp.collisions,
        }
    )
    ok = all(c["ok"] for c in checks)
    return {"checks": checks, "ok": ok}, EXIT_OK if ok else EXIT_VERIFY


def _cmd_enumerate(engine: RennerMonoid, args) -> tuple[dict, int]:
    if not args.words:
        return {"count": len(engine.inverse_images(args.cap))}, EXIT_OK
    from .presentation import word_str

    elements = engine.elements(args.cap)
    words = [word_str(engine.canonical_word(engine.normal_decompose(x))) for x in elements]
    return {"count": len(elements), "words": words}, EXIT_OK


def _cmd_typemap(engine: RennerMonoid, args) -> tuple[dict, int]:
    """Type maps, then each pair's up-intersections: the join words of the
    reduced presentation, grouped by outer idempotents."""
    from .presentation import generate_reduced, word_str

    lat = engine.lattice
    elems = []
    for e in lat.elements:
        tm = lat.type_map(e)
        elems.append(
            {
                "element": e.token,
                "commuting": [f"s{i}" for i in sorted(tm.commuting)],
                "absorbing": [f"s{i}" for i in sorted(tm.absorbing)],
                "nonabsorbing": [f"s{i}" for i in sorted(tm.nonabsorbing)],
            }
        )
    joins = [r for r in generate_reduced(engine).relations if r.tag == "TYM3"]
    pairs = [
        {"e": str(e), "f": str(f), "words": [word_str(r.lhs[1:-1]) for r in group]}
        for (e, f), group in groupby(joins, key=lambda r: (r.lhs[0], r.lhs[-1]))
    ]
    return {"typemaps": elems, "up_intersections": pairs}, EXIT_OK


def _text_lines(command: str, result: dict) -> Iterator[str]:
    if command in ("nf", "mul"):
        yield f"word: {' '.join(result['word']) or '1'}"
        yield f"w1: {' '.join(result['w1']) or '1'}"
        yield f"e: {result['e']}"
        yield f"w2: {' '.join(result['w2']) or '1'}"
        yield f"length: {result['length']}"
    elif command == "len":
        yield f"length: {result['length']}"
    elif command == "present":
        yield from result["lines"]
    elif command == "verify":
        for c in result["checks"]:
            extras = " ".join(f"{k}={v}" for k, v in c.items() if k not in ("name", "ok"))
            yield f"{c['name']}: {'ok' if c['ok'] else 'FAILED'} {extras}"
        yield f"verdict: {'pass' if result['ok'] else 'fail'}"
    elif command == "enumerate":
        yield f"count: {result['count']}"
        yield from result.get("words", [])
    elif command == "typemap":
        for row in result["typemaps"]:
            yield (
                f"{row['element']}: commuting={' '.join(row['commuting']) or '-'}"
                f" absorbing={' '.join(row['absorbing']) or '-'}"
                f" nonabsorbing={' '.join(row['nonabsorbing']) or '-'}"
            )
        for row in result["up_intersections"]:
            yield f"up {row['e']} {row['f']}: {', '.join(row['words'])}"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="renner",
        description="Compute in rook, symplectic, and even special orthogonal monoids.",
    )
    p.add_argument("--family", required=True, choices=["A", "B", "D"])
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--json", action="store_true", help="emit a JSON object on stdout")
    p.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_ENUMERATION_CAP,
        help="enumeration size cap (default 10^7)",
    )
    sub = p.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("nf", help="normal form of a word")
    sp.add_argument("word")
    sp = sub.add_parser("mul", help="product of two words in normal form")
    sp.add_argument("left")
    sp.add_argument("right")
    sp = sub.add_parser("len", help="length of the element a word represents")
    sp.add_argument("word")
    sp = sub.add_parser("present", help="emit a presentation")
    sp.add_argument(
        "--flavor",
        choices=["full", "reduced", "explicit"],
        default="reduced",
        help="relation family (default reduced); explicit is a sound fixed table,"
        " not a presentation of the B or D monoid from rank 3",
    )
    sub.add_parser("verify", help="relation soundness and completeness checks")
    sp = sub.add_parser("enumerate", help="enumerate the monoid")
    sp.add_argument("--words", action="store_true", help="list canonical words")
    sub.add_parser("typemap", help="type maps and upward coset minima")
    return p


_HANDLERS = {
    "nf": _cmd_nf,
    "mul": _cmd_mul,
    "len": _cmd_len,
    "present": _cmd_present,
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
    "typemap": _cmd_typemap,
}


def _write_stdout(text: str) -> None:
    """Write all of text to stdout.  An unbuffered stdout (PYTHONUNBUFFERED)
    is a raw file whose write may take only part of the bytes when a signal
    handler runs while it blocks on a full pipe, so loop on the count."""
    raw = getattr(sys.stdout, "buffer", None)
    if raw is None:  # a text stream such as io.StringIO
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding))
    while data:
        data = data[raw.write(data) :]
    raw.flush()


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cap < 1:
        parser.error(f"argument --cap: must be at least 1, got {args.cap}")
    try:
        engine = RennerMonoid(args.family, args.rank)
        result, code = _HANDLERS[args.command](engine, args)
    except (WordParseError, OutsideMonoidError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EnumerationCapExceeded as exc:  # a RuntimeError, so caught first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except RuntimeError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_CAP
    if args.json:
        import json

        head = {"family": args.family, "rank": args.rank, "command": args.command}
        text = json.dumps({**head, "result": result}, separators=(",", ":")) + "\n"
    else:
        text = "".join(f"{line}\n" for line in _text_lines(args.command, result))
    try:
        _write_stdout(text)
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
