"""Cold commands import only what they run.

Each check starts a fresh `python -S` interpreter with PYTHONPATH=src: `-S`
skips the site packages, which may pre-load modules on their own, so what
the check sees loaded is what the package and its command loaded.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
WATCHED = ("dataclasses", "inspect", "json", "rennermonoids.presentation")


def loaded_after(code: str) -> set[str]:
    """The WATCHED modules loaded once ``code`` has run in a fresh interpreter."""
    report = f"import sys\nprint(repr([m for m in {WATCHED!r} if m in sys.modules]))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", f"{code}\n{report}"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return set(ast.literal_eval(out.splitlines()[-1]))


def after_command(*argv: str) -> set[str]:
    args = ["--family", "A", "--rank", "3", *argv]
    return loaded_after(f"import rennermonoids.cli as cli\ncli.main({args!r})")


def test_importing_the_cli_loads_no_dataclasses_inspect_json_or_presentation():
    assert loaded_after("import rennermonoids.cli") == set()


@pytest.mark.parametrize("argv", [["len", "1"], ["nf", "s1 e1"], ["enumerate"]])
def test_text_commands_without_presentations_load_neither_json_nor_presentation(argv):
    assert after_command(*argv) == set()


@pytest.mark.parametrize(
    "argv", [["verify"], ["present"], ["typemap"], ["enumerate", "--words"]]
)
def test_commands_with_presentations_load_them(argv):
    assert "rennermonoids.presentation" in after_command(*argv)


def test_json_output_loads_json():
    assert after_command("--json", "len", "1") == {"json"}


def test_star_import_binds_every_public_name():
    code = (
        "import rennermonoids\nfrom rennermonoids import *\n"
        "missing = [n for n in rennermonoids.__all__ if n not in globals()]\n"
        "assert not missing, missing"
    )
    assert "rennermonoids.presentation" in loaded_after(code)


def test_unknown_package_attribute_raises_attribute_error():
    code = (
        "import rennermonoids\ntry:\n    rennermonoids.no_such_name\n"
        "except AttributeError as exc:\n    assert 'no_such_name' in str(exc)\n"
        "else:\n    raise SystemExit('no AttributeError')"
    )
    assert loaded_after(code) == set()
