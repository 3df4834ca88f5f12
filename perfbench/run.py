"""Benchmark of the Renner-monoid engine.

    python3 perfbench/run.py --workload session|sweep|certify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it holds the run's context (git SHA, Python version, core
count, load average, `src/` line count) and details such as sample counts.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

from common import ROOT, SRC

WORKLOADS = ("session", "sweep", "certify")


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (which would
    search parent directories when the checkout is not a repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    total += sum(1 for _ in f)
    return total


def context() -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "load_1min_at_start": os.getloadavg()[0],
        "src_lines": _src_lines(),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "rennermonoids", "cli.py")):
        print(f"error: no engine sources under {SRC}", file=sys.stderr)
        return 2
    ctx = context()
    if args.workload == "session":
        import session

        res = session.run(args.seed, args.seconds, bool(args.trace))
    else:
        import cold

        res = cold.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"workload": args.workload, "context": ctx, "details": res["details"]}))
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": res["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
