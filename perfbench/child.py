"""One cold `renner` command that also samples the machine while it runs.

    PYTHONPATH=src python perfbench/child.py <renner arguments...>

It calls `rennermonoids.cli.main(argv)` in this fresh interpreter, as
`python -m rennermonoids.cli` would, and leaves the command's stdout and
exit code as they are.  Every PROBE_EVERY_S seconds a timer signal runs
`common.probe_s`, and the probe times go to the last line of stderr as a
JSON list: they tell how fast the machine ran during the command, not only
around it (see `common.Scale`).
"""

from __future__ import annotations

import json
import signal
import sys

import common  # also puts src/ on sys.path

PROBE_EVERY_S = 0.25


def main(argv: list[str]) -> int:
    probes: list[float] = []
    signal.signal(signal.SIGALRM, lambda *_: probes.append(common.probe_s()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        import rennermonoids.cli as cli

        code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdout.flush()
        print(json.dumps(probes), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
