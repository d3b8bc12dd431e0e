#!/usr/bin/env python3
"""Layer-by-layer benchmark of the checked reduce pipeline.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Set-up generates the workload's inputs from --seed and writes them as
edge-list files (five times, spread between passes; setup_s is the
median).  Passes run in one thread, closed loop: each checked reducer
run starts when the previous one has finished.  Passes repeat until
another pass would end after --seconds; at least one pass always runs.
An untraced run then spends the time left on top-up passes over the
pairs that still fit.
A reference kernel samples the host's speed on a timer all along, and
every time is reported in seconds of a host at nominal speed
(perfbench/hostspeed.py).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes, then runs ``planarize reduce`` once per checked run
through ``cli.main`` and compares its report with the library run, and
prints the per-layer metrics.  Human-readable lines come first; the last
line is one JSON object with correct, attempted, failed and metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", choices=("verify", "reduce", "corpus"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input sizes; 'tiny' is for perfbench/smoke.py")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "planarize" / "__init__.py").is_file():
        print(f"perfbench: no planarize sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from measure import measure  # needs src/ on sys.path

    workdir = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        correct, attempted, failed, metrics, units, lines = measure(args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
