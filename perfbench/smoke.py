#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny sizes, in seconds.

    python3 perfbench/smoke.py

Run from anywhere; it drives the command in BENCHMARK.json from the
repository root.  It checks that:
  - every workload exits 0 with a correct result and no failed runs;
  - the printed metric names and units are exactly those BENCHMARK.json
    lists (end_to_end with --trace 0, per_layer with --trace 1);
  - one seed gives identical input and trace digests twice (once traced,
    once not) and a second seed gives different ones;
  - in a directory holding only BENCHMARK.json and the benchmark's
    paths, the command exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def digests(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        if key in ("input_digest.sha256", "trace_digest.sha256"):
            out[key] = value
    return out


def check_workload(workload: str, problems: list[str]) -> None:
    wanted = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    seen = {}
    for seed, trace in ((1, 0), (1, 1), (2, 0)):
        proc = run(ROOT, workload, seed, trace)
        tag = f"{workload} seed {seed} trace {trace}"
        res = last_json(proc.stdout)
        if proc.returncode != 0 or res is None:
            problems.append(f"{tag}: exit {proc.returncode}, stderr {proc.stderr[-500:]!r}")
            continue
        if set(res) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{tag}: result keys {sorted(res)}")
        if not res["correct"] or res["failed"] or res["attempted"] < 1:
            problems.append(f"{tag}: correct={res['correct']} failed={res['failed']} "
                            f"attempted={res['attempted']}")
        units = {k: v["unit"] for k, v in res["metrics"].items()}
        if units != wanted[trace]:
            missing = sorted(set(wanted[trace]) - set(units))
            extra = sorted(set(units) - set(wanted[trace]))
            problems.append(f"{tag}: metrics differ from BENCHMARK.json: missing {missing}, "
                            f"extra {extra}, or units differ")
        seen[(seed, trace)] = digests(proc.stdout)
    if len(seen) != 3:
        return
    first, again, other = seen[(1, 0)], seen[(1, 1)], seen[(2, 0)]
    for key in ("input_digest.sha256", "trace_digest.sha256"):
        if not first.get(key) or first.get(key) != again.get(key):
            problems.append(f"{workload}: seed 1 gave {key} {first.get(key)} then {again.get(key)}")
        if first.get(key) == other.get(key):
            problems.append(f"{workload}: seeds 1 and 2 gave the same {key}")


def check_bare_directory(problems: list[str]) -> None:
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 1, 0)
        if proc.returncode == 0 or last_json(proc.stdout) is not None:
            problems.append(f"bare directory: exit {proc.returncode} with output {proc.stdout[-300:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    problems: list[str] = []
    for w in SPEC["workloads"]:
        check_workload(w["name"], problems)
    check_bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
