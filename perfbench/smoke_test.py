#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Runs every workload declared in BENCHMARK.json for the shortest length
(--seconds 1), untraced and traced, and asserts that each run exits 0,
passes every output check, and prints exactly the declared end-to-end
(untraced) or per-layer (traced) metrics, each with its declared unit
and a finite value.

    python3 perfbench/smoke_test.py [--workload NAME] [--no-trace]

Run it from the root of the repository; it builds through run.py.
"""
import argparse
import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(spec, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=900)
    lines = res.stdout.strip().splitlines()
    errors = []
    if res.returncode != 0:
        errors.append(f"exit code {res.returncode}")
    if not lines:
        return errors + ["no output"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("output checks failed: " + "; ".join(
            l for l in lines if l.startswith("CHECK FAILED")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted must be a whole number >= 1")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result.get("metrics", {})
    for name in sorted(set(want) - set(got)):
        errors.append(f"missing metric {name}")
    for name in sorted(set(got) - set(want)):
        errors.append(f"undeclared metric {name}")
    for name in sorted(set(want) & set(got)):
        m = got[name]
        if m.get("unit") != want[name]:
            errors.append(f"{name}: unit {m.get('unit')!r}, declared {want[name]!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{name}: value {v!r} is not a finite number")
    for name in ("meta ", "digest all "):
        if not any(l.startswith(name) for l in lines):
            errors.append(f"no '{name.strip()}' line")
    return errors


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--no-trace", action="store_true")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload:
        workloads = [args.workload]
    failed = False
    for w in workloads:
        for trace in ((0,) if args.no_trace else (0, 1)):
            errors = run(spec, w, trace)
            status = "ok" if not errors else "FAIL"
            print(f"{status} {w} trace={trace}", flush=True)
            for e in errors:
                print(f"    {e}")
            failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
