#!/usr/bin/env python3
"""Repository benchmark: builds the program from source and runs one
workload, printing one JSON result object as the last line of stdout.

    python3 perfbench/run.py --workload campaign|recover|offline|serve \
        --seed N --seconds S --trace 0|1

Run it from the root of the repository. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), and run
artifacts (spans, per-run records, shard and socket scratch) to
.bench_build/runs. See perfbench/README.md for the workloads and
metrics.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("campaign", "recover", "offline", "serve")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_rev(root):
    """The git revision, or a digest of the sources when the checkout is
    not a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for sub in ("src", "tools", "perfbench"):
        base = root / sub
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(root)).encode())
                h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "perfbench", "dcrm"],
    ]
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout)
            log(f"build step failed ({res.returncode}): {' '.join(cmd)}")
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                             root / ".bench_build"))
    if not build_root.is_absolute():
        build_root = pathlib.Path.cwd() / build_root
    build_dir = build_root / "perfbench"
    if not build(root, build_dir):
        return 1
    out_dir = root / ".bench_build" / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(build_dir / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--dcrm", str(build_dir / "dcrm"),
           "--out-dir", os.path.relpath(out_dir, pathlib.Path.cwd()),
           "--rev", source_rev(root)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = res.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if res.returncode != 0 or not lines:
        log(f"run failed with exit code {res.returncode}")
        for line in lines[-1:]:
            print(line)
        return res.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last line of the run is not a JSON result")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("result line has the wrong keys")
        return 1
    record = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.txt"
    record.write_text(res.stdout)
    print(lines[-1], flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
