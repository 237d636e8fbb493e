"""Benchmark of the stackfem pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Each operation runs in a fresh worker
process (perfbench/worker.py) with BLAS pinned to one thread, one after
another, until --seconds have passed; at least one operation always runs.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. The full
per-operation records go to perfbench/out/. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("solve-II-p1", "sweep-I-p2", "condition-I-p1", "boundary-layer")
MODULES = ("mesh", "geom2d", "multimesh", "assembly", "solver", "analysis", "cli")
END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "dofs_per_s": "dofs/s", "peak_rss_mb": "MB"}
# setup_s is the median over at least this many fresh processes per run.
SETUP_SAMPLES = 5
# Every run ends within this many seconds, or fails without a result.
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    # OpenBLAS's default two threads made the first CG solve stall now and
    # then (1.1-1.4 s instead of 0.05-0.08 s); one thread never did.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, index: int, deadline: float, setup_only: bool = False) -> dict:
    """Run one worker process to its end and return its record."""
    name = f"{args.workload}-seed{args.seed}-op{index}"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--index", str(index), "--out", str(OUT / "work" / name),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.trace:
        cmd += ["--trace-file", str(OUT / "traces" / f"{name}.csv")]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {index} ran past the {RUN_DEADLINE_S} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {index} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def src_lines() -> dict[str, float]:
    return {
        f"{m}.src_lines": float(len((SRC / "stackfem" / f"{m}.py").read_text().splitlines()))
        for m in MODULES
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("src_lines"):
        return "lines"
    if name.endswith("_yield"):
        return "ratio"
    return "count"


def summarize(records: list[dict], setups: list[float], trace: int) -> dict:
    """The printed result: counts of operations and the median-based metrics."""
    bad = [r for r in records if r["failed"] or r["check_failures"]]
    good = [r for r in records if r not in bad] or records
    if trace:
        values = {k: statistics.median(r["layers"][k] for r in good)
                  for k in good[0]["layers"]}
        values.update(src_lines())
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "op_s": statistics.median(r["op_s"] for r in good),
            "dofs_per_s": statistics.median(r["dofs"] / r["op_s"] for r in good),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {
        "correct": not any(r["check_failures"] for r in records),
        "attempted": len(records),
        "failed": len(bad),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args(argv)
    if not (SRC / "stackfem" / "cli.py").is_file():
        print(f"run.py: no program sources under {SRC}", file=sys.stderr)
        return 2
    for sub in ("work", "traces"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)

    try:
        records = []
        t0 = time.monotonic()
        deadline = t0 + RUN_DEADLINE_S
        while not records or time.monotonic() - t0 < args.seconds:
            records.append(spawn(args, len(records), deadline))
        setups = [r["setup_s"] for r in records]
        while len(setups) < SETUP_SAMPLES:
            index = len(records) + len(setups)
            setups.append(spawn(args, index, deadline, setup_only=True)["setup_s"])
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    for r in records:
        for msg in r["check_failures"]:
            print(f"check failed: {msg}", file=sys.stderr)
    result = summarize(records, setups, args.trace)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"records": records, "setup_samples": setups, "result": result},
                   indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
