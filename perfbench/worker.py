"""One benchmark operation in a fresh process.

Started by run.py with BLAS pinned to one thread. It imports the program,
makes its inputs, runs one timed operation, records the peak resident
memory, then checks the outputs outside the timed phase. With --trace 1
the calls into each layer are wrapped for the operation only and the spans
are written to --trace-file. The last line of standard output is one JSON
record.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from workloads import WORKLOADS

    make_inputs, run, check = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed, args.index, Path(args.out))
    tracer = None
    if args.trace:
        from tracing import ROOT, Tracer

        tracer = Tracer()
    setup_s = time.monotonic() - args.spawned_at
    record = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    error = None
    with tracer.installed() if tracer else nullcontext():
        t0 = time.perf_counter()
        try:
            with tracer.span(ROOT) if tracer else nullcontext():
                output = run(inputs)
        except Exception:
            error = traceback.format_exc()
        op_s = time.perf_counter() - t0
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["op_s"] = op_s
    if error is None:
        try:
            dofs, fails = check(inputs, output)
        except Exception:
            dofs, fails = 0, [traceback.format_exc()]
        record.update(dofs=dofs, failed=False, check_failures=fails)
    else:
        print(error, file=sys.stderr)
        record.update(dofs=0, failed=True, check_failures=[])
    if tracer:
        record["layers"] = tracer.layer_metrics()
        if args.trace_file:
            tracer.write(args.trace_file, args.index)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
