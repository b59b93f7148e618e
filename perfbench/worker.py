"""One workload in one fresh process: import xkit, warm up, run ops, check them.

``run.py`` starts this file with the checkout's ``src`` on ``PYTHONPATH`` and
passes ``--t0``, its ``time.monotonic()`` just before the spawn (the clock is
system-wide), so set-up is measured from process spawn to the first op.
With ``--probe`` the process stops after set-up.  Otherwise it runs whole
rounds of ops as a closed loop (the next op starts when the previous one
ends) until ``--seconds`` have passed, then checks every op's output against
the oracles and prints one JSON line.

Only the standard library is imported before ``xkit``, so the import time
covers numpy and scipy as a user's first ``import xkit`` does.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _check_all(wl, records):
    """Check every op; returns (failures by op name, unexpected failure seen)."""
    from workloads import CheckFailed

    failures: dict[str, list] = {}
    unexpected = False
    for index, (op, kept) in enumerate(records):
        name, fault = wl.describe(op)
        try:
            if isinstance(kept, Exception):
                raise kept
            wl.check(index, op, kept)
        except CheckFailed as exc:
            entry = failures.setdefault(name, [0, fault, str(exc)])
            entry[0] += 1
            unexpected = unexpected or fault is None
        except Exception as exc:  # an op that raised is a failed op, reported by type
            # only wrong values are put down to a known fault; raising never is
            entry = failures.setdefault(name, [0, None, f"{type(exc).__name__}: {exc}"])
            entry[0] += 1
            unexpected = True
    return failures, unexpected


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    t = time.perf_counter()
    import xkit
    import xkit.cli

    import_s = time.perf_counter() - t
    import numpy as np

    from workloads import WORKLOADS

    if not os.path.abspath(xkit.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"error: xkit imported from {xkit.__file__}, not {args.src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        for name in tracer.absent:
            print(f"trace: {name} is absent and not traced")

    t = time.perf_counter()
    wl = WORKLOADS[args.workload](xkit, args.seed % 2**32, args.work)
    wl.warmup()
    warmup_s = time.perf_counter() - t
    setup_s = time.monotonic() - args.t0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    op_ms, records = [], []
    cpu0 = time.process_time()
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < args.seconds:
        for op in wl.round(index):
            if tracer:
                tracer.op = len(records)
            t = time.perf_counter()
            try:
                out = wl.run(op)
            except Exception as exc:  # recorded as a failed op; the loop goes on
                out = exc
            op_ms.append(1e3 * (time.perf_counter() - t))
            records.append((op, out if isinstance(out, Exception)
                            else wl.keep(len(records), op, out)))
        index += 1
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, unexpected = _check_all(wl, records)
    problems, notes = wl.check_run(
        [kept for _, kept in records if not isinstance(kept, Exception)]
    )
    for note in notes:
        print(f"check: {note}")
    for name, (count, fault, detail) in failures.items():
        print(f"FAILED {name} x{count}: {fault or 'unexpected failure'}: {detail}")
    for problem in problems:
        print(f"FAILED run check: {problem}")

    n = len(op_ms)
    result = {
        "correct": not unexpected and not problems,
        "attempted": n,
        "failed": sum(v[0] for v in failures.values()),
        "setup_s": setup_s,
    }
    if tracer:
        tracer.dump(os.path.join(args.work, f"trace-{args.seed}.jsonl"))
        result["metrics"] = tracer.layer_metrics(n, import_s, warmup_s)
        result["traced_run"] = {"ops_per_s": n / wall, "op_p50_ms": float(np.median(op_ms))}
    else:
        p50, p90 = np.percentile(op_ms, [50, 90])
        result["metrics"] = {
            "ops_per_s": {"value": n / wall, "unit": "ops/s"},
            "op_p50_ms": {"value": float(p50), "unit": "ms"},
            "op_p90_ms": {"value": float(p90), "unit": "ms"},
            "cpu_ms_per_op": {"value": 1e3 * cpu / n, "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
