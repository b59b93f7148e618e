"""xkit benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload mc-study --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from anywhere inside a checkout; the package is taken from the
checkout's ``src``.  Each workload runs in fresh single-threaded processes
(``worker.py``): two set-up probes, then the measured process.  ``setup_s``
is the median of the three set-up times.  With ``--trace 1`` one traced
process runs instead and the per-layer metrics are printed.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Generated inputs and traces go to
``perfbench/out``.
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
WORKLOADS = ("mc-study", "observed", "calibrate")
PROBES = 2
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "XKIT_JOBS": "1",
}


def make_volumes(work: Path, seed: int) -> None:
    """Write the observed pool: two Gaussian and two standardised chi^2_5 64^3
    volumes of roughness 880, periodic spectral syntheses made with numpy."""
    import numpy as np

    sys.path.insert(0, str(HERE))
    import oracles

    n, spacing = 64, 1.0 / 63.0
    omega = 2.0 * np.pi * np.fft.fftfreq(n, d=spacing)
    w2 = sum(np.meshgrid(omega**2, omega**2, omega**2, indexing="ij", sparse=True))

    def gaussian(rng, lambda2):
        # covariance exp(-lambda2 |x|^2 / 2) has spectral density
        # proportional to exp(-|w|^2 / (2 lambda2)); filter by its square root
        gain = np.exp(-w2 / (4.0 * lambda2))
        field = np.fft.ifftn(np.fft.fftn(rng.standard_normal((n, n, n))) * gain).real
        return field / np.sqrt(np.mean(gain**2))

    for old in work.glob("*.bin"):
        old.unlink()
    for i in range(4):
        rng = np.random.default_rng([seed, i])
        if i % 2 == 0:
            values = gaussian(rng, 880.0)
        else:
            squares = sum(gaussian(rng, 440.0) ** 2 for _ in range(5))
            values = (squares - 5.0) / np.sqrt(10.0)
        oracles.write_xkf(work / f"volume-{i}.bin", values, spacing)


def spawn(name: str, args, work: Path, probe: bool) -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", str(work), "--src", src,
        "--t0", repr(time.monotonic()),
    ]
    if probe:
        cmd.append("--probe")
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=args.seconds + 120
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name} process exited with {proc.returncode}")
    for line in lines[:-1]:
        print(f"[{name}] {line}")
    return json.loads(lines[-1])


def run_workload(name: str, args) -> dict:
    work = HERE / "out" / name
    work.mkdir(parents=True, exist_ok=True)
    if name == "observed":
        make_volumes(work, args.seed)
    setups = [] if args.trace else [spawn(name, args, work, True)["setup_s"] for _ in range(PROBES)]
    result = spawn(name, args, work, False)
    metrics = result["metrics"]
    if "traced_run" in result:
        view = result["traced_run"]
        print(f"[{name}] traced run: {view['ops_per_s']:.4g} ops/s, "
              f"median op {view['op_p50_ms']:.4g} ms")
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "xkit" / "__init__.py").is_file():
        print(f"error: no xkit package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args) for name in names}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:28s} {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": m
                for name, r in results.items()
                for metric, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
