"""dmdk benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload desk --seed 1 --seconds 50 --trace 0

Run from any directory; the benchmark measures the program in the checkout
it sits in (``src/dmdk``). It generates the workload's inputs from the seed
in a child process (so their memory does not count toward ``peak_rss_mb``),
runs the workload, checks its outputs and prints two JSON lines:

* a details record: environment, input and output digests, sample counts,
  workload-specific figures and any failures;
* the result: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
  ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json, with
  ``--trace 1`` the per-layer ones.

Generated inputs live in a temporary directory under ``.bench_work/`` in the
checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import program
from spec import WORKLOADS

BENCH = Path(__file__).resolve().parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def result(ledger, values: dict, wanted: list[dict]) -> dict:
    """The result line: correct, attempted, failed and each wanted metric with its unit."""
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in values
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    program.load()
    spec_path = program.ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"bench: {spec_path} not found")
    bench_spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = bench_spec["per_layer" if args.trace else "end_to_end"]

    import inputs
    import workloads

    w = WORKLOADS[args.workload]
    scratch = program.ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=scratch))
    try:
        subprocess.run(
            [sys.executable, str(BENCH / "inputs.py"), w.name, str(args.seed), str(work)],
            check=True,
            timeout=600,
        )
        digest = inputs.digest(work)
        ledger, values, details = workloads.run(w, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run's inputs are still there
            pass

    for failure in ledger.failures:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs_sha256": digest,
        "details": details,
        "failures": ledger.failures,
    }, sort_keys=True))
    print(json.dumps(result(ledger, values, wanted)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
