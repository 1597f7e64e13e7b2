"""calibrefine benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload stream --seed 0 --seconds 35 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
same checkout. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``
(see ``BENCHMARK.json`` and ``perfbench/README.md``). The run environment and
per-scene detail are printed on the line before it and written, with the
trace spans, under ``.perfbench-out/``.
"""
from __future__ import annotations

import os

# One BLAS thread: the code is single-threaded Python, and OpenBLAS worker
# threads only add CPU time and run-to-run noise on a small machine. Must be
# set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench-out"
WORK_DIR = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("stream", "dense", "cli")


def use_checkout_package() -> bool:
    """Import calibrefine from this checkout's ``src/``; False if absent."""
    if not (SRC / "calibrefine" / "__init__.py").is_file():
        print(f"error: no calibrefine package under {SRC}", file=sys.stderr)
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args) -> tuple[dict, dict]:
    """Run the workload; returns (result line, detail record)."""
    import workloads
    from tracer import Tracer

    shape = workloads.SHAPES[args.scale][args.workload]
    tally = workloads.Tally()
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        if args.trace:
            if args.workload == "cli":
                extra, detail = workloads.trace_cli(args.workload, args.seed, shape, tally, tracer, work)
            else:
                extra, detail = workloads.trace_library(args.workload, args.seed, shape, tally, tracer)
            missing = workloads.missing_calls(tracer, args.workload)
            if missing:
                raise SystemExit(f"traced run reached no call of: {', '.join(missing)}")
            values = {**workloads.layer_metrics(tracer), **extra}
        elif args.workload == "cli":
            values, detail = workloads.run_cli(
                args.workload, args.seed, args.seconds, shape, tally, SRC, work
            )
        else:
            values, detail = workloads.run_library(
                args.workload, args.seed, args.seconds, shape, tally, SRC
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    units = declared_metrics(args.trace)
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"no measurement for: {', '.join(missing)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
        detail["spans"] = tracer.summary()
    return result, detail


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="scene sizes; 'tiny' is for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout_package():
        return 2
    env = environment(args)
    result, detail = run(args)
    record = {"env": env, "detail": detail, "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    print(json.dumps({"env": env, "detail": {k: v for k, v in detail.items() if k != "spans"}},
                     sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
