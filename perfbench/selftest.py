"""Self-test of the benchmark at a tiny scene size (about 20 s).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed, that every workload emits every
declared metric with its unit in both modes, that all operations pass their
correctness checks, and that the traced runs together reach every wrapped
function. Exits 1 on the first failed check.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys

import run
from tracer import TARGETS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    check(names == list(run.WORKLOAD_NAMES), f"workloads {names}")
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = [m["name"] for m in metrics] + names
    check(len(all_names) == len(set(all_names)), "names are unique")
    for m in metrics:
        check(bool(NAME.match(m["name"])) and bool(UNIT.match(m["unit"])), f"name/unit of {m}")
        check(m["better"] in ("lower", "higher"), f"better of {m['name']}")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
              f"end_to_end entry {m['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"]), "setup_s has unit s and the largest bound")


def main() -> int:
    if not run.use_checkout_package():
        return 2
    spec = json.loads(run.BENCHMARK.read_text())
    check_spec(spec)
    reached: set[str] = set()
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = ["--workload", workload, "--seed", "7", "--seconds", "0",
                    "--trace", str(trace), "--scale", "tiny"]
            with contextlib.redirect_stdout(io.StringIO()):
                result, detail = run.run(run.parse_args(argv))
            declared = spec["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            check(list(got) == [m["name"] for m in declared], f"{workload} trace {trace}: metric names")
            for m in declared:
                value = got[m["name"]]
                check(value["unit"] == m["unit"], f"{workload}: unit of {m['name']}")
                check(math.isfinite(value["value"]), f"{workload}: {m['name']} is finite")
                if not trace:
                    check(value["value"] > 0, f"{workload}: {m['name']} is positive")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} trace {trace}: all operations correct")
            if trace:
                reached |= {name for name, s in detail["spans"].items() if s["calls"]}
            print(f"ok  {workload} trace={trace} attempted={result['attempted']}")
    wrapped = {f"{module}.{fn}" for module, fn, _ in TARGETS}
    unreached = sorted(wrapped - reached)
    check(not unreached, f"tracer never reached: {unreached}")
    print(f"ok  tracer reached all {len(wrapped)} wrapped functions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
