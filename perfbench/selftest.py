"""Fast self-test of the benchmark (about half a minute).

    python3 perfbench/selftest.py

Run from the root of a checkout.  Runs every workload in smoke mode (a few
tiny episodes), untraced and traced, and checks that each run is correct
and reports exactly the metrics ``BENCHMARK.json`` declares, with valid
names and units.  Then checks that the benchmark refuses to run, without
printing a result, in a directory that holds only ``BENCHMARK.json`` and
the benchmark.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_spec(spec):
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    check(declared == {n: w.why for n, w in workloads.WORKLOADS.items()},
          "BENCHMARK.json workloads differ from workloads.py")
    check(spec["end_to_end"] and all(
        0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
        "every end-to-end bound must lie in (0, 0.25]")
    check({"name": "setup_s", "unit": "s", "better": "lower",
           "bound": max(m["bound"] for m in spec["end_to_end"])}
          in spec["end_to_end"], "setup_s must be declared with the "
          "largest bound")
    for kind, names in (("end_to_end", workloads.END_TO_END),
                        ("per_layer", workloads.per_layer_metrics())):
        check([(m["name"], m["unit"]) for m in spec[kind]] == list(names),
              f"BENCHMARK.json {kind} differs from workloads.py")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    check_spec(spec)
    for name in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(root, name, trace)
            check(proc.returncode == 0,
                  f"{name} trace {trace} exited {proc.returncode}:\n"
                  f"{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{name}: result keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{name} trace {trace} not correct:\n{proc.stdout[-3000:]}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = result["metrics"]
            check(set(got) == set(want), f"{name} trace {trace}: metrics "
                  f"{sorted(set(got) ^ set(want))} missing or extra")
            for metric, entry in got.items():
                check(NAME.fullmatch(metric), f"bad metric name {metric!r}")
                check(UNIT.fullmatch(entry.get("unit", "")),
                      f"{metric}: bad unit {entry.get('unit')!r}")
                check(entry["unit"] == want[metric], f"{metric}: unit")
                check(isinstance(entry["value"], (int, float)),
                      f"{metric}: value is not a number")
            print(f"ok  {name} trace {trace}: {len(got)} metrics")

    bare = root / ".perfbench-work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(root / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, next(iter(workloads.WORKLOADS)), 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "the benchmark must fail without output when src/ is absent")
    print("ok  refuses to run without the program")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
