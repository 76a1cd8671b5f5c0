"""The benchmark's own test, at tiny sizes (about 15 s):

    python3 perfbench/smoke.py

For every workload, with and without tracing, it runs ``run.py --smoke``
and asserts that every metric BENCHMARK.json declares prints by name
with its unit, that the last line is the result object, and that every
output check ran and passed.  The checks pinned at seed 42 need full
sizes, so here they must be the only ones that did not run.  Last, it
asserts that run.py refuses, without a result, in a directory holding
only BENCHMARK.json and the benchmark.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workload import CHECKS, PINNED

ROOT = Path.cwd()
RUN = [sys.executable, "perfbench/run.py"]


def check_run(workload: str, trace: int, declared: dict) -> list[str]:
    done = subprocess.run(RUN + ["--workload", workload, "--seed", "42",
                                 "--seconds", "1", "--trace", str(trace),
                                 "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-500:]}"]
    lines = done.stdout.strip().splitlines()
    errors = []
    group = "per_layer" if trace else "end_to_end"
    for metric in declared[group]:
        pattern = rf"^{re.escape(metric['name'])} = \S+ {re.escape(metric['unit'])}\b"
        if not any(re.match(pattern, ln) for ln in lines):
            errors.append(f"{where}: {metric['name']} not printed with unit "
                          f"{metric['unit']}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if {m["name"]: m["unit"] for m in declared[group]} != {
            k: v["unit"] for k, v in result["metrics"].items()}:
        errors.append(f"{where}: result metrics differ from BENCHMARK.json")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        errors.append(f"{where}: failed {result['failed']} of "
                      f"{result['attempted']}")
    checks_line = next(ln for ln in lines if ln.startswith("# checks"))
    ran = json.loads(checks_line.split(")", 1)[1])
    expected = set(CHECKS[workload]) - set(PINNED)
    if trace == 0:
        expected.discard("reproducible")  # needs a second pass
    if set(ran) != expected:
        errors.append(f"{where}: checks ran {sorted(ran)}, "
                      f"expected {sorted(expected)}")
    return errors


def check_bare() -> list[str]:
    """run.py must fail, printing no result, without the sources."""
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(RUN + ["--workload", "ensemble", "--seed", "1",
                                     "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True,
                              timeout=180)
    finally:
        shutil.rmtree(bare)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return ["bare directory: run.py did not refuse"]
    return []


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in CHECKS:
        for trace in (0, 1):
            errors += check_run(workload, trace, declared)
    errors += check_bare()
    for e in errors:
        print("FAIL", e)
    print("smoke: " + ("ok" if not errors else f"{len(errors)} failures"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
