"""Lines of src/kalpha that no Tier-1 test runs, outside Tier-1.

    PYTHONPATH=src python tests/trace_lines.py [extra pytest arguments]

Runs Tier-1 in this process under the stdlib trace module (no coverage
package is needed), with test_benchmark_smoke_passes and the two
expected criterion-4 failures deselected, then prints, per src/kalpha
module, each executable line that no test ran.  Only this process and
its threads are traced: tests that run the CLI in a subprocess, such as
the SIGTERM and FIFO ones, do not count.  A def line counts as run when
its def statement ran, a lambda's line when its enclosing line ran.
Exits with pytest's status.  It takes about 3-4 times as long as
Tier-1.
"""

from __future__ import annotations

import dis
import functools
import sys
import threading
import trace
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kalpha"
DESELECTED = [
    "tests/test_bench_bindings.py::test_benchmark_smoke_passes",
    "tests/test_acceptance.py::test_criterion_4_growth_index_signature[1.0]",
    "tests/test_acceptance.py::test_criterion_4_growth_index_signature[1.5]",
]


class PackageOnly:
    """trace's ignore filter, by path: every file outside src/kalpha is
    ignored.  (trace.Ignore caches its verdict per file basename, so an
    ignored __init__.py elsewhere would hide the package's own.)"""

    @functools.cache
    def names(self, filename, modulename) -> bool:
        return filename is None or Path(filename).resolve().parent != PACKAGE


def executable_lines(filename: Path) -> set[int]:
    """The line numbers that start a statement in filename's code objects,
    less each function's first line (its def, run by the enclosing code)."""
    module = compile(filename.read_text(), str(filename), "exec")
    lines, todo = set(), [module]
    while todo:
        code = todo.pop()
        first = None if code is module else code.co_firstlineno
        lines.update(line for _, line in dis.findlinestarts(code)
                     if line and line != first)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    # tracing starts before pytest imports kalpha, so import-time lines count
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = PackageOnly()
    args = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
            f"--rootdir={ROOT}", str(ROOT / "tests"),
            *(f"--deselect={node}" for node in DESELECTED), *argv]
    threading.settrace(tracer.globaltrace)
    try:
        status = tracer.runfunc(pytest.main, args)
    finally:
        threading.settrace(None)
    ran = {(Path(f).resolve(), line) for f, line in tracer.results().counts}
    total = 0
    for module in sorted(PACKAGE.glob("*.py")):
        source = module.read_text().splitlines()
        missed = sorted(line for line in executable_lines(module)
                        if (module, line) not in ran)
        total += len(missed)
        print(f"{module.relative_to(ROOT)}: {len(missed)} lines not run")
        for line in missed:
            print(f"  {line}: {source[line - 1].strip()}")
    print(f"total: {total} lines not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
