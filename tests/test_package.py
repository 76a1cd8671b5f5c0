"""The package's export list names only what it defines, and importing
it loads neither the CLI's parser nor any process-pool module."""

import os
import subprocess
import sys
from pathlib import Path

import kalpha


def test_every_exported_name_resolves():
    missing = [name for name in kalpha.__all__ if not hasattr(kalpha, name)]
    assert missing == []
    assert len(set(kalpha.__all__)) == len(kalpha.__all__)


def test_star_import():
    namespace = {}
    exec("from kalpha import *", namespace)
    assert set(kalpha.__all__) <= set(namespace)


def test_import_loads_no_cli_or_pool_modules():
    # a fresh interpreter, so modules the tests loaded do not count; the
    # parser is loaded by the commands that use it
    src = str(Path(kalpha.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, kalpha; print(*sorted(m for m in ('argparse', "
            "'multiprocessing', 'concurrent.futures', 'mmap') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "\n", "")
