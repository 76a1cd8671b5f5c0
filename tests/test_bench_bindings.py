"""The traced benchmark (perfbench/tracing.py) binds kalpha functions by
name; a rename or deletion must fail here rather than in a traced
benchmark run.  The benchmark's own smoke test (perfbench/smoke.py) runs
here too.  perfbench is read, never changed."""

import contextlib
import importlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kalpha import cli, diagnostics, paths, spaces
from kalpha.measure import EnvelopeSpec, KAlphaParams

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("qual", [*tracing.FUNCTIONS, "measure.KAlphaParams",
                                  "spaces.TestFunction.deriv"])
def test_traced_name_resolves(qual):
    module, *attrs = qual.split(".")
    obj = importlib.import_module(f"{tracing.PACKAGE}.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)


def test_hooks_read_the_call_arguments():
    # the running_sup hook counts events from its first argument, a path;
    # calls go through the module attributes the tracer rebinds
    tracer = tracing.Tracer()
    tracer.install()
    try:
        path = paths.simulate_large_jumps(KAlphaParams(1.5), 20.0, 3)
        diagnostics.envelope_exceedances(path, EnvelopeSpec("exponential", c=1.0))
        diagnostics.growth_scan([path], 0.5)
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    assert totals["paths.running_sup.calls"] == 2
    assert totals["paths.running_sup.events"] == 2 * path.n_events
    assert totals["paths.simulate_large_jumps.events"] == path.n_events


def test_pairing_sums_through_slv_sum():
    # value and crosscheck, plus the horizon boundary sum when phi is alive
    # at the horizon, are each one numerics.slv_sum call
    path = paths.simulate_large_jumps(KAlphaParams(1.5), 20.0, 3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        spaces.pair_white_noise(path, spaces.Bump(5.0, 2.0))
        spaces.pair_white_noise(path, spaces.Gaussian(20.0, 1.0))
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    assert totals["spaces.pair_white_noise.calls"] == 2
    assert totals["numerics.slv_sum.calls"] == 5


@pytest.mark.parametrize("n_paths", [3, 8])
def test_simulate_draws_and_writes_every_path_here(n_paths, tmp_path):
    # simulate draws each path and writes each file in its own process,
    # and draws a path only between files, so no draw is counted in a
    # write (paths of two blocks each)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as listed:
            assert cli.main(["simulate", "--alpha", "1.5", "--horizon", "4000",
                             "--seed", "5", "--paths", str(n_paths),
                             "--out", str(tmp_path / "p.jsonl")]) == 0
    finally:
        tracer.uninstall()
    files = listed.getvalue().split()
    events = [paths.load_event_file(f).n_events for f in files]
    assert all(paths.BLOCK < n <= 2 * paths.BLOCK for n in events)
    totals = tracer.layer_totals()
    assert totals["paths.simulate_large_jumps.calls"] == n_paths
    assert totals["paths.simulate_large_jumps.events"] == sum(events)
    assert totals["paths.write_event_path.calls"] == n_paths
    assert totals["paths.write_event_path.bytes"] == sum(map(os.path.getsize, files))
    name = dict(zip(tracer.ids, (tracer.names[i] for i in tracer.name_of)))
    assert all(name.get(parent) != "paths.write_event_path"
               for sid, parent in zip(tracer.ids, tracer.parents)
               if name[sid] == "paths.simulate_large_jumps")


def test_benchmark_smoke_passes():
    # perfbench/smoke.py runs every workload at tiny sizes, traced and
    # not, with every output check that does not need full sizes; a
    # change that breaks a benchmark output check fails here
    root = TRACING.parents[1]
    done = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=root,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert done.stdout.splitlines()[-1] == "smoke: ok"
