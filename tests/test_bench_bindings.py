"""The traced benchmark (perfbench/tracing.py) binds kalpha functions by
name; a rename or deletion must fail here rather than in a traced
benchmark run.  perfbench is read, never changed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from kalpha import diagnostics, paths, spaces
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
