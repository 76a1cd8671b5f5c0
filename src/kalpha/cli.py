"""Command-line front end: simulate, diagnose, classify, pair.

Every artifact is versioned (format_version field) and carries a
manifest sufficient to reproduce it; rerunning a command with the same
arguments and tool version reproduces the output byte for byte apart
from the manifest timestamp.  Exit codes: 0 success, 2 argument or
domain error, 3 I/O error, 4 internal-consistency error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import os
import signal
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .diagnostics import (DEFAULT_BURN_IN, build_exceedance_report,
                          growth_scan, moment_scan, pruitt_slope)
from .measure import (ENVELOPE_PARAMS, ENVELOPE_SHORT_NAMES, ConsistencyError,
                      EnvelopeSpec, KAlphaParams, classify_support)
from .numerics import QuadratureError
from .paths import (RNG_NAME, load_event_file, save_event_files,
                    simulate_large_jumps)
from .spaces import pair_white_noise, parse_descriptor, parse_test_function

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

FORMAT_VERSION = 2

# published report shapes: kind -> {field: type}; (type, None) means nullable
SCHEMAS = {
    "exceedance_report": {
        "format_version": int, "kind": str, "envelope": str, "burn_in": float,
        "horizon": float, "per_path": list, "aggregate": dict, "manifest": dict,
    },
    "moment_scan": {
        "format_version": int, "kind": str, "alpha": float, "eta": float,
        "caps": list, "values": list, "growth_ratios": list,
        "divergence_flagged": bool, "status": str, "manifest": dict,
    },
    "pruitt_slope": {
        "format_version": int, "kind": str, "alpha": float, "etas": list,
        "r_grid": list, "rows": list, "tail_increasing": dict,
        "beta_estimate": float, "manifest": dict,
    },
    "growth_scan": {
        "format_version": int, "kind": str, "alpha": float, "eta": float,
        "rows": list, "manifest": dict,
    },
    "support_verdict": {
        "format_version": int, "kind": str, "alpha": float, "in_S_prime": bool,
        "in_K_prime": bool, "in_K_beta": dict, "reasons": dict, "manifest": dict,
    },
    "pairing": {
        "format_version": int, "kind": str, "phi": str, "value_sign": int,
        "value_logmag": (float, None), "crosscheck_rel_err": float,
        "truncation_warning": bool, "manifest": dict,
    },
}


def validate_document(doc: dict) -> None:
    """Check a report against its published schema; raises ValueError."""
    kind = doc.get("kind")
    if kind not in SCHEMAS:
        raise ValueError(f"unknown document kind {kind!r}")
    for name, typ in SCHEMAS[kind].items():
        if name not in doc:
            raise ValueError(f"{kind} document missing field {name!r}")
        val = doc[name]
        nullable = isinstance(typ, tuple)
        typ = typ[0] if nullable else typ
        ok = (val is None and nullable) or (
            isinstance(val, (int, float) if typ is float else typ)
            and (typ is bool or not isinstance(val, bool)))
        if not ok:
            raise ValueError(f"{kind} field {name!r} has wrong type "
                             f"{type(val).__name__}")


def _manifest(command: str, params: dict, seed=None) -> dict:
    return {
        "command": command,
        "params": params,
        "seed": seed,
        "rng_name": RNG_NAME,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("KALPHA_SEED")
    if env is None:
        raise ValueError("no --seed given and KALPHA_SEED is not set")
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"KALPHA_SEED must be an integer, got {env!r}") from None


def _required_fields(text: str, keys: tuple[str, ...], lists=()) -> dict:
    """Fields of an unnamed descriptor such as "etas=0.05,0.1,rs=10,100",
    with every key required."""
    _, fields = parse_descriptor(text, {"": keys}, lists)
    missing = [k for k in keys if k not in fields]
    if missing:
        raise ValueError(f"missing values for {missing} in {text!r}")
    return fields


def parse_envelope(descriptor: str) -> EnvelopeSpec:
    """Build an envelope from text like "exp:c=1.0" or "pow:beta=2", named
    by its kind or by its short name in measure.ENVELOPE_SHORT_NAMES; each
    kind accepts only its own keys, those of measure.ENVELOPE_PARAMS."""
    kinds = {name: kind for kind, short in ENVELOPE_SHORT_NAMES.items()
             for name in (kind, short)}
    name, fields = parse_descriptor(descriptor, {
        name: ENVELOPE_PARAMS[kind] for name, kind in kinds.items()})
    return EnvelopeSpec(kinds[name], **fields)


def _emit(args, kind: str, fields: dict, manifest: dict, plot=None) -> int:
    """Write a report to --json or stdout, then its --plot-data table.

    plot is (header, rows) for the kinds that have a table; asking for
    --plot-data of any other kind is refused before anything is written.
    So is a report holding NaN or an infinity (a ValueError from json),
    which would not be valid JSON.
    """
    plot_out = getattr(args, "plot_data", None)
    if plot_out and plot is None:
        raise ValueError(f"--plot-data has no table for kind {kind!r}")
    doc = {"format_version": FORMAT_VERSION, "kind": kind, **fields,
           "manifest": manifest}
    validate_document(doc)
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if args.json_out:
        Path(args.json_out).write_text(text)
    else:
        sys.stdout.write(text)
    if plot_out:
        header, rows = plot
        with open(plot_out, "w", newline="") as fp:
            w = csv.writer(fp)
            w.writerow(header)
            w.writerows(rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

class _Terminated(BaseException):
    """Raised by SIGTERM while simulate writes, so that its cleanups run."""


@contextlib.contextmanager
def _sigterm_unwinds():
    """Within the block SIGTERM raises _Terminated (a second one waits for
    the cleanups), then ends the process by SIGTERM.  Off the main thread
    SIGTERM acts as before."""
    def handler(signum, frame):
        signal.signal(signum, signal.SIG_IGN)
        raise _Terminated

    try:
        previous = signal.signal(signal.SIGTERM, handler)
    except ValueError:
        yield
        return
    try:
        yield
    except _Terminated:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)
        raise
    finally:
        signal.signal(signal.SIGTERM, previous)


def _cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    params = KAlphaParams(args.alpha)
    if args.paths < 1:
        raise ValueError("--paths must be at least 1")

    manifest_params = {"alpha": args.alpha, "horizon": args.horizon,
                       "paths": args.paths}
    manifest = _manifest("simulate", manifest_params, seed)

    out = Path(args.out)
    if args.paths == 1:
        targets, spawn_keys = [out], [()]
    else:
        targets = [out.with_name(f"{out.stem}-p{i:03d}{out.suffix}")
                   for i in range(args.paths)]
        spawn_keys = [(i,) for i in range(args.paths)]
    # drawn one at a time as the files are written; path i has spawn_key
    # (i,), so it is the same path in an ensemble of any size
    jobs = ((target, simulate_large_jumps(params, args.horizon, seed, key))
            for target, key in zip(targets, spawn_keys))

    with _sigterm_unwinds():
        save_event_files(jobs, manifest)
    print(*targets, sep="\n")
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    # argparse has given exactly one of the four modes
    if args.envelope is not None:
        if not args.infiles:
            raise ValueError("--envelope needs at least one --in path file")
        env = parse_envelope(args.envelope)
        report = build_exceedance_report(map(load_event_file, args.infiles),
                                         env, burn_in=args.burn_in)
        quantiles = report.last_exceedance_quantiles()
        return _emit(args, "exceedance_report", {
            "envelope": env.describe(),
            "burn_in": report.burn_in,
            "horizon": report.horizon,
            "per_path": [
                {"file": str(f), "alpha": p.alpha, "seed": p.seed,
                 "n_events": p.n_events,
                 "intervals": [[s, e] for s, e in p.intervals],
                 "last_exceedance_t": last}
                for f, p, last in zip(args.infiles, report.paths,
                                      report.last_exceedance_times)
            ],
            "aggregate": {
                "n_paths": report.n_paths,
                "exceedance_fraction": report.exceedance_fraction,
                "last_in_final_half_fraction": report.last_in_final_half_fraction,
                "last_exceedance_quantiles":
                    None if quantiles is None
                    else {f"{q:g}": v for q, v in quantiles.items()},
            },
        }, _manifest("diagnose", {"mode": "envelope",
                                  "envelope": env.describe(),
                                  "burn_in": args.burn_in,
                                  "in": list(map(str, args.infiles))}))

    if args.moment_scan is not None:
        if args.alpha is None:
            raise ValueError("--moment-scan needs --alpha")
        fields = _required_fields(args.moment_scan, ("eta", "caps"),
                                  lists=("caps",))
        scan = moment_scan(KAlphaParams(args.alpha), fields["eta"], fields["caps"])
        return _emit(args, "moment_scan", {
            "alpha": args.alpha,
            "eta": scan.eta,
            "caps": list(scan.caps),
            "values": list(scan.values),
            "growth_ratios": list(scan.growth_ratios),
            "divergence_flagged": scan.divergence_flagged,
            "status": scan.status,
        }, _manifest("diagnose", {"mode": "moment-scan", "alpha": args.alpha,
                                  "descriptor": args.moment_scan}),
            plot=(("cap", "moment"), zip(scan.caps, scan.values)))

    if args.pruitt is not None:
        if args.alpha is None:
            raise ValueError("--pruitt needs --alpha")
        fields = _required_fields(args.pruitt, ("etas", "rs"),
                                  lists=("etas", "rs"))
        report = pruitt_slope(KAlphaParams(args.alpha), fields["etas"],
                              fields["rs"])
        return _emit(args, "pruitt_slope", {
            "alpha": args.alpha,
            "etas": list(report.etas),
            "r_grid": list(report.r_grid),
            "rows": [{"eta": eta, "values": list(report.values[eta])}
                     for eta in report.etas],
            "tail_increasing": {f"{eta:g}": report.tail_increasing[eta]
                                for eta in report.etas},
            "beta_estimate": report.beta_estimate,
        }, _manifest("diagnose", {"mode": "pruitt", "alpha": args.alpha,
                                  "descriptor": args.pruitt}),
            plot=(("eta", "r", "value"),
                  [(eta, r, v) for eta in report.etas
                   for r, v in zip(report.r_grid, report.values[eta])]))

    # growth scan over stored paths
    if not args.infiles:
        raise ValueError("--growth needs at least one --in path file")
    eta = _required_fields(args.growth, ("eta",))["eta"]
    first = load_event_file(args.infiles[0])
    alpha = first.params.alpha
    paths = itertools.chain([first], map(load_event_file, args.infiles[1:]))
    del first                       # the scan holds one path at a time
    rows = [(t, lvl.sign, lvl.logmag) for t, lvl in growth_scan(paths, eta)]
    return _emit(args, "growth_scan", {
        "alpha": alpha,
        "eta": eta,
        "rows": [{"t": t, "sign": sign, "log_stat": log_stat if sign else None}
                 for t, sign, log_stat in rows],
    }, _manifest("diagnose", {"mode": "growth", "eta": eta,
                              "in": list(map(str, args.infiles))}),
        plot=(("t", "sign", "log_stat"), rows))


def _cmd_classify(args) -> int:
    params = KAlphaParams(args.alpha)
    betas = _required_fields(f"betas={args.betas}", ("betas",),
                             lists=("betas",))["betas"]
    # the report keys each beta by f"{beta:g}"; a shared key would drop one
    seen = {}
    for b in betas:
        key = f"{b:g}"
        if key in seen:
            raise ValueError(f"betas {seen[key]!r} and {b!r} share the report "
                             f"key {key!r}; give betas that differ in their "
                             f"first six significant digits")
        seen[key] = b
    verdict = classify_support(params, betas)
    return _emit(args, "support_verdict", {
        "alpha": verdict.alpha,
        "in_S_prime": verdict.in_S_prime,
        "in_K_prime": verdict.in_K_prime,
        "in_K_beta": {f"{b:g}": v for b, v in verdict.in_K_beta.items()},
        "reasons": verdict.reasons,
    }, _manifest("classify", {"alpha": args.alpha, "betas": betas}))


def _cmd_pair(args) -> int:
    phi = parse_test_function(args.phi)
    result = pair_white_noise(load_event_file(args.infile), phi)
    return _emit(args, "pairing", {
        "phi": phi.describe(),
        "value_sign": result.value.sign,
        "value_logmag": None if result.value.is_zero else result.value.logmag,
        "crosscheck_rel_err": result.rel_err,
        "truncation_warning": result.truncation_warning,
    }, _manifest("pair", {"phi": args.phi, "in": str(args.infile)}))


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """argparse type of every float option: finite numbers only."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The kalpha parser, built once per process: parsing keeps no state
    in it, and every default it hands out is immutable."""
    parser = argparse.ArgumentParser(
        prog="kalpha",
        description="Simulate heavy-tailed log-Pareto jump paths and verify "
                    "their growth and support behaviour.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a large-jump path as JSONL")
    sim.add_argument("--alpha", type=_finite_float, required=True)
    sim.add_argument("--horizon", type=_finite_float, required=True)
    sim.add_argument("--seed", type=int, default=None,
                     help="defaults to env KALPHA_SEED")
    sim.add_argument("--out", required=True)
    sim.add_argument("--paths", type=int, default=1,
                     help="write this many paths with derived seeds")
    sim.set_defaults(func=_cmd_simulate)

    diag = sub.add_parser("diagnose", help="exceedance, moment, index scans")
    diag.add_argument("--in", dest="infiles", nargs="*", default=())
    mode = diag.add_mutually_exclusive_group(required=True)
    mode.add_argument("--envelope", help='e.g. "exp:c=1.0", "pow:beta=2"')
    mode.add_argument("--moment-scan", help='e.g. "eta=0.25,caps=10,100,1000"')
    mode.add_argument("--pruitt",
                      help='e.g. "etas=0.05,0.1,0.5,rs=10,100,1000"')
    mode.add_argument("--growth", help='e.g. "eta=0.5"')
    diag.add_argument("--burn-in", type=_finite_float, default=DEFAULT_BURN_IN)
    diag.add_argument("--alpha", type=_finite_float, default=None)
    diag.add_argument("--json", dest="json_out", default=None)
    diag.add_argument("--plot-data", default=None,
                      help="write a CSV of (t, statistic) rows")
    diag.set_defaults(func=_cmd_diagnose)

    cls = sub.add_parser("classify", help="support verdict for an index")
    cls.add_argument("--alpha", type=_finite_float, required=True)
    cls.add_argument("--betas", required=True, help="comma list, each > 1")
    cls.add_argument("--json", dest="json_out", default=None)
    cls.set_defaults(func=_cmd_classify)

    pair = sub.add_parser("pair", help="white-noise pairing of path and phi")
    pair.add_argument("--in", dest="infile", required=True)
    pair.add_argument("--phi", required=True,
                      help='e.g. "gaussian:center=0,scale=1"')
    pair.add_argument("--json", dest="json_out", default=None)
    pair.set_defaults(func=_cmd_pair)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConsistencyError, QuadratureError) as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
