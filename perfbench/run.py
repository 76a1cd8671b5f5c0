"""kalpha benchmark: one workload per call, in its own fresh process.

    python3 perfbench/run.py --workload ensemble --seed 42 --seconds 58 --trace 0

Run from the root of a source checkout (it imports ``src/kalpha``).  It
measures set-up time in fresh interpreters, then starts workload.py in
a fresh Python process that drives ``kalpha.cli.main`` in a closed loop
for about ``--seconds`` seconds and checks every output.  It prints every
metric by name with its unit and, as the last line, one JSON object:
with ``--trace 0`` the end-to-end metrics of BENCHMARK.json, measured
untraced; with ``--trace 1`` its per-layer metrics, from a run that
alternates untraced and traced passes.  Scratch files, results and
span traces go under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_RUNS = 5          # fresh interpreters before and again after the loop
DEADLINE_S = 160.0      # workload deadline; the whole call ends within 180 s
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "import kalpha; kalpha.KAlphaParams(float(sys.argv[2])); "
              "print(time.monotonic())")
SETUP_ALPHA = "1.5"

DIAGNOSE_STAGES = ("diagnose_envelope_s", "diagnose_growth_s", "pruitt_s",
                   "moment_scan_s")


def _percentile_line(values: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples
    beyond it (nearest rank), with the sample count."""
    n = len(values)
    text = f"median of n={n}"
    if n >= 11:
        p = math.floor(100.0 * (1.0 - 10.0 / n))
        ranked = sorted(values)
        value = ranked[max(0, math.ceil(p / 100.0 * n) - 1)]
        text += f", p{p}={value:.6g}"
    return text


def measure_setup(warm_up: bool) -> list[float]:
    """Fresh-interpreter times through ``import kalpha`` and the first
    KAlphaParams; an unreported warm-up compiles the bytecode first."""
    samples = []
    for i in range(SETUP_RUNS + warm_up):
        began = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), SETUP_ALPHA],
            capture_output=True, text=True, timeout=60, check=True)
        if i or not warm_up:
            samples.append(float(done.stdout.split()[-1]) - began)
    return samples


def machine_facts() -> dict:
    import numpy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fp
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "os": f"{platform.system()} {platform.release()}",
            "git_commit": commit}


def run_workload(args, workdir: Path, deadline: float) -> dict:
    """Run workload.py in a fresh process and return its result."""
    (OUT / "traces").mkdir(exist_ok=True)
    result_path = workdir / "result.json"
    scratch = workdir / "files"
    scratch.mkdir()
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", str(SRC), "--workdir", str(scratch),
           "--result", str(result_path),
           "--trace-out", str(OUT / "traces" / f"{args.workload}.jsonl")]
    if args.smoke:
        cmd.append("--smoke")
    child = subprocess.Popen(cmd)
    try:
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if code != 0:
        raise RuntimeError(f"workload process exited with {code}")
    return json.loads(result_path.read_text())


def end_to_end(setup: list[float], res: dict, failed_frac: float) -> dict:
    """Every end-to-end metric that applies to the workload:
    name -> (value, unit, samples)."""
    plain = [i for i in res["passes"] if not i["traced"]]
    out = {"setup_s": (setup, "s")}
    out["total_s"] = ([i["total_s"] for i in plain], "s")
    for stage in plain[0]["stage_s"]:
        out[stage] = ([i["stage_s"][stage] for i in plain], "s")
    out["diagnose_s"] = ([sum(v for k, v in i["stage_s"].items()
                              if k in DIAGNOSE_STAGES) for i in plain], "s")
    if plain[0]["events"]:
        out["events_per_s"] = ([i["events"] / i["total_s"] for i in plain],
                               "events/s")
    out["peak_rss_mb"] = ([res["peak_rss_mb"]], "MB")
    out["failed_frac"] = ([failed_frac], "ratio")
    return {k: (statistics.median(v), unit, v) for k, (v, unit) in out.items()}


def per_layer(res: dict, e2e: dict, declared: dict) -> dict:
    """Per-layer metrics from the traced passes: name -> (value, unit).
    A declared metric of a traced function that the workload never
    called reads 0."""
    layers = dict(res["layers"])
    for name in declared:
        if name not in layers and name.rpartition(".")[0] in res["bindings"]:
            layers[name] = 0
    traced = [i["total_s"] for i in res["passes"] if i["traced"]]
    out = {}
    for name, value in sorted(layers.items()):
        unit = ("s" if name.endswith("_s") or name.endswith(".s") else
                "bytes" if name.endswith(".bytes") else
                "ratio" if name.endswith("_max") else "count")
        out[name] = (value, unit)
    out["trace.overhead_s"] = (statistics.median(traced)
                               - e2e["total_s"][0], "s")
    return out


def command_coverage(layers: dict) -> dict:
    """Share of each command's time spent inside layer spans."""
    out = {}
    for name, (self_s, _) in layers.items():
        cmd = name.removesuffix(".self_s")
        if (name.endswith(".self_s") and cmd.startswith(("cli.", "lib."))
                and cmd != "cli.validate_document"
                and layers[cmd + ".s"][0] > 0):
            out[cmd] = round(1.0 - self_s / layers[cmd + ".s"][0], 4)
    return out


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=58.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and one pass, for the benchmark's own test")
    args = ap.parse_args(argv)

    if not (SRC / "kalpha" / "__init__.py").is_file():
        print(f"no kalpha sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in declared[group]}

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        # set-up samples on both sides of the loop, so they span the run
        setup = measure_setup(warm_up=True)
        res = run_workload(args, workdir, started + DEADLINE_S)
        setup += measure_setup(warm_up=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(i["attempted"] for i in res["passes"])
    failed = sum(i["failed"] for i in res["passes"])
    e2e = end_to_end(setup, res, failed / attempted)

    print(f"# kalpha benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    machine = machine_facts()
    print("# machine " + json.dumps(machine))
    print("# sizes " + json.dumps(res["sizes"]))
    print("# end-to-end (untraced)")
    for name, (value, unit, samples) in e2e.items():
        print(f"{name} = {value:.6g} {unit}  ({_percentile_line(samples)})")
    printed = {k: (v[0], v[1]) for k, v in e2e.items()}
    if args.trace:
        layers = per_layer(res, e2e, wanted)
        print(f"# per-layer, mean per traced pass "
              f"(n={res['traced_passes']})")
        for name, (value, unit) in layers.items():
            print(f"{name} = {value:.6g} {unit}")
        print("# share of each command covered by layer spans "
              + json.dumps(command_coverage(layers)))
        print("# bindings " + json.dumps(res["bindings"]))
        printed = layers
    checks = {}
    for it in res["passes"]:
        for name, (ran, bad) in it["checks"].items():
            tally = checks.setdefault(name, [0, 0])
            tally[0] += ran
            tally[1] += bad
    print("# checks (run, failed) " + json.dumps(checks))
    if args.workload == "longpath":
        drops = [i["laplace_ulp_drops"] for i in res["passes"]]
        print(f"# laplace_exponent ulp-level drops on the plateau per pass: "
              f"{drops[0]} (within quadrature tolerance, not failures)")
    print("# report digests (sha256, timestamp removed) "
          + json.dumps(res["digests"]))

    missing = sorted(name for name, unit in wanted.items()
                     if name not in printed or printed[name][1] != unit)
    if missing:
        print(f"declared metrics not measured with their unit: {missing}",
              file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "machine": machine,
              "sizes": res["sizes"],
              "end_to_end": {k: {"value": v, "unit": u, "samples": s}
                             for k, (v, u, s) in e2e.items()},
              "checks": checks, "digests": res["digests"],
              "attempted": attempted, "failed": failed}
    if args.trace:
        record["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in printed.items()}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
     f"-{stamp}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": printed[name][0], "unit": unit}
                    for name, unit in wanted.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
