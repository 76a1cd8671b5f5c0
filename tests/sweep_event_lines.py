"""Seeded sweep of the event-line kernel against json.dumps, outside Tier-1.

    PYTHONPATH=src python tests/sweep_event_lines.py [--per-family 1000000]

Each family gives at least --per-family floats; they are written as the
t and log1p_mag columns of event lines (one family per column pair,
shifted by one so each line pairs two different values), BLOCK lines at
a time, and every line is compared with json.dumps of its record.
Prints one JSON object: per family, the lines compared, the mismatches
and the share of floats the kernel left to repr.  Exits 1 on any
mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from kalpha.measure import KAlphaParams
from kalpha.numerics import BLOCK
from kalpha.paths import _event_lines, _shortest_digits, simulate_large_jumps

SEED = 20240


def _near(centres: np.ndarray, ulps: int) -> np.ndarray:
    """centres and their neighbours up to ulps floats away."""
    out = [centres]
    up = down = centres
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def families(n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    finite = rng.integers(0, 0x7FF0000000000000, n, dtype=np.int64)
    m = n // 3 + 1          # decimals of up to 12 digits, as floats
    short = rng.integers(1, 10 ** 12, m) / 10.0 ** rng.integers(0, 16, m)
    decades = np.arange(-8, 20)
    paths = [simulate_large_jumps(KAlphaParams(a), h, 42)
             for a, h in ((0.3, 3e3), (1.0, 3e4), (1.5, 1e5), (1.9, 2e5))]
    path_values = np.concatenate([x for p in paths
                                  for x in (p.times, p.log1p_mags)])
    return {
        "uniform": rng.random(n) * 1000.0,
        "log_uniform": 10.0 ** rng.uniform(-5.0, 17.0, n),
        "finite_bits": finite.view(np.float64),
        "dyadic": (rng.integers(1, 2 ** 20, n)
                   * 2.0 ** rng.integers(-40, 40, n).astype(np.float64)),
        "short_decimals_1ulp": _near(short, 1),
        "powers_of_ten_ulps": _near(10.0 ** decades,
                                    n // (2 * len(decades)) + 1),
        "paths_seed_42": np.resize(path_values, n),
    }


def json_lines(times, signs, mags) -> bytes:
    return "".join(json.dumps({"t": t, "sign": s, "log1p_mag": m}) + "\n"
                   for t, s, m in zip(times, signs, mags)).encode()


def sweep(x: np.ndarray, rng: np.random.Generator) -> dict:
    mismatches = 0
    signs = rng.choice(np.array([-1, 1]), len(x))
    mags = np.roll(x, 1)
    for start in range(0, len(x), BLOCK):
        block = (x[start:start + BLOCK], signs[start:start + BLOCK],
                 mags[start:start + BLOCK])
        got = _event_lines(*block).tobytes().splitlines()
        want = json_lines(*(col.tolist() for col in block)).splitlines()
        mismatches += sum(a != b for a, b in zip(got, want))
        mismatches += abs(len(got) - len(want))
    return {"lines": len(x), "mismatches": mismatches,
            "repr_share": float(1.0 - _shortest_digits(x)[3].mean())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--per-family", type=int, default=1_000_000)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(SEED)
    report = {"seed": SEED, "per_family": args.per_family, "families": {}}
    started = time.perf_counter()
    for name, x in families(args.per_family, rng).items():
        report["families"][name] = sweep(x, rng)
    report["seconds"] = round(time.perf_counter() - started, 1)
    print(json.dumps(report, indent=1))
    return 1 if any(f["mismatches"] for f in report["families"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
