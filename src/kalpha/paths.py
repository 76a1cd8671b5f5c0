"""Sample path synthesis: exact large-jump event lists, the variance-matched
small-jump component on a grid, running suprema, and JSONL persistence.

The large-jump component is compound Poisson with rate trunc_mass; jump
magnitudes are never materialised as native floats because ell = ln(1+|x|)
can reach the thousands.  Everything is driven by numpy's Philox generator
(counter based, 64-bit) keyed through SeedSequence(entropy=seed,
spawn_key=...), so paths are reproducible one at a time or fanned out
across workers.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .measure import KAlphaParams, jump_moment_integral
from .numerics import LN2, SLV_ZERO, SignedLogValue

RNG_NAME = "philox4x64"
FORMAT_VERSION = 1


def derive_rng(seed: int, spawn_key: tuple[int, ...] = ()) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(seed=ss))


@dataclass(frozen=True)
class JumpEvent:
    """One large jump: time, sign, and ell = ln(1 + |jump|) >= ln 2."""

    t: float
    sign: int
    log1p_mag: float

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("jump sign must be -1 or +1")
        if self.log1p_mag < LN2 - 1e-15:
            raise ValueError("large jumps have magnitude > 1, so log1p_mag >= ln 2")

    def value(self) -> SignedLogValue:
        """The signed jump size e^ell - 1 as a log-domain value."""
        ell = self.log1p_mag
        return SignedLogValue.from_log(self.sign, ell + math.log1p(-math.exp(-ell)))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class EventPath:
    """Time-ordered large-jump events of one simulated path.

    The path value at time t is the log-domain sum of all jumps with
    event time <= t; the value at 0 is zero.  Instances are immutable
    and safe to share between threads.
    """

    params: KAlphaParams
    horizon: float
    seed: int
    times: np.ndarray
    signs: np.ndarray
    log1p_mags: np.ndarray
    spawn_key: tuple[int, ...] = ()
    rng_name: str = RNG_NAME

    def __post_init__(self):
        t = _readonly(np.asarray(self.times, dtype=float))
        s = np.asarray(self.signs)
        m = _readonly(np.asarray(self.log1p_mags, dtype=float))
        if not (len(t) == len(s) == len(m)):
            raise ValueError("event arrays must have equal length")
        if not np.all((s == 1) | (s == -1)):
            raise ValueError("event signs must be -1 or +1")
        s = _readonly(s.astype(np.int64))
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(m))):
            raise ValueError("event times and magnitudes must be finite")
        if len(t) and not np.all(np.diff(t) > 0):
            raise ValueError("event times must be strictly increasing")
        if len(t) and (t[0] < 0.0 or t[-1] > self.horizon):
            raise ValueError("event times must lie in [0, horizon]")
        if len(m) and np.min(m) < LN2 - 1e-15:
            raise ValueError("large-jump log1p magnitudes must be >= ln 2")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "signs", s)
        object.__setattr__(self, "log1p_mags", m)

    @property
    def n_events(self) -> int:
        return len(self.times)

    def events(self):
        for t, s, m in zip(self.times, self.signs, self.log1p_mags):
            yield JumpEvent(float(t), int(s), float(m))

    def jump_values(self):
        """Signed jump sizes as log-domain values, in time order."""
        for t, s, m in zip(self.times, self.signs, self.log1p_mags):
            yield SignedLogValue.from_log(int(s), float(m) + math.log1p(-math.exp(-float(m))))


@dataclass(frozen=True)
class GridPath:
    """Small-jump component sampled on a uniform grid (native floats,
    every jump in this component has magnitude at most 1)."""

    params: KAlphaParams
    horizon: float
    seed: int
    eps: float
    grid_step: float
    times: np.ndarray
    values: np.ndarray
    spawn_key: tuple[int, ...] = ()
    rng_name: str = RNG_NAME

    def __post_init__(self):
        t = _readonly(np.asarray(self.times, dtype=float))
        v = _readonly(np.asarray(self.values, dtype=float))
        if len(t) != len(v) or len(t) < 1:
            raise ValueError("grid arrays must be nonempty and of equal length")
        if v[0] != 0.0:
            raise ValueError("grid path must start at zero")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid path values must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


def simulate_large_jumps(params: KAlphaParams, horizon: float, seed: int,
                         spawn_key: tuple[int, ...] = ()) -> EventPath:
    """Compound Poisson large-jump path on [0, horizon].

    Draw order is fixed and part of the reproducibility contract:
    event count (Poisson with mean trunc_mass * horizon), then event
    times (sorted uniforms), then fair signs, then magnitudes via the
    inverse tail transform on independent uniforms in (0, 1].
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rng = derive_rng(seed, spawn_key)
    n = int(rng.poisson(params.trunc_mass * horizon))
    times = np.sort(rng.random(n) * horizon)
    # sorted uniforms tie with probability ~0; nudge upward so the
    # strictly-increasing invariant holds
    for i in range(1, n):
        if times[i] <= times[i - 1]:
            times[i] = np.nextafter(times[i - 1], np.inf)
    signs = rng.integers(0, 2, n) * 2 - 1
    u = 1.0 - rng.random(n)            # uniform on (0, 1]
    mags = LN2 * u ** (-1.0 / params.alpha)
    return EventPath(params=params, horizon=float(horizon), seed=int(seed),
                     times=times, signs=signs, log1p_mags=mags,
                     spawn_key=tuple(spawn_key))


def band_rate(params: KAlphaParams, eps: float) -> float:
    """Poisson rate of the exactly-simulated jumps with magnitude in (eps, 1]."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    a = params.alpha
    return (2.0 / a) * (math.log1p(eps) ** (-a) - LN2 ** (-a))


def band_variance(params: KAlphaParams, eps: float) -> float:
    """Variance rate of the Brownian surrogate for jumps with |x| <= eps."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    return 2.0 * jump_moment_integral(2, 0.0, math.log1p(eps), params.alpha,
                                      tol=1e-13)


def simulate_small_jumps(params: KAlphaParams, horizon: float, seed: int,
                         eps: float = 1e-3, grid_step: float | None = None,
                         spawn_key: tuple[int, ...] = ()) -> GridPath:
    """Small-jump component on a uniform grid.

    Jumps with magnitude in (eps, 1] are simulated exactly as compound
    Poisson (no drift compensation is needed: the measure is symmetric,
    so the compensator vanishes).  The remainder below eps is replaced
    by a Brownian surrogate whose variance rate matches the replaced
    jumps exactly; its fidelity beyond second moments is not claimed.
    Draw order: band event count, band times, band signs, band
    magnitudes, then the grid of standard normals.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if grid_step is None:
        grid_step = horizon / 1024.0
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    n_cells = max(1, round(horizon / grid_step))
    times = np.linspace(0.0, horizon, n_cells + 1)

    rng = derive_rng(seed, spawn_key)
    a = params.alpha
    rate = band_rate(params, eps)
    n_band = int(rng.poisson(rate * horizon))
    band_t = np.sort(rng.random(n_band) * horizon)
    band_sign = rng.integers(0, 2, n_band) * 2 - 1
    v = rng.random(n_band)
    lo_a = math.log1p(eps) ** (-a)
    hi_a = LN2 ** (-a)
    ells = (lo_a + v * (hi_a - lo_a)) ** (-1.0 / a)
    band_x = band_sign * np.expm1(ells)

    sigma2 = band_variance(params, eps)
    dt = np.diff(times)
    increments = rng.standard_normal(n_cells) * np.sqrt(sigma2 * dt)
    brownian = np.concatenate(([0.0], np.cumsum(increments)))

    # add each band jump to every grid point at or after its event time
    jump_cum = np.concatenate(([0.0], np.cumsum(band_x)))
    idx = np.searchsorted(band_t, times, side="right")
    values = brownian + jump_cum[idx]
    values[0] = 0.0

    return GridPath(params=params, horizon=float(horizon), seed=int(seed),
                    eps=float(eps), grid_step=float(grid_step),
                    times=times, values=values, spawn_key=tuple(spawn_key))


def running_sup(path: EventPath) -> list[tuple[float, SignedLogValue]]:
    """Running maximum of |path value|, which changes only at event times.

    Returns (time, level) pairs starting with (0, zero); the level at
    any t is the entry with the largest time <= t.
    """
    out: list[tuple[float, SignedLogValue]] = [(0.0, SLV_ZERO)]
    total = SLV_ZERO
    best = SLV_ZERO
    for t, jump in zip(path.times, path.jump_values()):
        total = total + jump
        mag = abs(total)
        if mag.logmag > best.logmag:
            best = mag
        out.append((float(t), best))
    return out


def compose(large: EventPath, small: GridPath) -> list[tuple[float, SignedLogValue]]:
    """Full path (small + large) sampled on the small path's grid."""
    if large.params.alpha != small.params.alpha:
        raise ValueError("components were simulated with different alpha")
    if large.horizon != small.horizon:
        raise ValueError("components were simulated with different horizons")
    out = []
    prefix = SLV_ZERO
    j = 0
    jumps = list(large.jump_values())
    for t, v in zip(small.times, small.values):
        while j < large.n_events and large.times[j] <= t:
            prefix = prefix + jumps[j]
            j += 1
        out.append((float(t), prefix + SignedLogValue.encode(float(v))))
    return out


def simulate_many(params: KAlphaParams, horizon: float, seed: int,
                  n_paths: int, workers: int = 1) -> list[EventPath]:
    """n_paths independent large-jump paths with derived seeds.

    Path i uses spawn_key (i,), so the ensemble is identical whatever
    the worker count or completion order.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    if workers <= 1:
        return [simulate_large_jumps(params, horizon, seed, spawn_key=(i,))
                for i in range(n_paths)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(simulate_large_jumps, params, horizon, seed,
                               (i,)) for i in range(n_paths)]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# JSONL persistence
# ---------------------------------------------------------------------------

def _header(path: EventPath | GridPath, component: str, *extras) -> str:
    """The metadata line that opens every path file."""
    meta = {
        "format_version": FORMAT_VERSION,
        "alpha": path.params.alpha,
        "horizon": path.horizon,
        "seed": path.seed,
        "rng_name": path.rng_name,
        "component": component,
    }
    if path.spawn_key:
        meta["spawn_key"] = list(path.spawn_key)
    for extra in extras:
        meta.update(extra or {})
    return json.dumps(meta) + "\n"


def write_event_path(path: EventPath, fp, extra_meta: dict | None = None) -> None:
    """Write a path as JSONL: one metadata record, then one record per event.

    Floats go through repr, which round-trips bit for bit.
    """
    fp.write(_header(path, "large", extra_meta))
    for t, s, m in zip(path.times, path.signs, path.log1p_mags):
        fp.write(json.dumps({"t": float(t), "sign": int(s),
                             "log1p_mag": float(m)}) + "\n")


def write_grid_path(path: GridPath, fp, extra_meta: dict | None = None) -> None:
    """Write a small-jump grid path as JSONL: one metadata record, then
    one {"t", "value"} record per grid point."""
    fp.write(_header(path, "small",
                     {"eps": path.eps, "grid_step": path.grid_step}, extra_meta))
    for t, v in zip(path.times, path.values):
        fp.write(json.dumps({"t": float(t), "value": float(v)}) + "\n")


def read_event_path(fp) -> EventPath:
    header = fp.readline()
    if not header:
        raise ValueError("empty path file")
    meta = json.loads(header)
    if not isinstance(meta, dict) or meta.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported path header {header.strip()[:80]!r}")
    if meta.get("component") != "large":
        raise ValueError("expected a large-jump component file")
    missing = [k for k in ("alpha", "horizon", "seed") if k not in meta]
    if missing:
        raise ValueError(f"path header lacks {', '.join(missing)}")
    times, signs, mags = [], [], []
    try:
        for lineno, line in enumerate(fp, 2):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            times.append(rec["t"])
            signs.append(rec["sign"])
            mags.append(rec["log1p_mag"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"line {lineno}: an event record needs t, sign and "
                         f"log1p_mag ({type(exc).__name__}: {exc})") from None
    return EventPath(params=KAlphaParams(meta["alpha"]),
                     horizon=meta["horizon"], seed=meta["seed"],
                     times=np.array(times), signs=np.array(signs),
                     log1p_mags=np.array(mags),
                     spawn_key=tuple(meta.get("spawn_key", ())),
                     rng_name=meta.get("rng_name", RNG_NAME))
