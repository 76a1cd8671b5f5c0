"""Sample path synthesis: exact large-jump event lists, running suprema,
and JSONL persistence with a binary sidecar.

Only the jumps with |x| > 1 are simulated.  The rest of the process has
every exponential moment, so it lies in S' (Dalang & Humeau, Ann.
Probab. 45, 2017) and cannot change any support verdict.

The large-jump component is compound Poisson with rate trunc_mass; jump
magnitudes are never materialised as native floats because ell = ln(1+|x|)
can reach the thousands.  Everything is driven by numpy's Philox generator
(counter based, 64-bit) keyed through SeedSequence(entropy=seed,
spawn_key=...), so paths are reproducible one at a time or as an
ensemble.

JSONL is the one path format users read and write.  save_event_file
also writes <file>.events beside it: the SHA-256 of the JSONL bytes as
written, then the (3, n) float64 array of times, signs and log1p
magnitudes in .npy form.  load_event_file takes the arrays from the
sidecar only when the digest matches the JSONL, the payload is that
array (no pickle) and it passes every EventPath check; otherwise it
parses the JSONL.  A read never writes a sidecar.  save_event_files
formats the event lines of many files on a pool of forked processes;
the bytes are the same for any worker count.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .measure import KAlphaParams, inverse_tail
from .numerics import LN2

RNG_NAME = "philox4x64"
FORMAT_VERSION = 1
BLOCK = 8192                      # event lines written or read at a time
EVENT_FIELDS = ("t", "sign", "log1p_mag")
SIDECAR_SUFFIX = ".events"


def derive_rng(seed: int, spawn_key: tuple[int, ...] = ()) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(seed=ss))


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
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        if self.horizon == math.inf:
            raise ValueError("horizon must be finite, got inf")
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

    @property
    def log_jumps(self) -> np.ndarray:
        """ln |jump| = ln(e^m - 1) for each event's log1p magnitude m."""
        m = self.log1p_mags
        return m + np.log1p(-np.exp(-m))


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
    if np.any(np.diff(times) <= 0):
        for i in range(1, n):
            if times[i] <= times[i - 1]:
                times[i] = np.nextafter(times[i - 1], np.inf)
    signs = rng.integers(0, 2, n) * 2 - 1
    u = 1.0 - rng.random(n)            # uniform on (0, 1]
    with np.errstate(over="ignore"):
        mags = inverse_tail(u, params)
    if np.isinf(mags).any():
        raise ValueError(
            f"a sampled log magnitude ln(1+|x|) exceeds the float range "
            f"at alpha={params.alpha!r}; a smaller alpha or a longer "
            f"horizon makes such draws likelier")
    return EventPath(params=params, horizon=float(horizon), seed=int(seed),
                     times=times, signs=signs, log1p_mags=mags,
                     spawn_key=tuple(spawn_key))


def _log_prefix_sums(lj: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """ln |K_i| for K_0 = 0 and K_i = sum_{j<=i} s_j e^{lj_j}, i = 1..n.

    Terms are scaled by the running maximum of lj, so they stay floats
    of magnitude at most 1.  The events split at each new record of that
    maximum; a segment is one cumsum, whose first addend is the previous
    segment's total rescaled to the new record (the online-normaliser
    rescaling of Milakov & Gimelshein, arXiv:1805.02867).  The loop runs
    once per record, about ln n times for i.i.d. sizes.  A prefix that
    cancels exactly has ln |K| = -inf; a term more than e^745 below the
    current record underflows to zero.
    """
    ref = np.maximum.accumulate(lj)
    scaled = signs * np.exp(lj - ref)
    starts = np.flatnonzero(ref[1:] > ref[:-1]) + 1
    for a, b in zip([0, *starts], [*starts, len(lj)]):
        if a:
            scaled[a] += scaled[a - 1] * math.exp(ref[a - 1] - ref[a])
        np.cumsum(scaled[a:b], out=scaled[a:b])
    with np.errstate(divide="ignore"):
        return np.append(-math.inf, ref + np.log(np.abs(scaled)))


def running_sup(path: EventPath) -> tuple[np.ndarray, np.ndarray]:
    """Running maximum of |path value|, which changes only at event times.

    Returns (times, log_levels): times[0] = 0 with log level -inf (the
    path starts at zero), then one entry per event; the sup at any t is
    e^log_levels[i] for the largest times[i] <= t.
    """
    logmag = _log_prefix_sums(path.log_jumps, path.signs)
    return np.append(0.0, path.times), np.maximum.accumulate(logmag)


def simulate_many(params: KAlphaParams, horizon: float, seed: int,
                  n_paths: int) -> list[EventPath]:
    """n_paths independent large-jump paths with derived seeds.

    Path i uses spawn_key (i,), so each path is the same whether it is
    drawn alone or as part of any ensemble.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    return [simulate_large_jumps(params, horizon, seed, spawn_key=(i,))
            for i in range(n_paths)]


# ---------------------------------------------------------------------------
# JSONL persistence
# ---------------------------------------------------------------------------

def _event_lines(times: np.ndarray, signs: np.ndarray,
                 mags: np.ndarray) -> str:
    """The event lines of one block, each exactly
    {"t": T, "sign": S, "log1p_mag": M} (json.dumps's shape).

    Floats go through repr, as in json.dumps, which round-trips bit for bit.
    """
    return "".join(f'{{"t": {t!r}, "sign": {s!r}, "log1p_mag": {m!r}}}\n'
                   for t, s, m in zip(times.tolist(), signs.tolist(),
                                      mags.tolist()))


def _event_blocks(path: EventPath) -> list[tuple[np.ndarray, ...]]:
    """(times, signs, log1p_mags) of each run of BLOCK events, in order."""
    return [(path.times[b:b + BLOCK], path.signs[b:b + BLOCK],
             path.log1p_mags[b:b + BLOCK])
            for b in range(0, path.n_events, BLOCK)]


def write_event_path(path: EventPath, fp, extra_meta: dict | None = None,
                     texts=None) -> None:
    """Write a path as JSONL: one metadata record, then its event lines.

    texts are the event lines as strings, one per block of BLOCK events
    (_event_lines of each block); by default they are formatted here.
    """
    meta = {
        "format_version": FORMAT_VERSION,
        "alpha": path.params.alpha,
        "horizon": path.horizon,
        "seed": path.seed,
        "rng_name": path.rng_name,
        "component": "large",
    }
    if path.spawn_key:
        meta["spawn_key"] = list(path.spawn_key)
    meta.update(extra_meta or {})
    fp.write(json.dumps(meta) + "\n")
    if texts is None:
        texts = itertools.starmap(_event_lines, _event_blocks(path))
    for text in texts:
        fp.write(text)


# The writer's event line is {"t": T, "sign": S, "log1p_mag": M}\n.  With
# every [0-9.eE+-] deleted it reads _SKELETON; _KEYS are its exact key
# literals.  _TO_LIST then turns a checked block, once its log1p_mag key
# (which holds a 1) is replaced by a comma, into the body of a JSON list.
_SKELETON = '{"t": , "sign": , "logp_mag": }\n'
_NUMBER_CHARS = str.maketrans("", "", "0123456789.eE+-")
_KEYS = ('{"t": ', ', "sign": ', ', "log1p_mag": ')
_TO_LIST = str.maketrans({c: None for c in '{"t:sign}'} | {"\n": ","})


def _parse_block(lines: list[str]) -> tuple[np.ndarray, ...] | None:
    """(times, signs, log1p_mags) as float arrays for a block of event lines
    that all have the writer's exact record shape, else None.

    One json.loads parses every number in the block, so the number
    grammar and the int/float types are exactly JSON's; anything it
    refuses, or an integer too large for a float, also gives None.
    """
    text = "".join(lines)
    n = len(lines)
    if (text.translate(_NUMBER_CHARS) != _SKELETON * n
            or any(text.count(key) != n for key in _KEYS)):
        return None
    body = text.replace(_KEYS[2], ",").translate(_TO_LIST)
    try:
        values = json.loads(f"[{body[:-1]}]")
        return tuple(np.array(values[i::3], dtype=float) for i in range(3))
    except (ValueError, OverflowError):
        return None


def _json_line(line: str, lineno: int):
    """json.loads for one line of a path file; errors name the line."""
    try:
        return json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"line {lineno}: invalid JSON ({exc})") from None


def _parse_lines(lines: list[str], first_lineno: int) -> tuple[np.ndarray, ...]:
    """(times, signs, log1p_mags) as float arrays, one record at a time.

    Accepts any JSON object per line that has the three fields as
    numbers (ints or floats, not bools), in any key order, spacing or
    with extra keys; blank lines are skipped.  Errors name the line.
    """
    rows = []
    for lineno, line in enumerate(lines, first_lineno):
        line = line.strip()
        if not line:
            continue
        rec = _json_line(line, lineno)
        try:
            values = [rec[key] for key in EVENT_FIELDS]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"line {lineno}: an event record needs t, sign and "
                             f"log1p_mag ({type(exc).__name__}: {exc})") from None
        row = []
        for key, v in zip(EVENT_FIELDS, values):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"line {lineno}: {key} must be a number, "
                                 f"got {v!r:.40}")
            try:
                row.append(float(v))
            except OverflowError:
                raise ValueError(f"line {lineno}: {key} is too large for a "
                                 f"float") from None
        rows.append(row)
    return tuple(np.array(rows, dtype=float).reshape(-1, 3).T)


def _read_header(fp) -> dict:
    """The EventPath fields that line 1 of a path file gives, as keyword
    arguments; errors say what is wrong."""
    header = fp.readline()
    if not header:
        raise ValueError("empty path file")
    meta = _json_line(header, 1)
    if not isinstance(meta, dict) or meta.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported path header {header.strip()[:80]!r}")
    if meta.get("component") != "large":
        raise ValueError("expected a large-jump component file")
    missing = [k for k in ("alpha", "horizon", "seed") if k not in meta]
    if missing:
        raise ValueError(f"path header lacks {', '.join(missing)}")
    for key in ("alpha", "horizon"):
        v = meta[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"path header {key} must be a finite number, got {v!r}")
    if isinstance(meta["seed"], bool) or not isinstance(meta["seed"], int):
        raise ValueError(f"path header seed must be an integer, got {meta['seed']!r}")
    spawn_key = meta.get("spawn_key", [])
    if not (isinstance(spawn_key, list)
            and all(type(k) is int and k >= 0 for k in spawn_key)):
        raise ValueError("path header spawn_key must be a list of non-negative "
                         f"integers, got {spawn_key!r:.40}")
    rng_name = meta.get("rng_name", RNG_NAME)
    if not isinstance(rng_name, str):
        raise ValueError(f"path header rng_name must be a string, got {rng_name!r:.40}")
    return {"params": KAlphaParams(meta["alpha"]), "horizon": meta["horizon"],
            "seed": meta["seed"], "spawn_key": tuple(spawn_key),
            "rng_name": rng_name}


def read_event_path(fp) -> EventPath:
    """Read a path file written by write_event_path.

    Event lines are read BLOCK at a time.  A block in the writer's exact
    record shape is parsed in one piece; any other block goes through
    the per-line validator, so every JSONL shape with numeric t, sign and
    log1p_mag fields is accepted.
    """
    header = _read_header(fp)
    blocks = [(np.empty(0),) * 3]
    for first_lineno in itertools.count(2, BLOCK):
        lines = list(itertools.islice(fp, BLOCK))
        if not lines:
            break
        blocks.append(_parse_block(lines) or _parse_lines(lines, first_lineno))
    times, signs, mags = (np.concatenate(col) for col in zip(*blocks))
    return EventPath(**header, times=times, signs=signs, log1p_mags=mags)


# ---------------------------------------------------------------------------
# path files: JSONL plus a binary sidecar bound to its bytes
# ---------------------------------------------------------------------------

def _file_digest(name) -> bytes:
    with open(name, "rb") as fp:
        return hashlib.file_digest(fp, "sha256").digest()


class _DigestingWriter:
    """Takes text writes for a binary file and keeps the SHA-256 of the
    bytes written."""

    def __init__(self, raw):
        self.raw = raw
        self.sha256 = hashlib.sha256()

    def write(self, text: str) -> int:
        data = text.encode()
        self.sha256.update(data)
        return self.raw.write(data)

    def tell(self) -> int:
        """Bytes written so far, as a binary file's tell gives them."""
        return self.raw.tell()


def save_event_file(target, path: EventPath, meta: dict | None = None,
                    texts=None) -> None:
    """Write path to target as JSONL (write_event_path with meta as extra
    header fields and the given event texts), then its sidecar
    target + SIDECAR_SUFFIX, bound to the bytes as written."""
    with open(target, "wb") as raw:
        fp = _DigestingWriter(raw)
        write_event_path(path, fp, extra_meta=meta, texts=texts)
    events = np.stack((path.times, path.signs, path.log1p_mags), dtype=float)
    with open(f"{target}{SIDECAR_SUFFIX}", "wb") as raw:
        raw.write(fp.sha256.digest())
        np.save(raw, events, allow_pickle=False)


# bytes in the longest event line: two 24-character float reprs, sign -1
_LINE_MAX = len('{"t": , "sign": -1, "log1p_mag": }\n') + 2 * 24
_inherited = ()       # in a formatter process: (blocks, shared, slot size)


def _inherit(*state) -> None:
    global _inherited
    _inherited = state


def _format_into(i: int, k: int) -> int:
    """Write the encoded event lines of inherited block i into slot k of
    the shared buffer; returns their length in bytes."""
    blocks, shared, slot = _inherited
    data = _event_lines(*blocks[i]).encode()
    memoryview(shared)[k * slot:(k + 1) * slot][:len(data)] = data
    return len(data)


def _formatted(blocks: list[tuple[np.ndarray, ...]], workers: int):
    """_event_lines of each block, in order.

    With two or more workers (at most one per block) the blocks are
    formatted by a pool of forked processes.  They inherit the blocks
    and write each text into one of 2 * workers + 1 slots of a shared
    buffer, so no block or text is pickled, at most that many blocks are
    in flight, and the texts never pass through the pool's threads,
    which would keep the memory they received them in.  With one worker,
    or where fork is unavailable, the blocks are formatted here.
    """
    workers = min(workers, len(blocks))
    fork = None
    if workers > 1:
        import multiprocessing  # imported where used, not with the package
        if "fork" in multiprocessing.get_all_start_methods():
            fork = multiprocessing.get_context("fork")
    if fork is None:
        yield from itertools.starmap(_event_lines, blocks)
        return
    import mmap
    from concurrent.futures import ProcessPoolExecutor
    slots = 2 * workers + 1
    slot = _LINE_MAX * max(len(times) for times, _, _ in blocks)

    with (mmap.mmap(-1, slots * slot) as shared,
          ProcessPoolExecutor(workers, mp_context=fork, initializer=_inherit,
                              initargs=(blocks, shared, slot)) as pool):
        def text(k, future):
            return shared[k * slot:k * slot + future.result()].decode()

        ahead = collections.deque()
        for i in range(len(blocks)):
            if len(ahead) == slots:     # block i reuses the oldest's slot
                yield text(*ahead.popleft())
            ahead.append((i % slots, pool.submit(_format_into, i, i % slots)))
        while ahead:
            yield text(*ahead.popleft())


def save_event_files(jobs, meta: dict | None = None, workers: int = 1):
    """save_event_file(target, path, meta) for each (target, path) of
    jobs, in order, yielding each target once its files are written.

    The event blocks of all the paths are formatted as one stream, in
    file order, on min(workers, number of blocks) processes; the bytes
    are the same for any worker count.  The processes are forked, which
    is safe only while this process runs no other thread: callers that
    run threads pass workers=1.  A formatter process that dies raises
    concurrent.futures.process.BrokenProcessPool; the file being written
    then has no sidecar.
    """
    jobs = list(jobs)
    blocks = [_event_blocks(path) for _, path in jobs]
    stream = _formatted([b for own in blocks for b in own], workers)
    with contextlib.closing(stream) as texts:
        for (target, path), own in zip(jobs, blocks):
            save_event_file(target, path, meta,
                            itertools.islice(texts, len(own)))
            yield target


def _sidecar_events(name, digest: bytes) -> np.ndarray | None:
    """The (3, n) float64 event array in name's sidecar, or None when
    there is no sidecar, it holds another digest, or its payload is not
    such an array in .npy form (pickled objects are never loaded)."""
    try:
        with open(f"{name}{SIDECAR_SUFFIX}", "rb") as fp:
            if fp.read(len(digest)) != digest:
                return None
            events = np.lib.format.read_array(fp, allow_pickle=False)
    except (OSError, ValueError, MemoryError):
        # MemoryError: a forged .npy header can claim more elements than fit
        return None
    if events.dtype != np.float64 or events.ndim != 2 or events.shape[0] != 3:
        return None
    return events


def load_event_file(name) -> EventPath:
    """Read the path file name, from its sidecar when that is bound to
    the file's bytes, else with read_event_path.

    The header is always read from the JSONL and checked as
    read_event_path checks it.  Arrays from a sidecar pass every
    EventPath check; if they fail one, the JSONL is parsed instead.
    """
    events = _sidecar_events(name, _file_digest(name))
    with open(name) as fp:
        if events is not None:
            header = _read_header(fp)
            # one array per row, so a path does not keep the float signs
            times, signs, mags = map(np.array, events)
            try:
                return EventPath(**header, times=times, signs=signs,
                                 log1p_mags=mags)
            except ValueError:
                fp.seek(0)
        return read_event_path(fp)
