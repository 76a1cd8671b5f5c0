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
ensemble.  A path is drawn in place into the three arrays it returns,
with one block of BLOCK events as scratch, so the length of path a
machine can hold is set by those arrays alone.  Its running sup is
returned as its steps, the events at which |K| sets a record, found in
one pass over the path a block at a time.

JSONL is the one path format users read and write.  save_event_files
writes each JSONL with <file>.events beside it: the SHA-256 of the JSONL
bytes as written, then the (3, n) float64 array of times, signs and
log1p magnitudes in .npy form (version 1.0 header); a call that fails
changes no file.  It draws its paths lazily from any iterable and holds
a bounded number of them, so an ensemble of any size is written in
fixed memory.
load_event_file takes the arrays from the sidecar only when the digest
matches the JSONL, the payload is that array (no pickle) and it passes
every EventPath check; otherwise it parses the JSONL.  It reads each row
into its own array, so a load holds little more than the path it
returns.  A read never writes a sidecar.
"""

from __future__ import annotations

import collections
import contextlib
import errno
import hashlib
import io
import itertools
import json
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from .measure import KAlphaParams, inverse_tail
from .numerics import BLOCK, LN2

RNG_NAME = "philox4x64"
FORMAT_VERSION = 1
EVENT_FIELDS = ("t", "sign", "log1p_mag")
SIDECAR_SUFFIX = ".events"


# numpy's largest Poisson mean: int64's max less ten of its square roots
_POISSON_MEAN_MAX = (np.iinfo(np.int64).max
                     - 10.0 * math.sqrt(np.iinfo(np.int64).max))


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
        # no float temporaries of the path's length: int64 signs are kept
        # as given, and the order check compares rather than subtracts
        t = _readonly(np.asarray(self.times, dtype=float))
        s = np.asarray(self.signs)
        m = _readonly(np.asarray(self.log1p_mags, dtype=float))
        if not (len(t) == len(s) == len(m)):
            raise ValueError("event arrays must have equal length")
        if not np.all((s == 1) | (s == -1)):
            raise ValueError("event signs must be -1 or +1")
        s = _readonly(s.astype(np.int64, copy=False))
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(m))):
            raise ValueError("event times and magnitudes must be finite")
        if not np.all(t[1:] > t[:-1]):
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
        return _log_jumps(self.log1p_mags)


def _log_jumps(m: np.ndarray) -> np.ndarray:
    """ln(e^m - 1) elementwise, so a block of m gives that block of
    EventPath.log_jumps bit for bit."""
    return m + np.log1p(-np.exp(-m))


def simulate_large_jumps(params: KAlphaParams, horizon: float, seed: int,
                         spawn_key: tuple[int, ...] = ()) -> EventPath:
    """Compound Poisson large-jump path on [0, horizon].

    Draw order is fixed and part of the reproducibility contract:
    event count (Poisson with mean trunc_mass * horizon), then event
    times (sorted uniforms), then fair signs, then magnitudes via the
    inverse tail transform on independent uniforms in (0, 1].  Each
    array is drawn and transformed in place, BLOCK events at a time
    where a transform would need a temporary, so the call holds the
    three returned arrays and one block of scratch.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    expected = params.trunc_mass * horizon
    if not expected <= _POISSON_MEAN_MAX:
        raise ValueError(
            f"the expected event count trunc_mass * horizon = {expected!r} "
            f"at alpha={params.alpha!r} is beyond {_POISSON_MEAN_MAX:.4g}, "
            f"the most a Poisson count can be drawn for")
    rng = derive_rng(seed, spawn_key)
    n = int(rng.poisson(expected))
    times = rng.random(n)
    times *= horizon
    times.sort()
    # sorted uniforms tie with probability ~0; nudge upward so the
    # strictly-increasing invariant holds
    if not np.all(times[1:] > times[:-1]):
        for i in range(1, n):
            if times[i] <= times[i - 1]:
                times[i] = np.nextafter(times[i - 1], np.inf)
    signs = rng.integers(0, 2, n)
    signs *= 2
    signs -= 1
    mags = rng.random(n)
    np.subtract(1.0, mags, out=mags)    # uniform on (0, 1]
    for start in range(0, n, BLOCK):
        block = mags[start:start + BLOCK]
        with np.errstate(over="ignore"):
            block[:] = inverse_tail(block, params)
        if np.isinf(block).any():
            raise ValueError(
                f"a sampled log magnitude ln(1+|x|) exceeds the float range "
                f"at alpha={params.alpha!r}; a smaller alpha or a longer "
                f"horizon makes such draws likelier")
    return EventPath(params=params, horizon=float(horizon), seed=int(seed),
                     times=times, signs=signs, log1p_mags=mags,
                     spawn_key=tuple(spawn_key))


def running_sup(path: EventPath) -> tuple[np.ndarray, np.ndarray]:
    """The steps of the running maximum of |path value|, which rises only
    at event times.

    Returns (times, log_levels): first (0, -inf), as the path starts at
    zero, then the time and ln |K| of each event at which |K| exceeds
    every earlier value, K_i = sum_{j<=i} s_j e^{lj_j} being the path
    value after event i.  The sup at any t is e^log_levels[i] for the
    largest times[i] <= t, each step lasting until the next one.

    Terms are scaled by the running maximum of lj, so they stay floats
    of magnitude at most 1.  The events split at each new record of that
    maximum; a segment is one cumsum, whose first addend is the previous
    segment's total rescaled to the new record (the online-normaliser
    rescaling of Milakov & Gimelshein, arXiv:1805.02867).  The events
    are taken BLOCK at a time, and a block's first addend is the last
    block's total rescaled the same way, from its last record (by
    e^0 = 1 when the block does not open with a new one).  So only the
    record, the total and the level are carried, the loop runs once per
    record and per block, the call holds its steps and one block of
    scratch, and every step is the same bit for bit for any BLOCK.  A
    prefix that cancels exactly has ln |K| = -inf; a term more than
    e^745 below the current record underflows to zero.
    """
    mags, signs = path.log1p_mags, path.signs
    times, levels = [np.zeros(1)], [np.full(1, -math.inf)]
    last_ref, total, level = -math.inf, 0.0, -math.inf
    for start in range(0, path.n_events, BLOCK):
        lj = _log_jumps(mags[start:start + BLOCK])
        ref = np.maximum.accumulate(lj)
        np.maximum(ref, last_ref, out=ref)
        scaled = signs[start:start + BLOCK] * np.exp(lj - ref)
        if start:
            scaled[0] += total * math.exp(last_ref - ref[0])
        starts = np.flatnonzero(ref[1:] > ref[:-1]) + 1
        for a, b in zip([0, *starts], [*starts, len(lj)]):
            if a:
                scaled[a] += scaled[a - 1] * math.exp(ref[a - 1] - ref[a])
            np.cumsum(scaled[a:b], out=scaled[a:b])
        last_ref, total = float(ref[-1]), float(scaled[-1])
        with np.errstate(divide="ignore"):
            lk = ref + np.log(np.abs(scaled))
        best = np.maximum.accumulate(np.append(level, lk))
        rises = np.flatnonzero(best[1:] > best[:-1])
        times.append(path.times[start + rises])
        levels.append(lk[rises])
        level = float(best[-1])
    return np.concatenate(times), np.concatenate(levels)


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


# bytes in the longest event line: two 24-character float reprs, sign -1
_LINE_MAX = len('{"t": , "sign": -1, "log1p_mag": }\n') + 2 * 24
_SLOT = _LINE_MAX * BLOCK       # holds a block's rows (24 bytes an event) or text
_inherited = None               # in a formatter process: the shared buffer


def _inherit(shared) -> None:
    global _inherited
    _inherited = shared


def _format_into(k: int, m: int) -> int:
    """Format the m-event block whose rows (times, int64 signs, log1p
    mags) are in slot k of the shared buffer, and write its encoded
    event lines over them; returns their length in bytes."""
    shared, at = _inherited, k * _SLOT
    rows = (np.frombuffer(shared, dtype, m, at + 8 * m * r)
            for r, dtype in enumerate((np.float64, np.int64, np.float64)))
    data = _event_lines(*rows).encode()
    shared[at:at + len(data)] = data
    return len(data)


def _formatted(jobs, workers: int):
    """(target, path, texts) for each (target, path) of jobs, where texts
    yields the _event_lines text of each of the path's blocks, in order,
    and is taken whole before the next file is asked for; texts is None
    where write_event_path is left to format them.

    jobs are drawn only between files, so a path is never drawn while
    another one's texts are being taken.  With two or more workers the
    blocks are formatted by a pool of that many forked processes, started
    before the first path is drawn.  Each block's rows go into one of
    2 * workers + 1 slots of a shared buffer, and the process formatting
    it writes the text over them, so no path, block or text is inherited
    or pickled and none passes through the pool's threads.  At most that
    many blocks are in flight, and at most that many paths are held, the
    one whose texts are being taken included.  With one worker, or where
    fork is unavailable, every texts is None.
    """
    fork = None
    if workers > 1:
        import multiprocessing  # imported where used, not with the package
        if "fork" in multiprocessing.get_all_start_methods():
            fork = multiprocessing.get_context("fork")
    if fork is None:
        for target, path in jobs:
            yield target, path, None
        return
    import mmap
    from concurrent.futures import ProcessPoolExecutor
    slots = 2 * workers + 1
    with (mmap.mmap(-1, slots * _SLOT) as shared,
          ProcessPoolExecutor(workers, mp_context=fork, initializer=_inherit,
                              initargs=(shared,)) as pool):
        pool.submit(int)                # the first submit forks every worker
        free = collections.deque(range(slots))  # slots not in use
        files = collections.deque()     # drawn: (job, (slot, future)s, unsent blocks)

        def submit() -> None:
            """Give the free slots to the files' blocks, in file order."""
            for _, pending, blocks in files:
                for block in itertools.islice(blocks, len(free)):
                    k = free.popleft()
                    shared.seek(k * _SLOT)
                    for row in block:
                        shared.write(row)
                    pending.append((k, pool.submit(_format_into, k, len(block[0]))))

        def texts(pending):
            # a taken slot goes first to this file's next block, so pending
            # is empty only once every block of the file is taken
            while pending:
                k, future = pending.popleft()
                text = shared[k * _SLOT:k * _SLOT + future.result()].decode()
                free.append(k)
                submit()
                yield text

        jobs = iter(jobs)
        while True:
            while free and len(files) < slots and (job := next(jobs, None)) is not None:
                files.append((job, collections.deque(), iter(_event_blocks(job[1]))))
                submit()
            if not files:
                return
            yield *files[0][0], texts(files[0][1])
            files.popleft()             # only now: its texts are taken


def _save_rows(raw, rows) -> None:
    """Write the equal-length 1-d rows as one (len(rows), n) float64 .npy
    array, the bytes numpy.save gives for their stack, BLOCK elements of
    a row at a time (neither the stacked copy nor a float copy of a
    whole row, such as the int64 signs, is formed)."""
    np.lib.format.write_array_header_1_0(
        raw, {"descr": "<f8", "fortran_order": False,
              "shape": (len(rows), len(rows[0]))})
    for row in rows:
        for start in range(0, len(row), BLOCK):
            raw.write(np.ascontiguousarray(row[start:start + BLOCK], dtype="<f8"))


def save_event_files(jobs, meta: dict | None = None,
                     workers: int = 1) -> None:
    """Write each (target, path) of jobs as JSONL (write_event_path with
    meta as extra header fields), then its sidecar target +
    SIDECAR_SUFFIX, bound to the bytes as written.

    jobs may be any iterable, a generator included: it is drawn lazily
    and at most 2 * workers + 1 of its paths are held at a time, so
    memory does not grow with the number of paths.  Each file is written
    as <name>.<pid>.tmp and renamed into place once all are complete; on
    any exception, from jobs too, the temporary files are removed and no
    target changes.  The event blocks of all the paths are formatted as
    one stream, in file order, on workers forked processes
    (_formatted), with the same bytes for any worker count.  Callers
    that run threads pass workers=1, as forking is then unsafe.  A dead
    formatter raises concurrent.futures.process.BrokenProcessPool.
    """
    renames = []
    try:
        with contextlib.closing(_formatted(jobs, workers)) as stream:
            for target, path, texts in stream:
                for name in (target, f"{target}{SIDECAR_SUFFIX}"):
                    if os.path.isdir(name):   # os.replace cannot replace it
                        raise IsADirectoryError(errno.EISDIR, "Is a directory", str(name))
                    renames.append((f"{name}.{os.getpid()}.tmp", name))
                (jsonl, _), (sidecar, _) = renames[-2:]
                with open(jsonl, "wb") as raw:
                    fp = _DigestingWriter(raw)
                    write_event_path(path, fp, extra_meta=meta, texts=texts)
                with open(sidecar, "wb") as raw:
                    raw.write(fp.sha256.digest())
                    _save_rows(raw, (path.times, path.signs, path.log1p_mags))
        for temporary, name in renames:
            os.replace(temporary, name)
    except BaseException:
        for temporary, _ in renames:
            with contextlib.suppress(OSError):
                os.remove(temporary)
        raise


def _open_regular(name):
    """name opened for binary reading; OSError unless it is a regular file.

    The open does not wait for a writer, as a plain open of a FIFO would."""
    fd = os.open(name, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise OSError(errno.EINVAL, "not a regular file", str(name))
    return open(fd, "rb")


def _sidecar_events(name, digest: bytes) -> tuple[np.ndarray, ...] | None:
    """The times, signs (as int64) and log1p magnitudes in name's
    sidecar, or None when the sidecar is missing or not a regular file,
    holds another digest, has a payload that is not a (3, n) float64
    array in .npy form with the version 1.0 header _save_rows writes
    (pickled objects are never loaded) or has a sign that is not -1 or
    +1.

    Each row is read into its own array once the .npy header and the
    payload's length are checked; the signs are converted in place a
    block at a time, so the (3, n) array is never formed."""
    try:
        with _open_regular(f"{name}{SIDECAR_SUFFIX}") as fp:
            if (fp.read(len(digest)) != digest
                    or np.lib.format.read_magic(fp) != (1, 0)):
                return None
            shape, fortran_order, dtype = (
                np.lib.format.read_array_header_1_0(fp))
            if (dtype != np.float64 or fortran_order or len(shape) != 2
                    or shape[0] != 3
                    or os.fstat(fp.fileno()).st_size - fp.tell() != 24 * shape[1]):
                return None
            times, signs, mags = (np.empty(shape[1], dtype)
                                  for dtype in (np.float64, np.int64, np.float64))
            for row in (times, signs.view(np.float64), mags):
                if fp.readinto(row) != row.nbytes:
                    return None
    except (OSError, ValueError, MemoryError):
        return None
    as_float = signs.view(np.float64)
    for start in range(0, len(signs), BLOCK):
        block = as_float[start:start + BLOCK]
        if not np.all((block == 1.0) | (block == -1.0)):
            return None
        signs[start:start + BLOCK] = block      # numpy copies the overlap first
    return times, signs, mags


def load_event_file(name) -> EventPath:
    """Read the path file name, from its sidecar when that is bound to
    the file's bytes, else with read_event_path.

    The header is always read from the JSONL and checked as
    read_event_path checks it; a file that is not a regular one (a
    directory, a FIFO) raises OSError.  Arrays from a sidecar pass every
    EventPath check; if they fail one, the JSONL is parsed instead.
    A sidecar load holds the three returned arrays and a few boolean
    arrays of the path's length, nothing more.
    """
    with io.TextIOWrapper(_open_regular(name)) as fp:
        # the hash, the header and any parse all read this one open file,
        # so a file renamed over name meanwhile cannot mix two paths
        digest = hashlib.file_digest(fp.buffer, "sha256").digest()
        fp.buffer.seek(0)
        events = _sidecar_events(name, digest)
        if events is not None:
            header = _read_header(fp)
            times, signs, mags = events
            try:
                return EventPath(**header, times=times, signs=signs,
                                 log1p_mags=mags)
            except ValueError:
                fp.seek(0)
        return read_event_path(fp)
