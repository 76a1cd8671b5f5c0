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
ensemble.  A path is three float64 rows, times, signs (+-1.0) and
log1p magnitudes, from the draw to the sidecar, and EventPath is the
one place they are checked.  They are drawn in place, with one block of
BLOCK events as scratch, so the length of path a machine can hold is
set by those rows alone.  Its running sup is returned as its steps, the
events at which |K| sets a record, found in one pass over the path a
block at a time.

JSONL is the one path format users read and write, as bytes: lines end
at b"\n", and a line not in the writer's ASCII shape is decoded as
strict UTF-8 whatever the locale.  Line 1 is a fixed header, the path's
own fields, then the manifest of the command that wrote it, if any.  The
event lines' bytes are written a block at a time by _event_lines, a
numpy kernel that finds repr's shortest digits exactly for 1e-4 <= x <
1e16 and asks repr itself for any float it cannot decide (about 1%).
save_event_files writes each JSONL with <file>.events beside it: the
SHA-256 of the JSONL bytes as written, then the path's three rows as one
(3, n) float64 array in .npy form (version 1.0 header); a call that
fails changes no file.  It formats, hashes and writes every file in the
calling process, and draws its paths lazily from any iterable, each one
between two files, so it holds one path at a time and writes an ensemble
of any size in fixed memory.
load_event_file takes the rows from the sidecar only when the digest
matches the JSONL, the payload is that array under the exact .npy
header save_event_files writes (no pickle) and the rows pass every
EventPath check, a sign other than +-1.0 included; otherwise it parses
the JSONL.  It reads each row into its own array, so a load holds
little more than the path it returns.  A read never writes a sidecar.
"""

from __future__ import annotations

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
    """A read-only view of a as a contiguous array; the caller's own
    array keeps its flags, and no copy is made of a contiguous one."""
    a = np.ascontiguousarray(a).view()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class EventPath:
    """Time-ordered large-jump events of one simulated path.

    The path value at time t is the log-domain sum of all jumps with
    event time <= t; the value at 0 is zero.  Each row is held as
    float64, the signs as -1.0 and +1.0; rows of another dtype are
    converted, and a sign of any other value is refused here, the one
    sign check.  The rows are read-only views, which share memory with
    the caller's arrays when no conversion was needed: instances are
    immutable through the path (the caller may still write to its own
    arrays) and safe to share between threads.
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
        # no float temporaries of the path's length: float64 rows are kept
        # as given, and the order check compares rather than subtracts
        t, s, m = (_readonly(np.asarray(row, dtype=float))
                   for row in (self.times, self.signs, self.log1p_mags))
        if not (len(t) == len(s) == len(m)):
            raise ValueError("event arrays must have equal length")
        if not np.all((s == 1.0) | (s == -1.0)):
            raise ValueError("event signs must be -1 or +1")
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


def _log_jumps(m: np.ndarray) -> np.ndarray:
    """ln |jump| = ln(e^m - 1) for each log1p magnitude m, elementwise.
    The one log-jump kernel: every caller applies it a block of events
    at a time, so the log jumps of a whole path are never held."""
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
    signs = rng.integers(0, 2, n).astype(float)
    signs *= 2.0
    signs -= 1.0
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

# Event lines are formatted a block at a time.  repr writes a float as its
# shortest decimal digits that read back as it (the nearest to it among
# several), in fixed form for 1e-4 <= x < 1e16 (Gay's dtoa, mode 0).
# _shortest_digits finds those digits with exact float arithmetic for
# every x it can decide, and _event_lines lays them out column by column.
_POW10 = 10.0 ** np.arange(23)          # exact doubles up to 1e22
_SPLITTER = 2.0 ** 27 + 1.0             # Dekker's splitting constant
_EXPONENT_BITS = 0x7FF << 52


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _shortest_digits(x: np.ndarray):
    """(digits, n_fit, k, exact) for a float64 array x.  Where exact is
    True, repr(x) is the first 18 - n_fit of the 17 decimal digits of the
    int64 digits, with the decimal point after the first 17 - k of them
    (before, when that count is not positive: 0.000ddd for -3).

    Y = x * 10^k lies in [1e16, 1e17) and is formed exactly as p + e
    (Dekker's product; p is an integer), so its fraction f, its integer
    part and the residues r = floor(Y) mod 10^j are exact.  A multiple of
    10^j has 17 - j significant digits and reads back as x when its
    distance to Y, min(r + f, 10^j - r - f), is below H, half an ulp of
    x times 10^k (under 11.1); those sums are exact wherever they are
    below 12, so the test is exact.  17 digits always fit; n_fit counts
    the lengths 17, 16, 15 and 14 that do, and digits is the multiple
    of 10^(n_fit - 1) nearest Y.

    exact is False, and repr must be asked, for x outside [1e-4, 1e16)
    (the exponent form, 0, subnormals, negatives, inf and nan), integral
    x, x of 14 or fewer digits, a k misjudged by log10, and wherever a
    distance equals H or two candidates are equally near (ties that dtoa
    breaks by rules not followed here).  The powers of two, whose
    rounding interval is asymmetric, are among them: in the domain each
    is integral or has at most 10 digits.
    """
    exact = (x >= 1e-4) & (x < 1e16)
    x = np.where(exact, x, 1.5)
    k = np.log10(x)
    np.floor(k, out=k)
    k = (16.0 - k).astype(np.intp)
    ten = _POW10.take(k)
    p = x * ten
    exact &= (p > 1e16) & (p < 1e17)
    ah, al = _split(x)
    bh, bl = _POW10_HI.take(k), _POW10_LO.take(k)
    e = ah * bh
    e -= p
    e += ah * bl
    e += al * bh
    e += al * bl
    half = ((x.view(np.int64) & _EXPONENT_BITS) - (53 << 52)).view(np.float64)
    half *= ten
    e_floor = np.floor(e)
    f = e - e_floor
    digits = p.astype(np.int64)
    digits += e_floor.astype(np.int64)          # floor(Y)
    r1000 = (digits - digits // 1000 * 1000).astype(np.float64)
    n_fit = np.ones(len(x), np.intp)            # 17 digits
    tie = f == 0.5
    for m in _POW10[1:4]:
        r = r1000 - m * np.floor(r1000 / m)
        below, above = r + f, (m - r) - f
        distance = np.minimum(below, above)
        n_fit += distance < half
        tie |= (distance == half) | (below == above)
    # n_fit > k puts the point at or past the last digit: integral x
    exact &= ~tie & (n_fit <= 3) & (n_fit <= k)
    m = _POW10.take(np.minimum(n_fit - 1, 3))
    r = r1000 - m * np.floor(r1000 / m)
    digits -= r.astype(np.int64)
    digits += ((f > 0.5 * m - r) * m).astype(np.int64)
    return digits, n_fit, k, exact


# The event line {"t": T, "sign": S, "log1p_mag": M}\n is _KEYS and _END
# around its numbers; the writer's columns and the reader's _SKELETON
# derive from them.  A float's _FIELD holds its first 16 digits and "0",
# ".", "000" and its 17 digits; _LAYOUT's row for its (n_fit, k) keeps
# the integer part from the first copy ("0" below 1), the point, and the
# fraction from the second.  _LINES and _KEEP have rows for sign -1 and
# +1; a pad column, never kept, follows t's field, and +1's shorter text
# starts one column later, so that its dropped column joins the pad (each
# run of dropped columns costs the final boolean index a step).
_KEYS = (b'{"t": ', b', "sign": ', b', "log1p_mag": ')
_END = b"}\n"
_FIELD = 38
_T_AT = len(_KEYS[0])
_MAG_AT = _T_AT + _FIELD + 1 + len(_KEYS[1] + b"-1" + _KEYS[2])  # 1: a pad
_WIDTH = _MAG_AT + _FIELD + len(_END)
_ROWS = 1024            # lines laid out at a time
# bytes in the longest event line: two 24-character float reprs, sign -1
_LINE_MAX = len(b"".join(_KEYS) + b"-1" + _END) + 2 * 24


def _line_rows() -> tuple[np.ndarray, np.ndarray]:
    """(_LINES, _KEEP): an event line's bytes outside its fields, and the
    columns kept, for sign -1 (row 0) and +1 (row 1)."""
    lines, keep = np.zeros((2, _WIDTH), np.uint8), np.ones((2, _WIDTH), bool)
    for i, sign in enumerate((b"-1", b"1")):
        middle = _KEYS[1] + sign + _KEYS[2]
        for at, chars in ((0, _KEYS[0]), (_MAG_AT - len(middle), middle),
                          (_WIDTH - len(_END), _END)):
            lines[i, at:at + len(chars)] = np.frombuffer(chars, np.uint8)
        for at in (_T_AT, _MAG_AT):
            lines[i, at + 16:at + 21] = np.frombuffer(b"0.000", np.uint8)
        keep[i, _T_AT + _FIELD:_MAG_AT - len(middle)] = False
    return lines, keep


def _layouts() -> np.ndarray:
    """Row 4k + n_fit: the columns of a _FIELD to keep for
    _shortest_digits's (n_fit, k).  Row 0 is for the lanes repr writes."""
    rows = np.zeros((4 * 21, _FIELD), bool)
    for k in range(1, 21):
        point = 17 - k
        for n_fit in (1, 2, 3):
            row = rows[4 * k + n_fit]
            row[:max(point, 0)] = True
            row[16] = point <= 0
            row[17] = True
            row[18 + 3 + point:18 + 3 + 18 - n_fit] = True
    return rows


_LINES, _KEEP = _line_rows()
_LAYOUT = _layouts()
# two ASCII digits per uint16, "00" to "99", in memory order
_DIGIT_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)),
                             np.uint16)


def _ascii_digits(digits: np.ndarray) -> np.ndarray:
    """The 17 decimal digits of each non-negative int64 below 1e17, as an
    (n, 17) uint8 array of ASCII, two digits a step."""
    hi = digits // 100_000_000
    parts = ((digits - hi * 100_000_000).astype(np.uint32),
             hi.astype(np.uint32))
    out = np.empty((len(digits), 18), np.uint8)  # a pad byte, then 17 digits
    pairs = out.view(np.uint16)
    for part, columns in zip(parts, ((8, 7, 6, 5), (4, 3, 2, 1, 0))):
        for j in columns:
            q = part // 100
            pairs[:, j] = _DIGIT_PAIRS.take(part - q * 100)
            part = q
    return out[:, 1:]


def _field(x: np.ndarray):
    """One float column as _event_lines lays it out: each value's _LAYOUT
    row code and 17 ASCII digits, then the lanes repr writes, with their
    text (24 bytes, NUL-padded) and the columns it fills."""
    digits, n_fit, k, exact = _shortest_digits(x)
    code = 4 * k + n_fit
    code[~exact] = 0
    lanes = np.flatnonzero(~exact)
    reprs = [repr(v) for v in x[lanes].tolist()]
    filled = np.array([len(text) for text in reprs], dtype=np.intp)
    return (code, _ascii_digits(np.where(exact, digits, 0)), lanes,
            np.array(reprs, dtype="S24").view(np.uint8).reshape(-1, 24),
            np.arange(_FIELD) < filled[:, None])


def _event_lines(times: np.ndarray, signs: np.ndarray,
                 mags: np.ndarray) -> np.ndarray:
    """The event lines of one block as a uint8 array of ASCII, each line
    exactly {"t": T, "sign": S, "log1p_mag": M}\n (json.dumps's shape),
    for the -1 and +1 signs of an EventPath.

    Floats are written as repr writes them, so they round-trip bit for
    bit.  _shortest_digits gives repr's digits for the floats it can
    decide, about 99% of those in simulated paths, and repr writes the
    rest.  Each line is laid out in a row of a uint8 grid, its columns
    to keep are marked in a boolean array of the grid's shape, and one
    boolean index joins _ROWS lines; so the call holds the text, a few
    arrays of the block's length and two grids of _ROWS lines.
    """
    n = len(times)
    fields = [(at, _field(np.asarray(x, dtype=np.float64)))
              for at, x in ((_T_AT, times), (_MAG_AT, mags))]
    positive = np.greater(signs, 0).view(np.int8)
    grid = np.empty((min(n, _ROWS), _WIDTH), np.uint8)
    keep = np.empty(grid.shape, bool)
    text = np.empty(n * _LINE_MAX, np.uint8)
    end = 0
    for a in range(0, n, _ROWS):
        b = min(n, a + _ROWS)
        rows, kept = grid[:b - a], keep[:b - a]
        _LINES.take(positive[a:b], axis=0, out=rows)
        _KEEP.take(positive[a:b], axis=0, out=kept)
        for at, (code, digits, lanes, reprs, filled) in fields:
            kept[:, at:at + _FIELD] = _LAYOUT.take(code[a:b], axis=0)
            rows[:, at:at + 16] = digits[a:b, :16]
            rows[:, at + 21:at + _FIELD] = digits[a:b]
            lo, hi = np.searchsorted(lanes, (a, b))
            rows[lanes[lo:hi] - a, at:at + 24] = reprs[lo:hi]
            kept[lanes[lo:hi] - a, at:at + _FIELD] = filled[lo:hi]
        lines = rows[kept]
        text[end:end + len(lines)] = lines
        end += len(lines)
    return text[:end]


def write_event_path(path: EventPath, fp, manifest: dict | None = None) -> None:
    """Write a path as JSONL to the binary file fp: one header record,
    the path's own fields and then manifest, when one is given, as its
    last field; then its event lines, a BLOCK at a time (_event_lines)."""
    meta = {"format_version": FORMAT_VERSION, "alpha": path.params.alpha,
            "horizon": path.horizon, "seed": path.seed,
            "rng_name": path.rng_name, "component": "large"}
    if path.spawn_key:
        meta["spawn_key"] = list(path.spawn_key)
    if manifest is not None:
        meta["manifest"] = manifest
    fp.write(json.dumps(meta).encode() + b"\n")
    for b in range(0, path.n_events, BLOCK):
        fp.write(_event_lines(path.times[b:b + BLOCK], path.signs[b:b + BLOCK],
                              path.log1p_mags[b:b + BLOCK]))


# A writer's line with every [0-9.eE+-] deleted reads _SKELETON and holds
# each of _KEYS and _END whole.  A block of such lines, its log1p_mag key
# (it holds a 1) made a comma, its _KEY_CHARS deleted and its line breaks
# made commas, is the body of a JSON list.
_NUMBER_CHARS = b"0123456789.eE+-"
_SKELETON = (b"".join(_KEYS) + _END).translate(None, _NUMBER_CHARS)
_KEY_CHARS = bytes(set(_KEYS[0] + _KEYS[1] + _END) - set(b" ,\n"))
_BREAK_TO_COMMA = bytes.maketrans(b"\n", b",")


def _parse_block(lines: list[bytes]) -> tuple[np.ndarray, ...] | None:
    """(times, signs, log1p_mags) as float arrays for a block of event lines
    that all have the writer's exact record shape, else None.

    One json.loads parses every number in the block, so the number
    grammar and the int/float types are exactly JSON's; anything it
    refuses, or an integer too large for a float, also gives None.
    CRLF line ends are read as LF; any other carriage return gives None.
    """
    text = b"".join(lines)
    if b"\r" in text:
        text = text.replace(b"\r\n", b"\n")
    n = len(lines)
    if (text.translate(None, _NUMBER_CHARS) != _SKELETON * n
            or any(text.count(part) != n for part in (*_KEYS, _END))):
        return None
    body = text.replace(_KEYS[2], b",").translate(_BREAK_TO_COMMA, _KEY_CHARS)
    try:
        values = json.loads(b"[" + body[:-1] + b"]")
        return tuple(np.array(values[i::3], dtype=float) for i in range(3))
    except (ValueError, OverflowError):
        return None


def _decoded(line: bytes, lineno: int) -> str:
    """line decoded as strict UTF-8, whatever the locale; errors name it."""
    try:
        return line.decode()
    except UnicodeDecodeError as exc:
        raise ValueError(f"line {lineno}: not UTF-8 ({exc})") from None


def _json_line(line: str, lineno: int):
    """json.loads for one decoded line of a path file; errors name the line."""
    try:
        return json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"line {lineno}: invalid JSON ({exc})") from None


def _parse_lines(lines: list[bytes], first_lineno: int) -> tuple[np.ndarray, ...]:
    """(times, signs, log1p_mags) as float arrays, one record at a time.

    Accepts any JSON object per line that has the three fields as
    numbers (ints or floats, not bools), in any key order, spacing or
    with extra keys; blank lines are skipped.  Errors name the line.
    """
    rows = []
    for lineno, line in enumerate(lines, first_lineno):
        line = _decoded(line, lineno).strip()
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


def _finite(v: int | float) -> bool:
    """math.isfinite, and False for an int beyond the float range."""
    try:
        return math.isfinite(float(v))
    except OverflowError:
        return False


def _read_header(fp) -> dict:
    """The EventPath fields that line 1 of a path file gives, as keyword
    arguments; errors say what is wrong."""
    header = _decoded(fp.readline(), 1)
    if not header:
        raise ValueError("empty path file")
    meta = _json_line(header, 1)
    # the integer 1 only: true and 1.0 compare equal to it
    version = meta.get("format_version") if isinstance(meta, dict) else None
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"unsupported path header {header.strip()[:80]!r}")
    if meta.get("component") != "large":
        raise ValueError("expected a large-jump component file")
    missing = [k for k in ("alpha", "horizon", "seed") if k not in meta]
    if missing:
        raise ValueError(f"path header lacks {', '.join(missing)}")
    for key in ("alpha", "horizon"):
        v = meta[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not _finite(v):
            raise ValueError(f"path header {key} must be a finite number, "
                             f"got {v!r:.40}")
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
    """Read a path file written by write_event_path from binary file fp.

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
    """Writes to a binary file and keeps the SHA-256 of what it wrote."""

    def __init__(self, raw):
        self.raw = raw
        self.sha256 = hashlib.sha256()

    def write(self, data) -> int:
        self.sha256.update(data)
        return self.raw.write(data)

    def tell(self) -> int:
        """Bytes written so far, as a binary file's tell gives them."""
        return self.raw.tell()


def _npy_header(shape: tuple[int, int]) -> bytes:
    """The .npy version 1.0 header of a C-order float64 array of shape,
    as numpy.save writes it."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return buf.getvalue()


def save_event_files(jobs, manifest: dict | None = None) -> None:
    """Write each (target, path) of jobs as JSONL (write_event_path with
    manifest as the header's last field), then its sidecar target +
    SIDECAR_SUFFIX, bound to the bytes as written.  The sidecar's payload
    is the bytes numpy.save gives for the (3, n) stack of the path's
    float64 rows, written one row at a time, so the stack is not formed.

    jobs may be any iterable, a generator included: it is drawn lazily,
    one path between two files, and only that path is held, so memory
    does not grow with the number of paths.  Each file is written as
    <name>.<pid>.tmp and renamed into place once all are complete; on
    any exception, from jobs too, the temporary files are removed and no
    target changes.
    """
    renames = []
    try:
        for target, path in jobs:
            for name in (target, f"{target}{SIDECAR_SUFFIX}"):
                if os.path.isdir(name):   # os.replace cannot replace it
                    raise IsADirectoryError(errno.EISDIR, "Is a directory", str(name))
                renames.append((f"{name}.{os.getpid()}.tmp", name))
            (jsonl, _), (sidecar, _) = renames[-2:]
            with open(jsonl, "wb") as raw:
                fp = _DigestingWriter(raw)
                write_event_path(path, fp, manifest)
            with open(sidecar, "wb") as raw:
                raw.write(fp.sha256.digest())
                raw.write(_npy_header((3, path.n_events)))
                for row in (path.times, path.signs, path.log1p_mags):
                    raw.write(row.astype("<f8", copy=False))
            del path                    # before the next one is drawn
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
    """The float64 times, signs and log1p magnitudes in name's sidecar,
    or None when the sidecar is missing or not a regular file, holds
    another digest, or does not follow it with exactly the .npy header
    save_event_files writes for (3, n), n being the length of the rest
    over 24 bytes.  The header is compared as bytes, never parsed, so no
    pickled object is loaded.  Each row is read into its own array once
    the header is checked, so the (3, n) array is never formed; the
    values are left to EventPath's checks."""
    try:
        with _open_regular(f"{name}{SIDECAR_SUFFIX}") as fp:
            # the digest, then the .npy magic, version and header length
            head = fp.read(len(digest) + 10)
            header_len = 10 + int.from_bytes(head[-2:], "little")
            n, odd = divmod(os.fstat(fp.fileno()).st_size - len(digest)
                            - header_len, 24)
            if (head[:len(digest)] != digest or odd or n < 0
                    or head[len(digest):] + fp.read(header_len - 10)
                    != _npy_header((3, n))):
                return None
            rows = tuple(np.empty(n, "<f8") for _ in range(3))
            if any(fp.readinto(row) != row.nbytes for row in rows):
                return None
            return rows
    except (OSError, MemoryError):
        return None


def load_event_file(name) -> EventPath:
    """Read the path file name, from its sidecar when that is bound to
    the file's bytes, else with read_event_path on those bytes.

    The header is always read from the JSONL and checked as
    read_event_path checks it; a file that is not a regular one (a
    directory, a FIFO) raises OSError.  The sidecar's float64 rows go
    to EventPath as they are read; if they fail one of its checks (a
    sign other than +-1.0, say), the JSONL is parsed instead.  A sidecar
    load holds the three returned arrays and a few boolean arrays of the
    path's length, nothing more.
    """
    with _open_regular(name) as fp:
        # the hash, the header and any parse all read this one open file,
        # so a file renamed over name meanwhile cannot mix two paths
        digest = hashlib.file_digest(fp, "sha256").digest()
        fp.seek(0)
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
