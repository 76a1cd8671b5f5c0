"""Exit-code fuzz of the CLI: descriptors, numbers and path files.

Descriptors for `pair --phi` and `diagnose --envelope` are drawn from the
tables the parsers read: each test-function family's descriptor (name,
keys), and each envelope kind's long and short names with its
ENVELOPE_PARAMS keys, names in a random case and values from +-5e-324 to
+-1.7e308 and 0.  Some are then mutated into text the parsers must
refuse.  Numbers, log-uniform over the same range or not numbers at all,
go to `classify`, `--pruitt`, `--moment-scan` and `--growth`.  Path files
are a small simulated JSONL and its sidecar with bytes flipped, inserted
or deleted, truncated, or with a header field set to a value of the wrong
kind, read by `pair`, `diagnose --envelope` and `diagnose --growth`.

Whatever the input, a command exits 0 with a strict JSON report that
passes validate_document, or with one line on stderr: 2 with "error: ",
3 with "i/o error: ".  Exit 4 is allowed only from `classify`, inside
the regime-boundary band README names.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kalpha.cli import (EXIT_INTERNAL, EXIT_IO, EXIT_OK, EXIT_USAGE, main,
                        validate_document)
from kalpha.measure import ENVELOPE_PARAMS, ENVELOPE_SHORT_NAMES
from kalpha.paths import SIDECAR_SUFFIX
from kalpha.spaces import _FAMILIES

# descriptor name -> (the command reading it, its keys)
GRAMMAR = {
    **{name: ("phi", cls.descriptor[1]) for name, cls in _FAMILIES.items()},
    **{name: ("envelope", keys) for kind, keys in ENVELOPE_PARAMS.items()
       for name in (kind, ENVELOPE_SHORT_NAMES[kind])},
}
KEYS = sorted({key for _, keys in GRAMMAR.values() for key in keys})
BAD_VALUES = ["x", "nan", "inf", "1e999"]
MUTATIONS = ["unknown-name", "unknown-key", "missing-key", "repeated-key",
             "key-without-value", "two-values", "bad-value", "stray-colon",
             "stray-equals", "empty"]

# the extremes, and values near the floors (beta > 1, c > 0, width > 0)
# and even degrees, where most valid descriptors are
values = st.one_of(st.just(0.0),
                   st.floats(min_value=5e-324, max_value=1.7e308),
                   st.floats(min_value=-1.7e308, max_value=-5e-324),
                   st.floats(min_value=0.5, max_value=4.0),
                   st.sampled_from([2.0, 4.0, 6.0])).map(repr)


@st.composite
def descriptors(draw):
    """(option, text): a descriptor for --phi or --envelope, in its
    grammar or, half the time, bent by up to two mutations."""
    name = draw(st.sampled_from(sorted(GRAMMAR)))
    option, keys = GRAMMAR[name]
    name = "".join(c.upper() if up else c for c, up in zip(
        name, draw(st.lists(st.booleans(), min_size=len(name),
                            max_size=len(name)))))
    fields = [[key, [draw(values)]] for key in draw(st.permutations(keys))]
    stray = None
    mutations = st.lists(st.sampled_from(MUTATIONS), max_size=2)
    for kind in draw(mutations) if draw(st.booleans()) else []:
        if kind == "unknown-name":
            name = draw(st.sampled_from(["", "expo", "gauss", "bump2",
                                         *GRAMMAR]))
        elif kind == "unknown-key":
            fields.append([draw(st.sampled_from(["x", "C", "rs", *KEYS])),
                           [draw(values)]])
        elif kind == "missing-key" and fields:
            fields.remove(draw(st.sampled_from(fields)))
        elif kind == "repeated-key" and fields:
            fields.append(list(draw(st.sampled_from(fields))))
        elif kind == "key-without-value" and fields:
            draw(st.sampled_from(fields))[1] = []
        elif kind == "two-values" and fields:
            draw(st.sampled_from(fields))[1].append(draw(values))
        elif kind == "bad-value" and fields:
            draw(st.sampled_from(fields))[1] = [draw(st.sampled_from(BAD_VALUES))]
        elif kind in ("stray-colon", "stray-equals"):
            stray = ":" if kind == "stray-colon" else "="
        elif kind == "empty":
            return option, ""
    body = ",".join(f"{key}={','.join(vals)}" for key, vals in fields)
    text = f"{name}:{body}" if body or draw(st.booleans()) else name
    if stray:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + stray + text[at:]
    return option, text


@pytest.fixture(scope="module")
def path_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "p.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--alpha", "1.5", "--horizon", "50",
                     "--seed", "7", "--out", str(out)]) == EXIT_OK
    return out


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def run(argv):
    """(exit code, stdout, stderr) of main(argv), run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def check_outcome(rc, out, err, allowed):
    """Exit 0 with a strict JSON report and a quiet stderr, or an allowed
    refusal: nothing on stdout and one line on stderr, in its form."""
    prefixes = {EXIT_USAGE: "error: ", EXIT_IO: "i/o error: ",
                EXIT_INTERNAL: "internal consistency error: "}
    assert rc == EXIT_OK or rc in allowed, (rc, err)
    if rc == EXIT_OK:
        assert err == ""
        validate_document(json.loads(out, parse_constant=reject_constant))
    else:
        assert out == ""
        assert err.startswith(prefixes[rc]) and err.count("\n") == 1, err


# 300 examples take about 1.3 s on a 2-vCPU machine
@settings(max_examples=300)
@given(descriptors())
def test_descriptor_exits_0_with_a_report_or_2_with_one_error(path_file,
                                                              descriptor):
    option, text = descriptor
    argv = (["pair", "--in", str(path_file), "--phi", text] if option == "phi"
            else ["diagnose", "--in", str(path_file), "--envelope", text])
    check_outcome(*run(argv), allowed=(EXIT_USAGE,))


# log-uniform magnitudes over +-5e-324..1.7e308 and 0, values near the
# regimes (alpha about 1, beta about 2), and texts that are no finite number
log_magnitudes = st.floats(min_value=math.log10(5e-324),
                           max_value=math.log10(1.7e308))
numbers = st.one_of(
    st.just(0.0).map(repr),
    st.tuples(st.sampled_from([1.0, -1.0]), log_magnitudes).map(
        lambda sign_exp: repr(sign_exp[0] * 10.0 ** sign_exp[1])),
    st.floats(min_value=0.25, max_value=4.0).map(repr),
    st.sampled_from(["abc", "nan", "inf", "1e999"]))

# a doubling block of exp(t^p) decays by 2^(1 - alpha*p); the quadrature
# reads a block at least 1 - 1e-6 of its predecessor as "no decay"
BOUNDARY_BAND = -math.log2(1.0 - 1e-6)


def in_boundary_band(alpha: str, betas: list[str]) -> bool:
    """Does some p in {1} and betas have 0 < alpha*p - 1 <= BOUNDARY_BAND?"""
    try:
        values = [float(v) for v in (alpha, "1", *betas)]
    except ValueError:
        return False
    return any(0.0 < values[0] * p - 1.0 <= BOUNDARY_BAND for p in values[1:])


@st.composite
def number_commands(draw, path):
    """(argv, exit 4 allowed): one of the four number-reading commands,
    every number drawn from numbers.  Values go in the --opt=value form,
    so a negative one reaches the command rather than argparse."""
    kind = draw(st.sampled_from(["classify", "pruitt", "moment-scan",
                                 "growth"]))
    alpha = draw(numbers)
    if kind == "classify":
        betas = [draw(numbers), draw(numbers)]
        return (["classify", f"--alpha={alpha}", f"--betas={','.join(betas)}"],
                in_boundary_band(alpha, betas))
    if kind == "pruitt":
        etas, rs = (",".join(draw(st.lists(numbers, min_size=1, max_size=2)))
                    for _ in range(2))
        text = f"etas={etas},rs={rs}"
        return ["diagnose", f"--alpha={alpha}", f"--pruitt={text}"], False
    if kind == "moment-scan":
        caps = ",".join(draw(st.lists(numbers, min_size=1, max_size=3)))
        text = f"eta={draw(numbers)},caps={caps}"
        return ["diagnose", f"--alpha={alpha}", f"--moment-scan={text}"], False
    return (["diagnose", "--in", str(path), f"--growth=eta={draw(numbers)}"],
            False)


# 400 examples take about 1 s on a 2-vCPU machine
@settings(max_examples=400)
@given(st.data())
def test_numbers_exit_0_with_a_report_2_with_one_error_or_4_in_band(
        path_file, data):
    argv, band = data.draw(number_commands(path_file))
    allowed = (EXIT_USAGE, EXIT_INTERNAL) if band else (EXIT_USAGE,)
    check_outcome(*run(argv), allowed=allowed)


@pytest.fixture(scope="module")
def pristine(path_file):
    """The simulated path file's bytes and its sidecar's."""
    return (path_file.read_bytes(),
            path_file.with_name(path_file.name + SIDECAR_SUFFIX).read_bytes())


HEADER_KEYS = ["format_version", "component", "alpha", "horizon", "seed",
               "spawn_key", "rng_name"]
HEADER_VALUES = [True, 1.0, "1", None, -1, 10 ** 400, []]


@st.composite
def mutated_files(draw, pristine):
    """(jsonl, sidecar) bytes: one of the two files with bytes flipped,
    inserted or deleted, or cut short, or the JSONL with a header field
    set to a value of the wrong kind (its sidecar is then stale)."""
    files = list(pristine)
    kind = draw(st.sampled_from(["flip", "insert", "delete", "truncate",
                                 "header"]))
    if kind == "header":
        header, rest = files[0].split(b"\n", 1)
        meta = json.loads(header)
        meta[draw(st.sampled_from(HEADER_KEYS))] = draw(
            st.sampled_from(HEADER_VALUES))
        files[0] = json.dumps(meta).encode() + b"\n" + rest
        return tuple(files)
    which = draw(st.sampled_from([0, 1]))
    data = bytearray(files[which])
    if kind == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    for _ in range(0 if kind == "truncate" else draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data) - 1))
        if kind == "flip":
            data[at] ^= draw(st.integers(1, 255))
        elif kind == "insert":
            data.insert(at, draw(st.integers(0, 255)))
        else:
            del data[at:at + draw(st.integers(1, 8))]
    files[which] = bytes(data)
    return tuple(files)


# 200 mutants, 3 commands each, take about 1 s on a 2-vCPU machine
@settings(max_examples=200)
@given(st.data())
def test_mutated_path_file_exits_0_2_or_3(path_file, pristine, data):
    jsonl, sidecar = data.draw(mutated_files(pristine))
    target = path_file.with_name("mutant.jsonl")
    target.write_bytes(jsonl)
    target.with_name(target.name + SIDECAR_SUFFIX).write_bytes(sidecar)
    for argv in (["pair", "--in", str(target),
                  "--phi", "gaussian:center=25,scale=10"],
                 ["diagnose", "--in", str(target), "--envelope", "exp:c=1"],
                 ["diagnose", "--in", str(target), "--growth", "eta=0.5"]):
        check_outcome(*run(argv), allowed=(EXIT_USAGE, EXIT_IO))
