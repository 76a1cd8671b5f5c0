"""Descriptor fuzz of `pair --phi` and `diagnose --envelope`.

Descriptors are drawn from the tables the parsers read: each test-function
family's descriptor (name, keys), and each envelope kind's long and short
names with its ENVELOPE_PARAMS keys, names in a random case and values
from +-5e-324 to +-1.7e308 and 0.  Some are then mutated into text the
parsers must refuse.  Whatever the text, a command exits 0 with a strict
JSON report that passes validate_document, or 2 with one "error: " line.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kalpha.cli import EXIT_OK, EXIT_USAGE, main, validate_document
from kalpha.measure import ENVELOPE_PARAMS, ENVELOPE_SHORT_NAMES
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


# 300 examples take about 1.3 s on a 2-vCPU machine
@settings(max_examples=300)
@given(descriptors())
def test_descriptor_exits_0_with_a_report_or_2_with_one_error(path_file,
                                                              descriptor):
    option, text = descriptor
    argv = (["pair", "--in", str(path_file), "--phi", text] if option == "phi"
            else ["diagnose", "--in", str(path_file), "--envelope", text])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (EXIT_OK, EXIT_USAGE), (rc, text, err.getvalue())
    if rc == EXIT_OK:
        assert err.getvalue() == ""
        validate_document(json.loads(out.getvalue(),
                                     parse_constant=reject_constant))
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
