"""Fuzz of the CLI contract: whatever the input files, flags, CP2LAB_TOL and
replay scripts, `cli.main` exits 0 with one JSON document on stdout, or
exits 1 or 2 with exactly one JSON line on stderr, and never raises."""

import contextlib
import io
import json
import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cp2lab import AlgebraElement, mat_exp
from cp2lab.cli import ENV_TOL, main
from cp2lab.jsonio import mat3_to_json


class _Raw(str):
    """A JSON token written as it is, such as 1e400, which parses as inf."""


def _dumps(obj) -> str:
    if isinstance(obj, _Raw):
        return str(obj)
    if isinstance(obj, list):
        return "[" + ", ".join(_dumps(x) for x in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps(v)}" for k, v in obj.items()) + "}"
    return json.dumps(obj)


EXTREMES = st.sampled_from([0.0, 1.0, -1.0, 1e-300, 1e154, 1e200, 1e300, 1e308, -1e308,
                            _Raw("1e400"), _Raw("-1e400")])
# JSON integers past the float range, such as 10**400, load as exact ints
NUMBERS = st.one_of(EXTREMES, st.floats(-1e308, 1e308), st.integers(-10**30, 10**30),
                    st.sampled_from([10**400, -10**400]),
                    st.floats(allow_nan=True, allow_infinity=True))
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just({}))
COMPLEX = st.one_of(st.lists(NUMBERS, min_size=2, max_size=2), NUMBERS, JUNK)


@st.composite
def _member(draw) -> list:
    """A group element, up to entries ~1e300, as a JSON matrix, sometimes
    with one entry replaced."""
    v = draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
    size = draw(st.sampled_from([1.0, 20.0, 200.0, 700.0]))
    m = mat_exp(size * AlgebraElement(v[0], v[1], complex(v[2], v[3]), complex(v[4], v[5]),
                                      complex(v[6], v[7])).matrix())
    rows = mat3_to_json(m) if np.isfinite(m).all() else mat3_to_json(np.eye(3))
    if draw(st.booleans()):
        rows[draw(st.integers(0, 2))][draw(st.integers(0, 2))] = [draw(NUMBERS), draw(NUMBERS)]
    return rows


MATRICES = st.one_of(
    _member(),
    st.lists(st.lists(st.lists(EXTREMES, min_size=2, max_size=2), min_size=3, max_size=3),
             min_size=3, max_size=3),
    st.lists(st.lists(COMPLEX, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.lists(COMPLEX, max_size=4), max_size=4),
    JUNK,
)
ALGEBRAS = st.one_of(
    st.fixed_dictionaries({"b1": NUMBERS, "b2": NUMBERS,
                           "l1": st.lists(NUMBERS, min_size=2, max_size=2),
                           "l2": st.lists(NUMBERS, min_size=2, max_size=2),
                           "c": st.lists(NUMBERS, min_size=2, max_size=2)}),
    st.dictionaries(st.sampled_from(["b1", "b2", "l1", "l2", "c"]), COMPLEX),
    JUNK,
)

NAMES = st.sampled_from(["L", "E1", "F", "B", "H", "x"])
STEPS = st.one_of(
    st.fixed_dictionaries({"op": st.just("blow_up"), "point": NAMES},
                          optional={"on": st.lists(st.tuples(NAMES, NUMBERS).map(list), max_size=2),
                                    "name": st.one_of(NAMES, JUNK)}),
    st.fixed_dictionaries({"op": st.just("contract"), "curve": st.one_of(NAMES, JUNK)}),
    st.fixed_dictionaries({"op": st.just("rename"), "from": NAMES, "to": NAMES}),
    st.fixed_dictionaries({"op": st.just("assert"),
                           "kind": st.sampled_from(["intersection", "gram", "rank", "x"]),
                           "expected": st.one_of(NUMBERS, JUNK)},
                          optional={"curve": st.one_of(NAMES, JUNK),
                                    "curves": st.one_of(st.lists(NAMES, max_size=3), JUNK)}),
    st.fixed_dictionaries({"op": st.one_of(st.text(max_size=3), JUNK)}),
)
SCRIPTS = st.one_of(
    st.fixed_dictionaries(
        {"initial": st.fixed_dictionaries(
            {"type": st.sampled_from(["P2", "Hirzebruch", "p2", "torus"])},
            optional={"n": st.one_of(st.integers(-2, 6), NUMBERS, JUNK),
                      "curves": st.one_of(st.dictionaries(NAMES, st.lists(NUMBERS, max_size=3),
                                                          max_size=2), JUNK)}),
         "steps": st.lists(STEPS, max_size=6)}),
    JUNK,
)

TOLERANCES = st.one_of(st.none(), st.sampled_from(["1e-6", "1e-300", "1e308", "nan", "inf", "-1",
                                                    "0", "abc", ""]),
                       st.floats(1e-12, 1e-2).map(repr))
COUNTS = st.one_of(st.integers(-3, 6).map(str), st.sampled_from(["x", "1e3", "201"]))


@st.composite
def _invocations(draw):
    """(argv, file text or None, CP2LAB_TOL value or None); the argv names
    the file as `{path}`."""
    command = draw(st.sampled_from(["classify", "classify-exp", "basin", "lattice", "replay"]))
    argv, text = [], None
    tol = draw(TOLERANCES)
    if tol is not None and draw(st.booleans()):
        argv += ["--tol", tol]
    if command in ("classify", "basin"):
        text = _dumps(draw(MATRICES))
        argv += [command, "{path}"]
    elif command == "classify-exp":
        text = _dumps(draw(ALGEBRAS))
        argv += ["classify", "{path}", "--exp"]
    elif command == "replay":
        text = _dumps(draw(SCRIPTS))
        argv += ["replay", "{path}"]
    else:
        argv += draw(st.sampled_from([
            ["lattice", "hirzebruch", "--n", draw(COUNTS)],
            ["lattice", "hirzebruch", "--n", draw(COUNTS), "--square-one",
             "--bound", draw(st.integers(-1, 50).map(str))],
            ["lattice", "exceptional", "--blowups", draw(COUNTS),
             "--bound", draw(st.integers(-1, 2).map(str))],
            ["lattice", "signature", "--blowups", draw(COUNTS)],
            ["lattice", "signature", "--hirzebruch", draw(COUNTS)],
        ]))
    if command == "basin":
        argv += ["--samples", str(draw(st.integers(-1, 50)))]
        if draw(st.booleans()):
            argv += ["--line-samples", str(draw(st.integers(-1, 10)))]
        argv += ["--seed", str(draw(st.sampled_from([0, 1, -1, 2**128, 2**127])))]
        argv += ["--max-iter", str(draw(st.sampled_from([-1, 0, 7, 8, 100, 10**4])))]
    return argv, text, draw(TOLERANCES)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_invocations())
def test_cli_answers_every_invocation_with_one_json_document(tmp_path_factory, invocation):
    argv, text, env_tol = invocation
    path = tmp_path_factory.getbasetemp() / "fuzz-input.json"
    if text is not None:
        path.write_text(text)
    argv = [str(path) if a == "{path}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop(ENV_TOL, None)
    if env_tol is not None:
        os.environ[ENV_TOL] = env_tol
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.environ.pop(ENV_TOL, None)
        if saved is not None:
            os.environ[ENV_TOL] = saved
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        json.loads(out)
    else:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) >= {"error", "detail"}
