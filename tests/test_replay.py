"""Scripted surgery: built-ins, JSON scripts, invariants, failure paths."""

import contextlib
import copy
import hashlib
import io
import json
from collections import Counter
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cp2lab import (
    builtin_sigma0_singular,
    builtin_sigma2_singular,
    builtin_sigma_chain,
    builtin_sigma_step,
    builtin_standard_blowups,
    enumerate_exceptional_classes,
    run,
    script_from_json,
)
from cp2lab import cli, lattice
from cp2lab.errors import AssertionFailed, InputFormatError, NotExceptionalClass, UnknownName
from cp2lab.jsonio import lattice_to_json
from cp2lab.lattice import DivisorClass, PicardLattice, _signature
from cp2lab.replay import (
    AssertStep,
    BlowUpStep,
    ContractStep,
    InitialSurface,
    RenameStep,
    Script,
    _initial_state,
    _run_blow_up,
    state_to_json,
)


def test_empty_script_on_p2():
    state = run(Script(InitialSurface(kind="P2"), ()))
    assert state.lattice.gram == ((1,),)
    assert set(state.curves) == {"H"}


def test_sigma0_builtin():
    state = run(builtin_sigma0_singular())
    assert state.gram_of(["E1", "E2"]) == [[0, 1], [1, 0]]
    assert state.lattice.rank == 2
    assert state.lattice.signature() == (1, 1)
    assert state.n_blowups == 2 and state.n_contractions == 1


def test_sigma0_pushforward_classes():
    state = run(builtin_sigma0_singular())
    # both tracked rulings are rational
    for name in ("E1", "E2"):
        assert state.lattice.genus(state.curves[name]) == 0


def test_sigma2_builtin():
    state = run(builtin_sigma2_singular())
    assert state.gram_of(["F", "B"]) == [[0, 1], [1, -2]]


def test_sigma_chain_base_squares():
    for k in range(9):
        state = run(builtin_sigma_chain(k))
        b = state.curves["B"]
        assert state.lattice.intersect(b, b) == -(2 + k)
        f = state.curves["F"]
        assert state.lattice.intersect(f, f) == 0
        assert state.lattice.intersect(f, b) == 1


def test_sigma_step_intermediate_assertions():
    # the fibre transform reaches square -1 right before its contraction
    steps = builtin_sigma_step(2)
    kinds = [type(s).__name__ for s in steps]
    assert kinds[0] == "BlowUpStep"
    state = run(Script(InitialSurface(kind="Hirzebruch", n=2), steps))
    assert state.lattice.intersect(state.curves["B"], state.curves["B"]) == -3


def test_standard_blowups():
    for k in (0, 1, 3):
        state = run(builtin_standard_blowups(k))
        assert state.lattice.rank == 1 + k
        assert state.lattice.signature() == (1, k)
        kk = state.lattice.intersect(state.lattice.canonical, state.lattice.canonical)
        assert kk == 9 - k


def test_standard_blowup_exceptional_enumeration():
    state = run(builtin_standard_blowups(1))
    classes = enumerate_exceptional_classes(state.lattice, 3)
    assert [d.coeffs for d in classes] == [(0, 1)]


def test_rank_bookkeeping_and_signature_along_the_way():
    state = run(builtin_sigma2_singular())
    assert state.lattice.rank == 1 + state.n_blowups - state.n_contractions
    assert state.lattice.signature() == (1, state.lattice.rank - 1)


def test_contract_square_zero_fails():
    script = script_from_json({
        "initial": {"type": "P2", "curves": {"L": [1]}},
        "steps": [
            {"op": "blow_up", "point": "p1", "on": [["L", 1]]},
            {"op": "contract", "curve": "L"},
        ],
    })
    with pytest.raises(NotExceptionalClass):
        run(script)


def test_unknown_curve_name():
    script = script_from_json({
        "initial": {"type": "P2"},
        "steps": [{"op": "contract", "curve": "nope"}],
    })
    with pytest.raises(UnknownName):
        run(script)


def test_assert_failure_carries_details():
    script = script_from_json({
        "initial": {"type": "P2"},
        "steps": [{"op": "assert", "kind": "rank", "expected": 7}],
    })
    with pytest.raises(AssertionFailed) as info:
        run(script)
    assert info.value.step == 0
    assert info.value.expected == 7
    assert info.value.got == 1


def test_json_script_round_trip():
    script = script_from_json({
        "initial": {"type": "P2", "curves": {"L": [1]}},
        "steps": [
            {"op": "blow_up", "point": "p1", "on": [["L", 1]]},
            {"op": "assert", "kind": "self_intersection", "curve": "L", "expected": 0},
            {"op": "blow_up", "point": "p2", "on": [["L", 1]], "name": "exc"},
            {"op": "assert", "kind": "self_intersection", "curve": "L", "expected": -1},
            {"op": "contract", "curve": "L"},
            {"op": "rename", "from": "exc", "to": "ruling"},
            {"op": "assert", "kind": "gram", "curves": ["E1", "ruling"], "expected": [[0, 1], [1, 0]]},
            {"op": "assert", "kind": "signature", "expected": [1, 1]},
            {"op": "assert", "kind": "k_squared", "expected": 8},
        ],
    })
    state = run(script)
    assert state.lattice.rank == 2
    payload = state_to_json(state)
    assert payload["lattice"]["labels"] == ["v1", "v2"]
    assert payload["curves"]["ruling"] is not None
    assert payload["n_blowups"] == 2


def _as_json(script: Script) -> dict:
    """The JSON object script_from_json reads back as script."""
    steps = []
    for step in script.steps:
        if isinstance(step, BlowUpStep):
            steps.append({"op": "blow_up", "point": step.point, "on": [list(p) for p in step.on],
                          **({"name": step.name} if step.name else {})})
        elif isinstance(step, ContractStep):
            steps.append({"op": "contract", "curve": step.curve})
        elif isinstance(step, RenameStep):
            steps.append({"op": "rename", "from": step.old, "to": step.new})
        else:
            steps.append({"op": "assert", "kind": step.kind, "expected": step.expected,
                          **({"curve": step.curve} if step.curve else {}),
                          **({"curves": list(step.curves)} if step.curves else {})})
    init = script.initial
    curves = {name: list(coeffs) for name, coeffs in init.curves}
    return {"initial": {"type": init.kind, "n": init.n, "curves": curves}, "steps": steps}


def test_builtin_scripts_read_back_from_json():
    # every built-in assert's expected value has the shape script_from_json needs
    for script in (builtin_standard_blowups(4), builtin_sigma0_singular(),
                   builtin_sigma2_singular(), builtin_sigma_chain(3)):
        parsed = script_from_json(json.loads(json.dumps(_as_json(script))))
        assert parsed == script
        assert state_to_json(run(parsed)) == state_to_json(run(script))


# (kind, an expected value of the right shape, values of the wrong shape)
ASSERT_SHAPES = [
    ("rank", 1, [True, 1.0, "1", None, [1]]),
    ("k_squared", 9, [9.0, False]),
    ("self_intersection", 1, [1.0, [1]]),
    ("intersection", 1, [True, 1.5]),
    ("signature", [1, 0], [[1.0, False], [1, 0, 0], [1], 1, (1, 0)]),
    ("gram", [[1, 1], [1, 1]], [[[1.0, 1], [1, 1]], [[True, 1], [1, 1]], [1, 1], 1, [[1, "1"]]]),
]


@pytest.mark.parametrize("kind, good, bad", ASSERT_SHAPES, ids=[k for k, _, _ in ASSERT_SHAPES])
def test_assert_expected_must_have_the_shape_of_its_kind(kind, good, bad):
    def script(expected):
        step = {"op": "assert", "kind": kind, "curve": "H", "curves": ["H", "H"], "expected": expected}
        return script_from_json({"initial": {"type": "P2"}, "steps": [step]})

    assert run(script(good)).log[-1]["value"] == good
    for expected in bad:
        with pytest.raises(InputFormatError, match=f"expected value of a {kind} assert"):
            script(expected)


@pytest.mark.parametrize("kind, expected", [("rank", True), ("k_squared", 9.0),
                                             ("signature", (1.0, False))],
                         ids=["rank", "k_squared", "signature"])
def test_library_asserts_have_the_shape_of_their_kind(kind, expected):
    # compared loosely, these would pass against the values 1, 9 and [1, 0]
    with pytest.raises(InputFormatError, match=f"expected value of a {kind} assert"):
        run(Script(InitialSurface("P2"), (AssertStep(kind, expected),)))


def test_state_json_uses_the_lattice_encoder():
    for script in (builtin_standard_blowups(5), builtin_sigma0_singular(), builtin_sigma_chain(3)):
        state = run(script)
        assert state_to_json(state)["lattice"] == lattice_to_json(state.lattice)


def test_malformed_script_json():
    with pytest.raises(InputFormatError):
        script_from_json({"initial": {"type": "P2"}, "steps": [{"op": "fly"}]})
    with pytest.raises(InputFormatError):
        script_from_json({"steps": []})


def test_log_records_squares():
    state = run(builtin_sigma0_singular())
    blow_entries = [e for e in state.log if e["op"] == "blow_up"]
    assert blow_entries[0]["squares_before"]["L"] == 1
    assert blow_entries[0]["squares_after"]["L"] == 0
    contract_entries = [e for e in state.log if e["op"] == "contract"]
    assert contract_entries[0]["squares_before"]["L"] == -1


def test_initial_hirzebruch_provides_rulings():
    state = run(Script(InitialSurface(kind="Hirzebruch", n=4), ()))
    assert set(state.curves) == {"F", "B"}
    assert state.lattice.intersect(state.curves["B"], state.curves["B"]) == -4


def test_default_exceptional_name_skips_a_tracked_curve():
    # contraction relabels the basis v1, v2, so the next blow-up's basis
    # label is E1 again, while the curve E1 is still tracked
    script = script_from_json({
        "initial": {"type": "P2", "curves": {"L": [1]}},
        "steps": [
            {"op": "blow_up", "point": "x1", "on": [["L", 1]]},
            {"op": "blow_up", "point": "x2", "on": [["L", 1]]},
            {"op": "contract", "curve": "L"},
            {"op": "blow_up", "point": "x3"},
            {"op": "blow_up", "point": "x4"},
        ],
    })
    state = run(script)
    assert state.lattice.labels == ("v1", "v2", "E1", "E2")
    assert [e["exceptional"] for e in state.log if e["op"] == "blow_up"] == ["E1", "E2", "E3", "E4"]
    assert state.squares == {"H": 2, "E1": 0, "E2": 0, "E3": -1, "E4": -1}


def test_default_exceptional_name_keeps_the_basis_label_when_free():
    def names(*explicit):
        steps = [{"op": "blow_up", "point": f"x{i}", **({"name": n} if n else {})}
                 for i, n in enumerate(explicit)]
        state = run(script_from_json({"initial": {"type": "P2"}, "steps": steps}))
        return [e["exceptional"] for e in state.log]

    assert names("X", None) == ["X", "E2"]
    # the basis label E2 is taken: the first free E<j> past one blow-up
    assert names("E2", None, None) == ["E2", "E3", "E4"]


def test_explicit_exceptional_name_clash_is_an_input_error():
    script = script_from_json({
        "initial": {"type": "P2", "curves": {"L": [1]}},
        "steps": [{"op": "blow_up", "point": "x1", "name": "L"}],
    })
    with pytest.raises(InputFormatError):
        run(script)


def test_negative_multiplicity_is_an_input_error():
    script = script_from_json({
        "initial": {"type": "P2", "curves": {"L": [1]}},
        "steps": [{"op": "blow_up", "point": "x1", "on": [["L", -1]]}],
    })
    with pytest.raises(InputFormatError):
        run(script)


@pytest.mark.parametrize("m", [1.9, True, "2"], ids=["float", "bool", "string"])
def test_library_multiplicity_must_be_an_int(m):
    # the JSON path's rule: a multiplicity is refused, never truncated to 1 or 2
    script = Script(InitialSurface("P2", curves=(("L", (1,)),)),
                    (BlowUpStep("p", on=(("L", m),)),))
    with pytest.raises(InputFormatError, match="multiplicity"):
        run(script)


# asserts read the derived squares --------------------------------------------------

def _sigma2_state():
    return run(builtin_sigma2_singular())


@pytest.mark.parametrize("step", [
    AssertStep(kind="self_intersection", curve="B", expected=-3),
    AssertStep(kind="gram", curves=("F", "B"), expected=[[0, 1], [1, -3]]),
    AssertStep(kind="gram", curves=("F", "B"), expected=[[0, 2], [2, -2]]),
    AssertStep(kind="gram", curves=("B", "F", "B"), expected=[[-2, 1, -2], [1, 0, 1], [-2, 1, 0]]),
], ids=["self-intersection", "gram-diagonal", "gram-off-diagonal", "gram-repeated"])
def test_square_asserts_with_a_wrong_value_fail(step):
    script = builtin_sigma2_singular()
    with pytest.raises(AssertionFailed) as info:
        run(Script(script.initial, script.steps + (step,)))
    assert info.value.step == len(script.steps)
    state = _sigma2_state()
    names = [step.curve] if step.kind == "self_intersection" else list(step.curves)
    pairings = [[state.lattice.intersect(state.curves[a], state.curves[b]) for b in names]
                for a in names]
    assert info.value.got == (pairings[0][0] if step.kind == "self_intersection" else pairings)


@pytest.mark.parametrize("step", [
    AssertStep(kind="self_intersection", curve="nope", expected=0),
    AssertStep(kind="gram", curves=("F", "nope"), expected=[[0, 0], [0, 0]]),
    AssertStep(kind="intersection", curves=("nope", "B"), expected=0),
], ids=["self-intersection", "gram", "intersection"])
def test_asserts_on_an_unknown_curve_fail(step):
    script = builtin_sigma2_singular()
    with pytest.raises(UnknownName):
        run(Script(script.initial, script.steps + (step,)))


def test_square_asserts_agree_with_the_pairings():
    state = _sigma2_state()
    names = list(state.curves)
    gram = [[state.lattice.intersect(state.curves[a], state.curves[b]) for b in names]
            for a in names]
    assert state.gram_of(names) == gram
    assert [state.self_intersection(n) for n in names] == [row[i] for i, row in enumerate(gram)]


# a blow-up leaves the curves it misses alone ---------------------------------------

def test_blow_up_keeps_untouched_classes_and_pads_them_when_read():
    state = _initial_state(InitialSurface("P2", curves=(("L", (1,)), ("C", (2,)))))
    line, conic = state.curves["L"], state.curves["C"]
    _run_blow_up(state, BlowUpStep("p", on=(("C", 1), ("L", 0))), 0)
    assert state.curves["L"] is line and line.rank == 1 < state.lattice.rank
    assert state.curves["C"].coeffs == (2, -1) and conic.coeffs == (2,)
    assert list(state.curves) == ["H", "L", "C", "E1"]
    assert state.curve("L").coeffs == (1, 0)
    assert state.curves["L"].coeffs == (1, 0)      # padded once, in place
    assert state.self_intersection("L") == 1 and state.self_intersection("C") == 3


def test_run_returns_every_class_at_the_final_rank():
    state = run(builtin_standard_blowups(5))
    assert {d.rank for d in state.curves.values()} == {6}
    assert state.curves["H"].coeffs == (1, 0, 0, 0, 0, 0)


# derived lattices against full validation -----------------------------------------

def _check_state(state, previous_log, previous_squares):
    """The state after one step against full validation and recomputed squares."""
    lat = state.lattice
    assert PicardLattice(lat.gram, lat.labels, lat.canonical) == lat
    inertia, det = _signature(lat.gram)
    assert inertia == (1, lat.rank - 1) and abs(det) == 1
    k = lat.canonical
    assert lat.intersect(k, k) + lat.rank == 10    # true of every rational surface
    squares = {name: lat.intersect(d, d) for name, d in state.curves.items()}
    assert list(state.squares.items()) == list(squares.items())
    assert state.log[:len(previous_log)] == previous_log    # logged dicts never change
    entry = state.log[-1] if len(state.log) > len(previous_log) else None
    if entry is not None and "squares_after" in entry:
        assert list(entry["squares_before"].items()) == list(previous_squares.items())
        assert list(entry["squares_after"].items()) == list(squares.items())
    return copy.deepcopy(state.log), squares


def _replay_checked(initial, choose, count):
    """Replay one more step at a time, checking the state after each; the
    step at index i is choose(state after i steps, i)."""
    steps = []
    state = run(Script(initial, ()))
    log, squares = _check_state(state, [], {})
    for i in range(count):
        steps.append(choose(state, i))
        state = run(Script(initial, tuple(steps)))
        log, squares = _check_state(state, log, squares)


@pytest.mark.parametrize("script", [
    builtin_sigma0_singular(),
    builtin_sigma2_singular(),
    builtin_sigma_chain(6),
    builtin_standard_blowups(9),
], ids=["sigma0", "sigma2", "sigma-steps-6", "standard-9"])
def test_builtin_replays_match_full_validation(script):
    _replay_checked(script.initial, lambda state, i: script.steps[i], len(script.steps))


_INITIAL = st.one_of(
    st.builds(lambda d: InitialSurface(kind="P2", curves=(("C", (d,)),)), st.integers(1, 3)),
    st.builds(lambda n: InitialSurface(kind="Hirzebruch", n=n), st.integers(0, 4)),
)
# (op, pick, multiplicities): op 0 blows up, 1 contracts an exceptional curve,
# 2 renames; pick chooses the curve, the multiplicities go to the curves in order
_MOVES = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 50), st.lists(st.integers(0, 2), max_size=5)),
    max_size=10,
)


def _next_step(state, move, i):
    op, pick, mults = move
    names = list(state.curves)
    if op == 1:
        k = state.lattice.canonical
        exceptional = [name for name, d in state.curves.items()
                       if state.squares[name] == -1 and state.lattice.intersect(d, k) == -1]
        if exceptional:
            return ContractStep(curve=exceptional[pick % len(exceptional)])
    if op == 2:
        return RenameStep(old=names[pick % len(names)], new=f"R{i}")
    on = tuple((name, m) for name, m in zip(names, mults) if m)
    return BlowUpStep(point=f"p{i}", on=on, name=f"N{i}" if pick % 4 == 0 else None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(initial=_INITIAL, moves=_MOVES)
def test_random_surgery_chains_match_full_validation(initial, moves):
    _replay_checked(initial, lambda state, i: _next_step(state, moves[i], i), len(moves))


# cost of a replay ------------------------------------------------------------------

def _lattice_calls(monkeypatch, argv) -> Counter:
    calls = Counter()
    intersect, signature = PicardLattice.intersect, lattice._signature

    def counted_intersect(self, d1, d2):
        calls["intersect"] += 1
        return intersect(self, d1, d2)

    def counted_signature(gram):
        calls["_signature"] += 1
        return signature(gram)

    with monkeypatch.context() as patch:
        patch.setattr(PicardLattice, "intersect", counted_intersect)
        patch.setattr(lattice, "_signature", counted_signature)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    return calls


def test_standard_replay_makes_linearly_many_lattice_calls(monkeypatch):
    small = _lattice_calls(monkeypatch, ["replay", "--builtin", "standard", "--k", "40"])
    large = _lattice_calls(monkeypatch, ["replay", "--builtin", "standard", "--k", "80"])
    for name in ("intersect", "_signature"):
        assert 0 < large[name] <= 2 * small[name], (name, small, large)


def test_standard_replay_builds_the_dense_gram_once(monkeypatch):
    # blow-ups only count trailing exceptional coordinates; the JSON encoder
    # is the one reader of the dense Gram matrix
    builds = 0
    dense = PicardLattice.gram.func

    def counted(self):
        nonlocal builds
        builds += 1
        return dense(self)

    prop = cached_property(counted)
    prop.__set_name__(PicardLattice, "gram")
    with monkeypatch.context() as patch:
        patch.setattr(PicardLattice, "gram", prop)
        lat = lattice.p2_lattice()
        for _ in range(200):
            lat = lat.blow_up()
        assert builds == 0 and lat.signature() == (1, 200)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["replay", "--builtin", "standard", "--k", "200"]) == 0
        assert builds == 1


def _classes_built(monkeypatch, argv) -> int:
    """DivisorClass objects built by cli.main(argv), by either constructor."""
    built = 0
    post_init, of = DivisorClass.__post_init__, DivisorClass._of.__func__

    def counted_post_init(self):
        nonlocal built
        built += 1
        post_init(self)

    def counted_of(cls, coeffs):
        nonlocal built
        built += 1
        return of(cls, coeffs)

    with monkeypatch.context() as patch:
        patch.setattr(DivisorClass, "__post_init__", counted_post_init)
        patch.setattr(DivisorClass, "_of", classmethod(counted_of))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    return built


def test_standard_replay_builds_linearly_many_classes(monkeypatch):
    # a blow-up builds the classes it changes, not one per tracked curve
    small = _classes_built(monkeypatch, ["replay", "--builtin", "standard", "--k", "40"])
    large = _classes_built(monkeypatch, ["replay", "--builtin", "standard", "--k", "80"])
    assert 0 < large <= 2.2 * small, (small, large)


# large replays, beyond the golden deck's k = 38 and k = 24 -------------------------

@pytest.mark.parametrize("builtin, digest", [
    ("standard", "25dc97c2a59c032dd10d05100d927b8505d5e98bc798e8a24671c77161a03b48"),
    ("sigma-steps", "e9bb30b7f4863a3a6c733ab41998c2ff9528fdf2c398fe2f0e44c55cbdb3918b"),
])
def test_replay_at_the_largest_k_prints_the_pinned_output(builtin, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["replay", "--builtin", builtin, "--k", "200"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
