"""Scripted surgery: built-ins, JSON scripts, invariants, failure paths."""

import pytest

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
from cp2lab.errors import AssertionFailed, InputFormatError, NotExceptionalClass, UnknownName
from cp2lab.jsonio import lattice_to_json
from cp2lab.replay import InitialSurface, Script, state_to_json


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
