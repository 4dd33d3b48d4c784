"""Smoke test of the benchmark itself.

    python -m pytest -q bench/test_bench.py

Runs each workload once at a tiny size, untraced and traced, and checks that
every metric named in BENCHMARK.json is emitted with its unit; checks that
each oracle rejects a deliberately wrong answer; and checks that inputs are
a pure function of the seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"classify": {"per_kind": 1}, "basin": {"per_subtype": 1}, "orbit": {"blocks": 1},
        "lattice": {"halves": 1}}


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_emits_every_metric(workload):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        record = run.run(workload, seed=1, seconds=0, trace=trace, min_repeats=1,
                         setup_repeats=1, sizes=TINY[workload])
        assert record["correct"] and record["failed"] == 0, record["details"]["failures"]
        assert record["attempted"] >= 1
        got = {name: m["unit"] for name, m in record["metrics"].items()}
        assert got == _units(section)
        assert all(isinstance(m["value"], float) for m in record["metrics"].values())
        if not trace:
            assert all(m["value"] > 0 for m in record["metrics"].values())


def test_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.END_TO_END)
    assert set(_units("per_layer")) == set(run.per_layer_units())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_decks_leave_ten_ops_beyond_p90(workload):
    deck, _ = gen.build(workload, 3)
    assert len(deck.ops) >= 100


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    a, pa = gen.build(workload, 5, **TINY[workload])
    b, pb = gen.build(workload, 5, **TINY[workload])
    c, _ = gen.build(workload, 6, **TINY[workload])
    assert a.digest() == b.digest() and pa.digest() == pb.digest()
    assert a.files == b.files
    assert a.digest() != c.digest()


# oracles --------------------------------------------------------------------------

def _ok(payload) -> tuple:
    return 0, json.dumps(payload) + "\n", ""


def _err(rc: int, kind: str) -> tuple:
    return rc, "", json.dumps({"error": kind, "detail": "x"}) + "\n"


def _first(deck, group: str, key: str | None = None):
    return next(op for op in deck.ops if op.group == group and (key is None or key in op.expect))


def test_contract_shape_rejects_bad_streams():
    expect = {"rc": 0, "kind": "hyperbolic", "subtype": None}
    good = {"kind": "hyperbolic", "subtype": None}
    assert oracles.check_cli(expect, _ok(good)) is None
    assert oracles.check_cli(expect, (0, json.dumps(good) + "\n", "warning\n"))
    assert oracles.check_cli(expect, (0, "not json\n", ""))
    assert oracles.check_cli(expect, (0, json.dumps(good) + "\n" + json.dumps(good) + "\n", ""))
    assert oracles.check_cli(expect, (ValueError("boom"), "", ""))
    assert oracles.check_cli(expect, (3, "", ""))
    invalid = {"rc": 2, "error": "input"}
    assert oracles.check_cli(invalid, _err(2, "input")) is None
    assert oracles.check_cli(invalid, _err(1, "input"))
    assert oracles.check_cli(invalid, _err(2, "usage"))
    assert oracles.check_cli(invalid, (2, "", "Traceback\nValueError\n"))
    assert oracles.check_cli(invalid, (2, "{}\n", json.dumps({"error": "input"}) + "\n"))


def test_classify_oracle_rejects_wrong_kind():
    deck, _ = gen.build("classify", 1, per_kind=1)
    op = _first(deck, "rotational")
    assert oracles.check(op, _ok({"kind": "parabolic", "subtype": "rotational"})) is None
    assert oracles.check(op, _ok({"kind": "parabolic", "subtype": "three_step"}))
    assert oracles.check(op, _ok({"kind": "elliptic", "subtype": None}))
    bad = _first(deck, "invalid")
    assert oracles.check(bad, _ok({"kind": "elliptic", "subtype": None}))


def test_basin_oracle_rejects_unresolved_and_short_reports():
    deck, _ = gen.build("basin", 1, per_subtype=1)
    op = deck.ops[0]
    report = {"samples": 1100, "to_attractive": 1.0, "backward_to_repulsive": 0.0,
              "unresolved": 0, "seed": 0}
    assert oracles.check(op, _ok(report)) is None
    assert oracles.check(op, _ok({**report, "unresolved": 1}))
    assert oracles.check(op, _ok({**report, "samples": 1000}))


def test_orbit_oracle_rejects_divergence_and_far_limits():
    from cp2lab import OrbitResult, ProjectivePoint

    deck, _ = gen.build("orbit", 1, blocks=1)
    op = _first(deck, "hyperbolic")
    target = [complex(re, im) for re, im in op.expect["attractive"]]
    near = ProjectivePoint.from_vector(target)
    assert oracles.check(op, OrbitResult(True, near, 20, 1e-12)) is None
    assert oracles.check(op, OrbitResult(False, None, 10_000, 1e-3))
    far = ProjectivePoint.from_vector(np.array(target) + np.array([0.0, 0.0, 0.1]))
    assert oracles.check(op, OrbitResult(True, far, 20, 1e-12))
    assert oracles.check(op, RuntimeError("boom"))


def test_lattice_oracles_reject_wrong_answers():
    deck, _ = gen.build("lattice", 1, halves=1)
    exc = next(op for op in deck.ops if op.expect.get("blowups") == 2)
    right = [[0, 0, 1], [0, 1, 0], [1, -1, -1]]
    assert oracles.check(exc, _ok(right)) is None
    assert oracles.check(exc, _ok(right[:2]))
    assert oracles.check(exc, _ok([[0, 0, 1], [0, 1, 0], [1, -1, 0]]))
    assert oracles.check(exc, _ok([[0, 0, 1], [0, 0, 1], [1, -1, -1]]))
    assert oracles.check(exc, _ok([[0, 1, 0], [0, 0, 1], [1, -1, -1]]))

    sig = _first(deck, "signature")
    good = {"rank": sig.expect["rank"], "signature": sig.expect["signature"]}
    assert oracles.check(sig, _ok(good)) is None
    assert oracles.check(sig, _ok({**good, "signature": [1, 0]}))

    square_one = next(op for op in deck.ops if "square_one" in op.expect)
    n_is_one = square_one.call[1][3] == "1"
    assert oracles.check(square_one, _ok([[1, 1], [-1, -1]] if n_is_one else [])) is None
    assert oracles.check(square_one, _ok([] if n_is_one else [[1, 1], [-1, -1]]))

    hirz = _first(deck, "hirzebruch", "n")
    n = hirz.expect["n"]
    lat = {"labels": ["F", "B"], "gram": [[0, 1], [1, -n]], "K": [-(n + 2), -2]}
    assert oracles.check(hirz, _ok(lat)) is None
    assert oracles.check(hirz, _ok({**lat, "gram": [[0, 1], [1, -n - 1]]}))

    rep = next(op for op in deck.ops if op.expect.get("n_contractions") == 0)
    k = rep.expect["n_blowups"]
    state = {"lattice": {"gram": [[0] * (k + 1)] * (k + 1)}, "n_blowups": k, "n_contractions": 0}
    assert oracles.check(rep, _ok(state)) is None
    assert oracles.check(rep, _ok({**state, "n_blowups": k - 1}))
    assert oracles.check(rep, _ok({**state, "n_contractions": 1}))


def test_probes_expect_the_documented_contract():
    _, probes = gen.build("lattice", 1, halves=1)
    for op in probes.ops:
        assert oracles.check(op, _err(2, "input")) is None
        assert oracles.check(op, (ValueError("boom"), "", ""))
        assert oracles.check(op, _ok({"rank": 1, "signature": [1, 0]}))


def test_fails_without_the_package(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "classify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
