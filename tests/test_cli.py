"""Exit codes, JSON payloads and determinism of the command-line interface."""

import json

import numpy as np
import pytest

from cp2lab import AlgebraElement, ProjectivePoint, chordal_distance, mat_exp
from cp2lab import cli, dynamics
from cp2lab.cli import main
from cp2lab.jsonio import mat3_to_json

from helpers import conjugate, random_conjugator


@pytest.fixture
def run(capsys):
    def _run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _algebra_json(b1=0.0, b2=0.0, l1=0j, l2=0j, c=0j):
    return {
        "b1": b1, "b2": b2,
        "l1": [l1.real, l1.imag],
        "l2": [l2.real, l2.imag],
        "c": [c.real, c.imag],
    }


def _point_from_payload(entry):
    return ProjectivePoint.from_vector([complex(re, im) for re, im in entry])


def test_classify_hyperbolic_with_exp(run, tmp_path):
    path = _write_json(tmp_path / "alg.json", _algebra_json(b1=0.0, b2=0.0, l1=1.0 + 0j))
    code, out, err = run(["classify", path, "--exp"])
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "hyperbolic"
    pts = {name: _point_from_payload(report[name]) for name in ("attractive", "repulsive", "exterior")}
    targets = [
        ProjectivePoint.from_vector([1, 1, 0]),
        ProjectivePoint.from_vector([1, -1, 0]),
        ProjectivePoint.from_vector([0, 0, 1]),
    ]
    for target in targets:
        assert min(chordal_distance(p, target) for p in pts.values()) < 1e-8


def test_classify_identity_degenerate(run, tmp_path):
    identity = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(3)] for i in range(3)]
    path = _write_json(tmp_path / "id.json", identity)
    code, out, err = run(["classify", path])
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert "degenerate: every point fixed" in payload["detail"]


# elements 1e-6 away from a change of kind or Jordan shape, where the pivot
# tolerance cannot settle the rank of a - lambda I: (algebra element, kind)
NEAR_DEGENERATE = [
    (AlgebraElement.hyperbolic_normal(1e-6, 0.3), "hyperbolic"),
    (AlgebraElement(0.6, 0.6 + 1e-6, 0j, 0j, 0j), "elliptic"),
    (AlgebraElement(0.5 + 1e-6, 0.5 - 1e-6, 0j, 0j, 0j), "elliptic"),
]


@pytest.mark.parametrize("algebra, kind", NEAR_DEGENERATE)
def test_classify_undecidable_rank_is_ambiguous(run, tmp_path, algebra, kind):
    rng = np.random.default_rng(4242)
    base = mat_exp(algebra.matrix())
    for i in range(10):
        m = conjugate(base, random_conjugator(rng, 0.8))
        code, out, err = run(["classify", _write_json(tmp_path / f"m{i}.json", mat3_to_json(m))])
        if code == 0:
            assert json.loads(out)["kind"] == kind
        else:
            assert code == 1 and out == ""
            assert json.loads(err)["error"] == "AmbiguousClustering"


def test_classify_doubled_group_element_is_not_in_group(run, tmp_path):
    # 2 g for g the exponential of a scale-0.8 algebra element, as the
    # benchmark's invalid classify input
    rng = np.random.default_rng(12)
    for i in range(20):
        g = random_conjugator(rng, 0.8)
        code, out, err = run(["classify", _write_json(tmp_path / f"g{i}.json",
                                                      mat3_to_json(2.0 * g))])
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "NotInGroup"


@pytest.mark.parametrize("command", ["classify", "basin"])
def test_a_matrix_off_the_group_by_5e9_is_not_in_group(run, tmp_path, command):
    # a member at the computed-element tolerance 1e-7, not at GROUP_TOL, which
    # every entry applies to a caller's matrix
    m = mat_exp(AlgebraElement.hyperbolic_normal(0.8, 0.3).matrix())
    m[0, 2] += 5e-9
    code, out, err = run([command, _write_json(tmp_path / "m.json", mat3_to_json(m))])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "NotInGroup"


def _assert_domain_error(code, out, err, error):
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("command", ["classify", "basin"])
@pytest.mark.parametrize("l, error", [
    # the characteristic cubic's closed form would overflow
    (160, "AmbiguousClustering"),
    (300, "AmbiguousClustering"),
    # entries ~1e304 square past the float range: the check cannot decide
    (700, "NotInGroup"),
])
def test_huge_hyperbolic_elements_exit_one(run, tmp_path, command, l, error):
    m = mat_exp(AlgebraElement.hyperbolic_normal(l, 0.3).matrix())
    path = _write_json(tmp_path / "m.json", mat3_to_json(m))
    _assert_domain_error(*run([command, path]), error=error)


@pytest.mark.parametrize("diagonal", [(1e308, 1.0, 1.0), (1e300, 1e-300, 1.0)])
@pytest.mark.parametrize("command", ["classify", "basin"])
def test_matrices_too_large_for_the_check_are_not_in_group(run, tmp_path, command, diagonal):
    path = _write_json(tmp_path / "m.json", mat3_to_json(np.diag(diagonal)))
    _assert_domain_error(*run([command, path]), error="NotInGroup")


@pytest.mark.parametrize("algebra", [
    _algebra_json(b1=1e308, b2=1e308),
    _algebra_json(b1=1e200),
    _algebra_json(l1=800 + 0j),
])
def test_classify_exp_without_a_finite_exponential_is_not_in_group(run, tmp_path, algebra):
    path = _write_json(tmp_path / "alg.json", algebra)
    _assert_domain_error(*run(["classify", path, "--exp"]), error="NotInGroup")


def test_classify_three_step_subtype(run, tmp_path):
    path = _write_json(tmp_path / "alg.json",
                       _algebra_json(l2=1.0 + 0j, c=1.0 + 0j))
    code, out, _ = run(["classify", path, "--exp"])
    assert code == 0
    assert json.loads(out)["subtype"] == "three_step"


def test_classify_malformed_json(run, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = run(["classify", str(path)])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "input"


def test_classify_missing_file(run, tmp_path):
    code, _, err = run(["classify", str(tmp_path / "missing.json")])
    assert code == 2


def test_basin_hyperbolic_report(run, tmp_path):
    m = mat_exp(AlgebraElement.hyperbolic_normal(0.8, 0.2).matrix())
    path = _write_json(tmp_path / "mat.json", mat3_to_json(m))
    code, out, _ = run(["basin", path, "--samples", "1000", "--seed", "42"])
    assert code == 0
    report = json.loads(out)
    assert report["unresolved"] == 0
    assert report["seed"] == 42
    assert report["samples"] == 1100
    assert set(report) == {"samples", "to_attractive", "backward_to_repulsive", "unresolved", "seed"}


def test_basin_deterministic_output(run, tmp_path):
    m = mat_exp(AlgebraElement.hyperbolic_normal(1.1, -0.4).matrix())
    path = _write_json(tmp_path / "mat.json", mat3_to_json(m))
    args = ["basin", path, "--samples", "500", "--seed", "7"]
    code1, out1, _ = run(args)
    code2, out2, _ = run(args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_main_leaves_the_numpy_error_state_alone(run, tmp_path):
    m = mat_exp(AlgebraElement.hyperbolic_normal(0.9, 0.3).matrix())
    path = _write_json(tmp_path / "mat.json", mat3_to_json(m))
    # exp(l1 = 800) overflows: refused as NotInGroup, with no warning or FloatingPointError
    big = _write_json(tmp_path / "big.json", _algebra_json(l1=800.0))
    with np.errstate(divide="warn", over="raise", under="print", invalid="call"):
        before = np.geterr()
        for argv in (["basin", path, "--samples", "200", "--seed", "3"], ["classify", path],
                     ["classify", "--exp", big]):
            code, out, err = run(argv)
            if argv[1] == "--exp":
                assert code == 1 and out == "" and len(err.splitlines()) == 1
                assert json.loads(err)["error"] == "NotInGroup"
            else:
                assert code == 0 and json.loads(out) and err == ""
            assert np.geterr() == before


def test_basin_rejects_elliptic(run, tmp_path):
    m = mat_exp(AlgebraElement(0.9, -0.4, 0j, 0j, 0j).matrix())
    path = _write_json(tmp_path / "ell.json", mat3_to_json(m))
    code, out, err = run(["basin", path, "--samples", "10"])
    assert code == 1
    assert json.loads(err)["error"] == "NotNonElliptic"


@pytest.mark.parametrize("flags", [
    ["--seed", "-1"],
    ["--seed", str(2**128)],
    ["--samples", "-5"],
    ["--line-samples", "-3"],
    ["--max-iter", "-1"],
    ["--max-iter", "7"],
])
def test_basin_rejects_bad_arguments(run, tmp_path, flags):
    m = mat_exp(AlgebraElement.hyperbolic_normal(0.8, 0.2).matrix())
    path = _write_json(tmp_path / "mat.json", mat3_to_json(m))
    code, out, err = run(["basin", path, "--samples", "20", *flags])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "usage"


def test_basin_accepts_extreme_seeds(run, tmp_path):
    m = mat_exp(AlgebraElement.hyperbolic_normal(0.8, 0.2).matrix())
    path = _write_json(tmp_path / "mat.json", mat3_to_json(m))
    for seed in (0, 2**63, 2**128 - 1):
        code, out, _ = run(["basin", path, "--samples", "20", "--seed", str(seed)])
        assert code == 0
        report = json.loads(out)
        assert report["seed"] == seed and report["samples"] == 22


@pytest.mark.parametrize("flags", [
    ["--samples", str(10**13)],
    ["--line-samples", str(10**13)],
    ["--samples", "1000001", "--line-samples", "0"],
])
def test_basin_sample_totals_above_the_cap_are_refused(run, tmp_path, flags):
    assert cli.MAX_BASIN_SAMPLES == 10**6
    m = mat_exp(AlgebraElement.hyperbolic_normal(0.8, 0.2).matrix())
    path = _write_json(tmp_path / "mat.json", mat3_to_json(m))
    _assert_usage_error(*run(["basin", path, *flags]))


def test_basin_sample_total_at_the_cap_passes_the_guard(run, tmp_path):
    # an elliptic element fails in classification, before anything is sampled
    m = mat_exp(AlgebraElement(0.9, -0.4, 0j, 0j, 0j).matrix())
    path = _write_json(tmp_path / "ell.json", mat3_to_json(m))
    code, out, err = run(["basin", path, "--samples", str(10**6), "--line-samples", "0"])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "NotNonElliptic"


def test_basin_max_iter_above_the_cap_is_refused(run, tmp_path):
    assert cli.MAX_BASIN_ITER == 10**6
    m = mat_exp(AlgebraElement.hyperbolic_normal(0.8, 0.2).matrix())
    path = _write_json(tmp_path / "mat.json", mat3_to_json(m))
    _assert_usage_error(*run(["basin", path, "--samples", "20",
                              "--max-iter", str(cli.MAX_BASIN_ITER + 1)]))


def test_basin_max_iter_at_the_cap_passes(run, tmp_path):
    # every hyperbolic sample is captured within a few strides of the budget
    m = mat_exp(AlgebraElement.hyperbolic_normal(0.8, 0.2).matrix())
    path = _write_json(tmp_path / "mat.json", mat3_to_json(m))
    code, out, err = run(["basin", path, "--samples", "200", "--max-iter", str(cli.MAX_BASIN_ITER)])
    assert code == 0 and err == ""
    assert json.loads(out)["unresolved"] == 0


@pytest.mark.parametrize("argv", [["--help"], ["basin", "--help"],
                                  ["lattice", "exceptional", "--help"], ["replay", "--help"]],
                         ids=" ".join)
def test_help_states_the_limits_by_value(capsys, argv):
    # every number comes from the cli's constants and dynamics' default; the
    # names of those constants and of internal functions never show
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    internal = [name for name in vars(cli) if name.isupper() and name != "ENV_TOL"]
    for name in internal + ["DEFAULT_MAX_ITER", "check_tol", "errors.", "dynamics."]:
        assert name not in text, name
    expected = {
        "--help": [f"at most {cli.MAX_BLOWUPS}", f"more than {cli.MAX_BASIN_SAMPLES:,} samples",
                   f"above {cli.MAX_BASIN_ITER:,}", f"more than {cli.MAX_EXCEPTIONAL_LEAVES:,} "],
        "basin": ["(default: 1000)", "(default: samples // 10)", "(default: 0)",
                  f"at most {cli.MAX_BASIN_ITER:,} (default: {dynamics.DEFAULT_MAX_ITER:,})"],
        "lattice": [f"at most {cli.MAX_BLOWUPS}"],
        "replay": [f"at most {cli.MAX_BLOWUPS}"],
    }[argv[0]]
    for phrase in expected:
        assert phrase in text, phrase


def test_basin_max_iter_defaults_to_the_library_default():
    args = cli._parser().parse_args(["basin", "m.json"])
    assert args.max_iter == dynamics.DEFAULT_MAX_ITER


def test_lattice_square_one(run):
    code, out, _ = run(["lattice", "hirzebruch", "--n", "1", "--square-one"])
    assert code == 0
    assert json.loads(out) == [[1, 1], [-1, -1]]
    code, out, _ = run(["lattice", "hirzebruch", "--n", "2", "--square-one"])
    assert code == 0
    assert json.loads(out) == []


def test_lattice_hirzebruch_description(run):
    code, out, _ = run(["lattice", "hirzebruch", "--n", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["labels"] == ["F", "B"]
    assert payload["gram"] == [[0, 1], [1, -3]]
    assert payload["K"] == [-5, -2]


def test_lattice_exceptional(run):
    code, out, _ = run(["lattice", "exceptional", "--blowups", "2", "--bound", "3"])
    assert code == 0
    classes = [tuple(c) for c in json.loads(out)]
    assert sorted(classes) == [(0, 0, 1), (0, 1, 0), (1, -1, -1)]


def test_lattice_signature(run):
    code, out, _ = run(["lattice", "signature", "--blowups", "6"])
    assert code == 0
    assert json.loads(out)["signature"] == [1, 6]
    code, out, _ = run(["lattice", "signature", "--hirzebruch", "4"])
    assert json.loads(out)["signature"] == [1, 1]


def test_lattice_bad_flags(run):
    code, out, err = run(["lattice", "hirzebruch"])
    assert code == 2


def _assert_usage_error(code, out, err, error="usage"):
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("argv", [
    ["lattice", "hirzebruch", "--n", "-1"],
    ["lattice", "hirzebruch", "--n", "1", "--square-one", "--bound", "-1"],
    ["lattice", "signature", "--blowups", "-3"],
    ["lattice", "signature", "--hirzebruch", "-2"],
    ["lattice", "exceptional", "--blowups", "-1"],
    ["lattice", "exceptional", "--blowups", "3", "--bound", "-1"],
    ["lattice", "exceptional", "--blowups", "x"],
    ["replay", "--builtin", "standard", "--k", "-1"],
])
def test_lattice_rejects_negative_counts(run, argv):
    _assert_usage_error(*run(argv))


@pytest.mark.parametrize("argv", [
    ["lattice", "signature", "--blowups", "201"],
    ["lattice", "exceptional", "--blowups", "201", "--bound", "0"],
    ["replay", "--builtin", "standard", "--k", "201"],
    ["replay", "--builtin", "sigma-steps", "--k", "201"],
])
def test_blowup_counts_above_the_cap_are_refused(run, argv):
    assert cli.MAX_BLOWUPS == 200
    _assert_usage_error(*run(argv))


def test_blowup_counts_at_the_cap_are_accepted(run):
    code, out, _ = run(["lattice", "signature", "--blowups", "200"])
    assert code == 0
    assert json.loads(out) == {"rank": 201, "signature": [1, 200]}
    code, out, _ = run(["lattice", "exceptional", "--blowups", "200", "--bound", "0"])
    assert code == 0
    assert json.loads(out) == []
    code, out, _ = run(["replay", "--builtin", "sigma-steps", "--k", "200"])
    assert code == 0
    assert json.loads(out)["n_blowups"] == 200


@pytest.mark.parametrize("blowups, bound", [(8, 6), (10, 2), (14, 1), (10**12, 1)])
def test_lattice_exceptional_refuses_costly_scans(run, blowups, bound):
    # (2 bound + 1)^(blowups - 1) leaves above cli.MAX_EXCEPTIONAL_LEAVES
    _assert_usage_error(*run(["lattice", "exceptional", "--blowups", str(blowups),
                              "--bound", str(bound)]))


def test_lattice_exceptional_accepts_scans_within_the_limit(run):
    # 7^6 = 117,649 leaves: 56 classes, the lines, conics and exceptional curves
    code, out, _ = run(["lattice", "exceptional", "--blowups", "7", "--bound", "3"])
    assert code == 0
    assert len(json.loads(out)) == 56
    code, out, _ = run(["lattice", "exceptional", "--blowups", "0", "--bound", "10"])
    assert code == 0
    assert json.loads(out) == []


@pytest.mark.parametrize("script", [
    {"initial": {"type": "P2", "curves": [["L", [1]]]}, "steps": []},
    {"initial": {"type": "P2"}, "steps": [{"op": "assert", "kind": "intersection", "expected": 1}]},
    {"initial": {"type": "P2"}, "steps": [{"op": "assert", "kind": "gram", "expected": [[1]]}]},
    {"initial": {"type": "P2"},
     "steps": [{"op": "assert", "kind": "intersection", "curves": ["H"], "expected": 1}]},
    # a string is not a list of names, even when its letters are curve names
    {"initial": {"type": "P2", "curves": {"A": [1], "B": [1]}},
     "steps": [{"op": "assert", "kind": "intersection", "curves": "AB", "expected": 1}]},
    {"initial": {"type": "P2"},
     "steps": [{"op": "assert", "kind": "gram", "curves": [1, 2], "expected": [[1]]}]},
    {"initial": {"type": "P2"},
     "steps": [{"op": "assert", "kind": "gram", "curves": {"H": 1}, "expected": [[1]]}]},
])
def test_replay_rejects_malformed_curve_lists(run, tmp_path, script):
    path = _write_json(tmp_path / "script.json", script)
    _assert_usage_error(*run(["replay", path]), error="input")


@pytest.mark.parametrize("script", [
    # JSON 1e400 parses as inf, which no integer holds
    '{"initial": {"type": "P2", "curves": {"L": [1]}}, '
    '"steps": [{"op": "blow_up", "point": "x", "on": [["L", 1e400]]}]}',
    '{"initial": {"type": "Hirzebruch", "n": 1e400}, "steps": []}',
    '{"initial": {"type": "P2", "curves": {"L": [1e400]}}, "steps": []}',
], ids=["on-multiplicity", "initial-n", "curve-coefficient"])
def test_replay_rejects_infinite_integers(run, tmp_path, script):
    path = tmp_path / "script.json"
    path.write_text(script)
    _assert_usage_error(*run(["replay", str(path)]), error="input")


@pytest.mark.parametrize("value", [1.9, 2.0, "1", True], ids=["fraction", "float", "string", "true"])
@pytest.mark.parametrize("field", ["on-multiplicity", "initial-n", "curve-coefficient"])
def test_replay_rejects_integers_that_are_not_json_integers(run, tmp_path, field, value):
    # int() would round 1.9 to 1 and take "1" and true as 1
    initial = {"type": "P2", "curves": {"L": [1]}}
    steps = [{"op": "blow_up", "point": "x", "on": [["L", 1]]}]
    if field == "on-multiplicity":
        steps[0]["on"] = [["L", value]]
    elif field == "initial-n":
        initial = {"type": "Hirzebruch", "n": value}
        steps = []
    else:
        initial["curves"] = {"L": [value]}
    path = _write_json(tmp_path / "script.json", {"initial": initial, "steps": steps})
    _assert_usage_error(*run(["replay", path]), error="input")


@pytest.mark.parametrize("field", ["matrix", "b1", "b2", "l1", "c"])
def test_classify_rejects_json_booleans_as_numbers(run, tmp_path, field):
    # JSON true loads as a Python bool, which is an int
    if field == "matrix":
        path = _write_json(tmp_path / "m.json", [[[True, False]] * 3] * 3)
        argv = ["classify", path]
    else:
        algebra = _algebra_json()
        if field in ("b1", "b2"):
            algebra[field] = True
        else:
            algebra[field] = [True, 0.0]
        argv = ["classify", _write_json(tmp_path / "alg.json", algebra), "--exp"]
    _assert_usage_error(*run(argv), error="input")


@pytest.mark.parametrize("field", ["matrix-classify", "matrix-basin", "b1", "l1"])
def test_integers_past_the_float_range_are_input_errors(run, tmp_path, field):
    # complex() and float() of 10**400 raise OverflowError
    if field.startswith("matrix"):
        rows = mat3_to_json(np.eye(3))
        rows[2][2] = [10**400, 0]
        argv = [field.split("-")[1], _write_json(tmp_path / "m.json", rows)]
    else:
        algebra = _algebra_json()
        algebra[field] = 10**400 if field == "b1" else [10**400, 0]
        argv = ["classify", _write_json(tmp_path / "alg.json", algebra), "--exp"]
    _assert_usage_error(*run(argv), error="input")


@pytest.mark.parametrize("command", ["classify", "basin"])
def test_a_non_finite_matrix_entry_is_an_input_error(run, tmp_path, command):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(mat3_to_json(np.eye(3))).replace("1.0", "NaN", 1))
    _assert_usage_error(*run([command, str(path)]), error="input")


@pytest.mark.parametrize("content", [
    b"\xff\xfe[1]",                  # not UTF-8
    b"[" * 100_000 + b"]" * 100_000,  # nested past the decoder's recursion limit
    b"[" + b"1" * 5000 + b"]",       # an integer past Python's 4,300-digit limit
], ids=["not-utf8", "deep", "long-integer"])
@pytest.mark.parametrize("command", ["classify", "replay"])
def test_unreadable_json_is_an_input_error(run, tmp_path, content, command):
    path = tmp_path / "in.json"
    path.write_bytes(content)
    _assert_usage_error(*run([command, str(path)]), error="input")


@pytest.mark.parametrize("kind, bad, good", [
    ("rank", True, 1), ("k_squared", 9.0, 9), ("signature", [1.0, False], [1, 0]),
], ids=["rank-true", "k_squared-float", "signature-float-and-false"])
def test_replay_assert_expected_must_be_exact_integers(run, tmp_path, kind, bad, good):
    # `!=` once let true pass as 1, 9.0 as 9 and [1.0, false] as [1, 0]
    def script(expected):
        steps = [{"op": "assert", "kind": kind, "expected": expected}]
        return _write_json(tmp_path / "script.json", {"initial": {"type": "P2"}, "steps": steps})

    _assert_usage_error(*run(["replay", script(bad)]), error="input")
    code, out, err = run(["replay", script(good)])
    assert (code, err) == (0, "")
    assert json.loads(out)["log"] == [{"step": 0, "op": "assert", "kind": kind, "value": good}]


def test_replay_builtin_sigma0(run):
    code, out, _ = run(["replay", "--builtin", "sigma0"])
    assert code == 0
    state = json.loads(out)
    curves = {k: tuple(v) for k, v in state["curves"].items()}
    lat = state["lattice"]
    gram = {(a, b): sum(curves[a][i] * lat["gram"][i][j] * curves[b][j]
                        for i in range(2) for j in range(2))
            for a in curves for b in curves}
    assert gram[("E1", "E1")] == 0
    assert gram[("E2", "E2")] == 0
    assert gram[("E1", "E2")] == 1


def test_replay_builtin_sigma2(run):
    code, out, _ = run(["replay", "--builtin", "sigma2"])
    assert code == 0
    state = json.loads(out)
    assert "F" in state["curves"] and "B" in state["curves"]


def test_replay_builtin_sigma_steps(run):
    code, out, _ = run(["replay", "--builtin", "sigma-steps", "--k", "4"])
    assert code == 0
    state = json.loads(out)
    curves = {k: tuple(v) for k, v in state["curves"].items()}
    lat = state["lattice"]["gram"]
    b = curves["B"]
    value = sum(b[i] * lat[i][j] * b[j] for i in range(2) for j in range(2))
    assert value == -6


def test_replay_script_failure_exit_one(run, tmp_path):
    script = {
        "initial": {"type": "P2", "curves": {"L": [1]}},
        "steps": [
            {"op": "blow_up", "point": "p1", "on": [["L", 1]]},
            {"op": "contract", "curve": "L"},
        ],
    }
    path = _write_json(tmp_path / "script.json", script)
    code, out, err = run(["replay", path])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "NotExceptionalClass"


def test_replay_assert_failure_details(run, tmp_path):
    script = {
        "initial": {"type": "P2"},
        "steps": [{"op": "assert", "kind": "rank", "expected": 3}],
    }
    path = _write_json(tmp_path / "script.json", script)
    code, out, err = run(["replay", path])
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "AssertionFailed"
    assert payload["expected"] == 3 and payload["got"] == 1


def test_replay_unknown_builtin(run):
    code, out, err = run(["replay", "--builtin", "nonsense"])
    assert code == 2


def test_replay_needs_exactly_one_source(run):
    code, _, _ = run(["replay"])
    assert code == 2


def test_tol_env_override(run, tmp_path, monkeypatch):
    monkeypatch.setenv("CP2LAB_TOL", "1e-6")
    m = mat_exp(AlgebraElement.hyperbolic_normal(0.5, 0.1).matrix())
    path = _write_json(tmp_path / "mat.json", mat3_to_json(m))
    code, out, _ = run(["classify", path])
    assert code == 0
    assert json.loads(out)["kind"] == "hyperbolic"


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1e-6", "0"])
def test_tol_must_be_finite_and_positive(run, tmp_path, monkeypatch, value):
    m = mat_exp(AlgebraElement.hyperbolic_normal(0.8, 0.5).matrix())
    path = _write_json(tmp_path / "mat.json", mat3_to_json(m))
    _assert_usage_error(*run(["--tol", value, "classify", path]))
    monkeypatch.setenv("CP2LAB_TOL", value)
    _assert_usage_error(*run(["classify", path]))
    # an explicit --tol takes precedence over the environment
    code, out, _ = run(["--tol", "1e-6", "classify", path])
    assert code == 0
    assert json.loads(out)["kind"] == "hyperbolic"


def test_basin_output_does_not_depend_on_the_tolerance(run, tmp_path, monkeypatch):
    # --tol and CP2LAB_TOL set classify's tolerances; basin only validates them
    rng = np.random.default_rng(4242 + 5)
    m = conjugate(mat_exp(AlgebraElement.parabolic_normal(0.7, 0.5, 0.4 + 0.2j).matrix()),
                  random_conjugator(rng, 0.8))
    path = _write_json(tmp_path / "mat.json", mat3_to_json(m))
    argv = ["basin", path, "--samples", "300", "--seed", "3"]
    code, out, err = run(argv)
    assert code == 0 and err == ""
    assert run(["--tol", "1e-3", *argv]) == (0, out, "")
    monkeypatch.setenv("CP2LAB_TOL", "1e-12")
    assert run(argv) == (0, out, "")
    _assert_usage_error(*run(["--tol", "nan", *argv]))


def test_tol_env_is_read_on_every_call(run, tmp_path, monkeypatch):
    m = mat_exp(AlgebraElement.hyperbolic_normal(0.5, 0.1).matrix())
    path = _write_json(tmp_path / "mat.json", mat3_to_json(m))
    monkeypatch.setenv("CP2LAB_TOL", "abc")
    assert run(["classify", path])[0] == 2
    monkeypatch.setenv("CP2LAB_TOL", "1e-6")
    assert run(["classify", path])[0] == 0
    monkeypatch.delenv("CP2LAB_TOL")
    assert run(["classify", path])[0] == 0
