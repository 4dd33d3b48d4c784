"""Import graph: a subcommand loads only the layers it uses.

`import cp2lab` loads no submodule, and a lattice, replay or --help process
never loads numpy or the SU(1,2) layers, with a tolerance set or not.  A
`classify <matrix>` process loads su12 and linalg3 but neither numpy nor
dynamics; `classify --exp` loads numpy for mat_exp.  Each case runs in a
fresh interpreter, since the test process has loaded everything already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cp2lab
from cp2lab import AlgebraElement, mat_exp
from cp2lab.jsonio import mat3_to_json

SRC = str(Path(cp2lab.__file__).resolve().parents[1])
NUMERIC = ("numpy", "cp2lab.su12", "cp2lab.linalg3", "cp2lab.dynamics")

# runs `python -m cp2lab <argv>` and prints which NUMERIC modules it loaded
_PROBE = (
    "import json, runpy, sys\n"
    "argv, numeric = json.loads(sys.argv[1])\n"
    "sys.argv = ['cp2lab', *argv]\n"
    "try:\n"
    "    runpy.run_module('cp2lab', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "sys.stderr.write(json.dumps([code, [m for m in numeric if m in sys.modules]]) + '\\n')\n"
)

SCRIPT = {
    "initial": {"type": "P2", "curves": {"L": [1]}},
    "steps": [
        {"op": "blow_up", "point": "p", "on": [["L", 1]], "name": "E1"},
        {"op": "assert", "kind": "self_intersection", "curve": "L", "expected": 0},
    ],
}

EXPORTS = {
    "AlgebraElement", "BasinReport", "Cp2LabError", "DefiniteForm", "DivisorClass",
    "EigenData", "EigenPair", "ElementClassification", "FixedPoint", "FixedPointData",
    "GroupElement", "HyperbolicParams", "JordanShape", "Kind", "LatticeIsometry", "Location",
    "NormalForm", "OrbitResult", "ParabolicKind", "ParabolicParams", "PicardLattice",
    "ProjectiveLine", "ProjectivePoint", "PushforwardMap", "Script", "SurfaceState",
    "basin_coverage_check", "builtin_sigma0_singular", "builtin_sigma2_singular",
    "builtin_sigma_chain", "builtin_sigma_step", "builtin_standard_blowups", "chordal_distance",
    "classify", "conjugate_to_normal_form", "converge", "cubic_roots", "derivative_eigenvalues",
    "eig3", "enumerate_exceptional_classes", "find_contractible_component", "fixed_points",
    "hermitian_pairing", "hirzebruch_lattice", "is_group_member", "isometry_order_on_classes",
    "iterate", "jordan_shape", "line_intersection", "locate", "mat_exp", "p2_lattice",
    "q_value", "run", "script_from_json", "square_one_classes", "tangent_line",
}

EXACT_COMMANDS = [
    ["lattice", "signature", "--blowups", "8"],
    ["lattice", "signature", "--hirzebruch", "3"],
    ["lattice", "exceptional", "--blowups", "4", "--bound", "3"],
    ["lattice", "hirzebruch", "--n", "2"],
    ["lattice", "hirzebruch", "--n", "2", "--square-one", "--bound", "10"],
    ["replay", "--builtin", "standard", "--k", "5"],
    ["replay", "{script}"],
    ["--help"],
    ["basin", "--help"],
]


def _python(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    environ = {**os.environ, "PYTHONPATH": SRC, **(env or {})}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=environ, timeout=60)


def _probe(argv: list[str], tol: str) -> list[str]:
    """The NUMERIC modules a successful `python -m cp2lab <argv>` loads, with
    no tolerance, CP2LAB_TOL or --tol set."""
    env = {"CP2LAB_TOL": "1e-6"} if tol == "env" else {"CP2LAB_TOL": ""}
    if tol == "flag":
        argv = ["--tol", "1e-6", *argv]
    done = _python("-c", _PROBE, json.dumps([argv, NUMERIC]), env=env)
    code, loaded = json.loads(done.stderr.splitlines()[-1])
    assert code in (0, None), done.stderr
    return loaded


@pytest.mark.parametrize("tol", ["none", "env", "flag"])
@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=lambda argv: " ".join(argv))
def test_exact_subcommands_never_load_numpy(tmp_path, argv, tol):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(SCRIPT))
    argv = [script.as_posix() if a == "{script}" else a for a in argv]
    loaded = _probe(argv, tol)
    assert loaded == [], f"{argv} loaded {loaded}"


@pytest.mark.parametrize("tol", ["none", "env", "flag"])
def test_classify_of_a_matrix_never_loads_numpy(tmp_path, tol):
    member = tmp_path / "member.json"
    m = mat_exp(AlgebraElement.hyperbolic_normal(0.8, 0.3).matrix())
    member.write_text(json.dumps(mat3_to_json(m)))
    assert _probe(["classify", member.as_posix()], tol) == ["cp2lab.su12", "cp2lab.linalg3"]


def test_an_invalid_tolerance_is_refused_without_numpy():
    done = _python("-c", _PROBE, json.dumps([["lattice", "signature", "--blowups", "2"],
                                             NUMERIC]), env={"CP2LAB_TOL": "nan"})
    error, last = done.stderr.splitlines()[-2:]
    assert json.loads(error)["error"] == "usage"
    assert json.loads(last) == [2, []]


def test_import_cp2lab_loads_no_submodule():
    done = _python("-c", "import sys, cp2lab\n"
                         "print(sorted(m for m in sys.modules if m.startswith('cp2lab')))\n")
    assert done.stdout.strip() == "['cp2lab']", done.stderr


def test_the_export_list_is_pinned():
    assert set(cp2lab.__all__) == EXPORTS
    assert len(cp2lab.__all__) == 57
    assert EXPORTS <= set(dir(cp2lab))


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_an_export_is_its_module_attribute(name):
    value = getattr(cp2lab, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("cp2lab.")
    assert getattr(home, name) is value


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cp2lab.no_such_name
    assert not hasattr(cp2lab, "check_tol")


def test_star_import_binds_every_export():
    done = _python("-c", "from cp2lab import *\n"
                         f"missing = [n for n in {sorted(EXPORTS)!r} if n not in globals()]\n"
                         "print(missing)\n")
    assert done.stdout.strip() == "[]", done.stderr
