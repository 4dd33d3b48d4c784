"""Tolerance surface: which public entries take a tolerance, which module
constants are tolerances, the one rule that checks a tolerance, and
classify(tol=) against `cli --tol`."""

import ast
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from cp2lab import cli, dynamics, jsonio, lattice, linalg3, replay, su12
from cp2lab.su12 import AlgebraElement, classify, is_group_member, locate

from helpers import random_element

BAD_TOLERANCES = [math.nan, -1.0, 0.0, math.inf]
KINDS = ("elliptic", "hyperbolic", "rotational", "line_fixing", "three_step")


def _is_tolerance(name: str) -> bool:
    return name == "tol" or name.endswith("_tol") or name.endswith("rtol")


def _public_tolerance_keywords() -> set[str]:
    """"module.entry(keyword)" for every public function or method of the
    package that takes a tolerance keyword."""
    found = set()
    for module in (cli, dynamics, jsonio, lattice, linalg3, replay, su12):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                entries = [(name, obj)]
            elif inspect.isclass(obj):
                entries = [(f"{name}.{attr}", getattr(obj, attr)) for attr in vars(obj)
                           if not attr.startswith("_") and inspect.isroutine(getattr(obj, attr))]
            else:
                continue
            for entry, fn in entries:
                found.update(f"{module.__name__.split('.')[-1]}.{entry}({p})"
                             for p in inspect.signature(fn).parameters if _is_tolerance(p))
    return found


def test_public_tolerance_keywords_are_pinned():
    # a new tolerance keyword must be added here on purpose
    assert _public_tolerance_keywords() == {
        "linalg3.jordan_shape(tol)",
        "su12.locate(tol)",
        "su12.is_group_member(tol)",
        "su12.classify(tol)",
        "dynamics.converge(tol)",
    }


def _module_tolerances() -> set[str]:
    """"module.NAME" for every name ending in TOL (RTOL too) that a module of
    the package assigns at module level, private or public, read from its
    source so that imported names count once."""
    found = set()
    for path in Path(su12.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            found.update(f"{path.stem}.{t.id}" for t in targets
                         if isinstance(t, ast.Name) and t.id.endswith("TOL"))
    return found


def test_module_tolerances_are_pinned():
    # a new tolerance, or one deleted on purpose coming back, must be added
    # here on purpose
    assert _module_tolerances() == {
        "cli.ENV_TOL",
        "dynamics.DEFAULT_TOL",
        "dynamics.LINE_ANGLE_TOL",
        "linalg3.MERGE_TOL",
        "linalg3.PIVOT_RTOL",
        "su12.GROUP_TOL",
        "su12._COMPUTED_TOL",
        "su12.BOUNDARY_TOL",
        "su12._NORMAL_FORM_RESIDUAL_TOL",
    }


def _hyperbolic():
    return su12.GroupElement.exp(AlgebraElement.hyperbolic_normal(0.8, 0.3)).matrix


def _pt(v):
    return linalg3.ProjectivePoint.from_vector(v)


ENTRIES = {
    "jordan_shape": lambda tol: linalg3.jordan_shape(_hyperbolic(), tol=tol),
    "locate": lambda tol: locate(_pt([1, 1, 0]), tol=tol),
    "is_group_member": lambda tol: is_group_member(_hyperbolic(), tol=tol),
    "classify": lambda tol: classify(_hyperbolic(), tol=tol),
    "converge": lambda tol: dynamics.converge(_hyperbolic(), _pt([1, 0.2, 0.1]), tol=tol),
}


@pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=["nan", "-1", "0", "inf"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_tolerance_entry_refuses_an_invalid_tolerance(entry, tol):
    ENTRIES[entry](1e-6)  # the entry accepts a valid tolerance
    with pytest.raises(ValueError, match=r"^tol must be a finite number > 0, got "):
        ENTRIES[entry](tol)


def test_no_classify_verdict_comes_from_an_invalid_tolerance():
    # at NaN or inf the unit-modulus test that once decided the kind never
    # fired, and this hyperbolic element came out elliptic
    assert classify(_hyperbolic()).kind == su12.Kind.HYPERBOLIC
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError):
            classify(_hyperbolic(), tol=tol)


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_classify_tol_matches_cli_tol(tol, tmp_path, capsys):
    rng = np.random.default_rng(2006)
    path = tmp_path / "m.json"
    for kind in KINDS:
        for _ in range(3):
            m = random_element(rng, kind)
            report = jsonio.classification_report(classify(m, tol=tol))
            assert kind in (report["kind"], report["subtype"])
            path.write_text(json.dumps(jsonio.mat3_to_json(m)))
            assert cli.main(["--tol", repr(tol), "classify", str(path)]) == 0
            assert capsys.readouterr() == (json.dumps(report) + "\n", "")
