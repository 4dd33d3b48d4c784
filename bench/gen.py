"""Seeded inputs for the four workloads.

The program under test never sees the seed: it sees the files written here
and the argument lists built here.  Group elements are drawn the way the
test suite draws them (normal forms conjugated by the exponential of a
random algebra element at scale 0.8), but through this module's own copy of
the algebra, the exponential and the normal forms, so that a change to the
package cannot change the benchmark's inputs.

Each workload is a *deck*: a list of operations whose composition by kind
is fixed and whose parameters and order come from the seed.  The parameter
that sets an operation's cost (translation length, rotation, start point)
is drawn stratified, so that two seeds give decks of nearly the same cost.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CONJUGATOR_SCALE = 0.8
BASIN_TOTAL = 1100   # CLI defaults: 1,000 ball samples plus samples // 10 line samples
PARABOLIC = ("rotational", "line_fixing", "three_step")

# orbit workload: per-kind stopping tolerance for converge() and the chordal
# radius within which the reported limit must lie from the attractive point.
# Over 200 draws per kind these orbits from the ball took at most 76,
# 827 and 904 steps, well inside the default 10,000-step budget, and the
# line-fixing limits (projections onto the fixed line) lay within 4.7e-3.
# Rotational orbits are left out: their step counts are heavy-tailed (median
# 51, maximum 5,326 at tol 1e-2; some exhaust the budget at tol 3e-3), so
# no stated tol converges at every seed.  A probe reports that case.
ORBIT_TOL = {"hyperbolic": 1e-10, "line_fixing": 1e-5, "three_step": 1e-5}
ORBIT_RADIUS = {"hyperbolic": 1e-8, "line_fixing": 1e-2, "three_step": 1e-8}

# number of exceptional classes on the blow-up of the plane at k points
EXCEPTIONAL_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27}


@dataclass
class Op:
    """One operation of a deck.

    call is ("cli", argv) for an in-process cli.main call, or
    ("converge", file, index) for dynamics.converge on entry `index` of an
    orbit input file.
    expect holds what the oracle needs; group labels the op in reports.
    """

    call: tuple
    group: str
    expect: dict = field(default_factory=dict)


@dataclass
class Deck:
    ops: list[Op]
    files: dict[str, bytes]             # relative path -> contents

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode())
            h.update(b"\0")
            h.update(self.files[name])
            h.update(b"\0")
        h.update(json.dumps([[op.call, op.group, op.expect] for op in self.ops],
                            sort_keys=True).encode())
        return h.hexdigest()

    def write(self, root: Path) -> None:
        for name, data in self.files.items():
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)


# algebra, exponential and normal forms (independent of the package) ----------

def algebra_matrix(b1: float, b2: float, l1: complex, l2: complex, c: complex) -> np.ndarray:
    return np.array(
        [
            [-1j * (b1 + b2), l1, l2],
            [np.conj(l1), 1j * b1, c],
            [np.conj(l2), -np.conj(c), 1j * b2],
        ],
        dtype=complex,
    )


def algebra_params(x: np.ndarray) -> dict:
    """Inverse of algebra_matrix, in the CLI's keyed JSON schema."""
    return {
        "b1": float(x[1, 1].imag),
        "b2": float(x[2, 2].imag),
        "l1": [float(x[0, 1].real), float(x[0, 1].imag)],
        "l2": [float(x[0, 2].real), float(x[0, 2].imag)],
        "c": [float(x[1, 2].real), float(x[1, 2].imag)],
    }


def expm(a: np.ndarray) -> np.ndarray:
    """Scaling and squaring with a degree-18 Taylor polynomial."""
    norm = float(np.abs(a).sum(axis=1).max())
    s = max(0, int(math.ceil(math.log2(norm / 0.25)))) if norm > 0.25 else 0
    x = a / 2.0 ** s
    eye = np.eye(3, dtype=complex)
    r = eye.copy()
    for k in range(18, 0, -1):
        r = eye + (x @ r) / k
    for _ in range(s):
        r = r @ r
    return r


def hyperbolic_normal(l: float, b: float) -> np.ndarray:
    """Algebra element whose exponential attracts to [1:1:0] (l > 0)."""
    return algebra_matrix(b, -2.0 * b, complex(l), 0j, 0j)


def parabolic_normal(d1: float, d2: float, c: complex) -> np.ndarray:
    """Algebra element whose exponential fixes the boundary point [1:1:0]."""
    return algebra_matrix(d1, d2, 1j * (d1 + d2 / 2.0), c, c)


def elliptic_normal(b1: float, b2: float) -> np.ndarray:
    return algebra_matrix(b1, b2, 0j, 0j, 0j)


NORMAL_ATTRACTIVE = np.array([1.0, 1.0, 0.0], dtype=complex)


def random_algebra(rng: np.random.Generator, scale: float) -> np.ndarray:
    v = rng.uniform(-scale, scale, size=8)
    return algebra_matrix(v[0], v[1], complex(v[2], v[3]), complex(v[4], v[5]),
                          complex(v[6], v[7]))


def stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> list[float]:
    """n draws from [lo, hi], one per equal-width stratum, in random order."""
    cells = rng.permutation(n)
    return [lo + (hi - lo) * (float(c) + float(rng.uniform())) / n for c in cells]


def signed(rng: np.random.Generator, magnitude: float) -> float:
    return magnitude if rng.uniform() < 0.5 else -magnitude


def draw_normal(rng: np.random.Generator, kind: str, u: float) -> np.ndarray:
    """Normal-form algebra element of the given kind; u in [0, 1) sets the
    parameter that most affects cost (translation length, rotation)."""
    if kind == "hyperbolic":
        return hyperbolic_normal(0.3 + 1.2 * u, float(rng.uniform(-np.pi, np.pi)))
    if kind == "elliptic":
        return elliptic_normal(0.5 + u, float(rng.uniform(-1.5, -0.5)))
    d1 = signed(rng, float(rng.uniform(0.3, 1.5)))
    if kind == "rotational":
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return parabolic_normal(d1, signed(rng, 0.3 + 1.2 * u), c)
    if kind == "line_fixing":
        return parabolic_normal(signed(rng, 0.3 + 1.2 * u), 0.0, 0j)
    if kind == "three_step":
        phase = rng.uniform(0, 2 * np.pi)
        return parabolic_normal(d1, 0.0, complex(np.cos(phase), np.sin(phase)) * (0.3 + 1.2 * u))
    raise ValueError(kind)


def conjugated(rng: np.random.Generator, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g x g^-1, g) for a random conjugator g = exp(random algebra element)."""
    g = expm(random_algebra(rng, CONJUGATOR_SCALE))
    return g @ x @ np.linalg.inv(g), g


def ball_point(rng: np.random.Generator, u: float) -> np.ndarray:
    """Point of the unit ball in the affine chart x0 = 1 at radius u**(1/4),
    so that u uniform on [0, 1) gives a uniform point of the ball."""
    v = rng.standard_normal(4)
    v *= u ** 0.25 / np.linalg.norm(v)
    return np.array([1.0, complex(v[0], v[1]), complex(v[2], v[3])], dtype=complex)


def mat_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def dump(obj) -> bytes:
    return (json.dumps(obj) + "\n").encode()


def _shuffled(rng: np.random.Generator, ops: list[Op]) -> list[Op]:
    return [ops[i] for i in rng.permutation(len(ops))]


# classify --------------------------------------------------------------------

CLASSIFY_KINDS = ("elliptic", "hyperbolic") + PARABOLIC
_EXPECTED_CLASS = {
    "elliptic": ("elliptic", None),
    "hyperbolic": ("hyperbolic", None),
    "rotational": ("parabolic", "rotational"),
    "line_fixing": ("parabolic", "line_fixing"),
    "three_step": ("parabolic", "three_step"),
}


def classify_deck(rng: np.random.Generator, per_kind: int = 12) -> Deck:
    """per_kind elements of each of the five kinds, each as a matrix file and
    as an algebra-element file for --exp, plus a small invalid slice."""
    files: dict[str, bytes] = {}
    ops: list[Op] = []
    for kind in CLASSIFY_KINDS:
        for i, u in enumerate(stratified(rng, per_kind, 0.0, 1.0)):
            x, _ = conjugated(rng, draw_normal(rng, kind, u))
            kind_name, subtype = _EXPECTED_CLASS[kind]
            expect = {"rc": 0, "kind": kind_name, "subtype": subtype}
            mat_file = f"classify/{kind}-{i}.json"
            alg_file = f"classify/{kind}-{i}.alg.json"
            files[mat_file] = dump(mat_json(expm(x)))
            files[alg_file] = dump(algebra_params(x))
            ops.append(Op(("cli", ["classify", mat_file]), kind, expect))
            ops.append(Op(("cli", ["classify", "--exp", alg_file]), kind, expect))
    # invalid slice: every entry has a documented exit code and error kind
    g = expm(random_algebra(rng, CONJUGATOR_SCALE))
    invalid = {
        "classify/bad-json.json": (b'[[[1, 0], [0, 0]', [], 2, "input"),
        "classify/bad-shape.json": (dump([[[1.0, 0.0], [0.0, 0.0]]]), [], 2, "input"),
        "classify/not-in-group.json": (dump(mat_json(2.0 * g)), [], 1, "NotInGroup"),
        "classify/bad-algebra.json": (dump({"b1": 0.5, "b2": 0.1}), ["--exp"], 2, "input"),
    }
    for name, (data, flags, rc, error) in invalid.items():
        files[name] = data
        ops.append(Op(("cli", ["classify", *flags, name]), "invalid", {"rc": rc, "error": error}))
    ops.append(Op(("cli", ["classify"]), "invalid", {"rc": 2, "error": "usage"}))
    ops.append(Op(("cli", ["classify", "classify/missing.json"]), "invalid",
                  {"rc": 2, "error": "input"}))
    return Deck(_shuffled(rng, ops), files)


# basin -----------------------------------------------------------------------

def basin_deck(rng: np.random.Generator, per_subtype: int = 17) -> Deck:
    """Half hyperbolic, half parabolic split evenly over the three subtypes,
    at the CLI's default sample counts (criterion-5 recipe)."""
    files: dict[str, bytes] = {}
    ops: list[Op] = []
    kinds = ["hyperbolic"] * (3 * per_subtype) + [k for k in PARABOLIC for _ in range(per_subtype)]
    us = {k: iter(stratified(rng, kinds.count(k), 0.0, 1.0)) for k in dict.fromkeys(kinds)}
    for i, kind in enumerate(kinds):
        x, _ = conjugated(rng, draw_normal(rng, kind, next(us[kind])))
        name = f"basin/{kind}-{i}.json"
        files[name] = dump(mat_json(expm(x)))
        seed = int(rng.integers(0, 2**31))
        group = "hyperbolic" if kind == "hyperbolic" else "parabolic"
        ops.append(Op(("cli", ["basin", name, "--seed", str(seed)]), group,
                      {"rc": 0, "samples": BASIN_TOTAL}))
    return Deck(_shuffled(rng, ops), files)


# orbit -----------------------------------------------------------------------

ORBIT_SHARES = {"hyperbolic": 10, "line_fixing": 3, "three_step": 3}


def _orbit_entry(m: np.ndarray, start: np.ndarray, tol: float) -> dict:
    return {"matrix": mat_json(m), "start": [[float(z.real), float(z.imag)] for z in start],
            "tol": tol}


def _orbit_expect(radius: float, g: np.ndarray) -> dict:
    attractive = g @ NORMAL_ATTRACTIVE
    return {"radius": radius,
            "attractive": [[float(z.real), float(z.imag)] for z in attractive]}


def orbit_deck(rng: np.random.Generator, blocks: int = 10) -> Deck:
    """converge() from ball points on hyperbolic and parabolic elements,
    ORBIT_SHARES per block, each kind at its own ORBIT_TOL."""
    entries = []
    ops: list[Op] = []
    for kind, share in ORBIT_SHARES.items():
        n = share * blocks
        for u, r in zip(stratified(rng, n, 0.0, 1.0), stratified(rng, n, 0.0, 1.0)):
            x, g = conjugated(rng, draw_normal(rng, kind, u))
            ops.append(Op(("converge", "orbit/inputs.json", len(entries)), kind,
                          _orbit_expect(ORBIT_RADIUS[kind], g)))
            entries.append(_orbit_entry(expm(x), g @ ball_point(rng, r), ORBIT_TOL[kind]))
    return Deck(_shuffled(rng, ops), {"orbit/inputs.json": dump(entries)})


# lattice ---------------------------------------------------------------------

def standard_script(k: int) -> dict:
    """JSON form of the built-in 'standard' script: k general blow-ups."""
    steps = [{"op": "blow_up", "point": f"q{i + 1}"} for i in range(k)]
    steps += [
        {"op": "assert", "kind": "rank", "expected": 1 + k},
        {"op": "assert", "kind": "signature", "expected": [1, k]},
        {"op": "assert", "kind": "k_squared", "expected": 9 - k},
    ]
    return {"initial": {"type": "P2"}, "steps": steps}


def sigma_chain_script(k: int) -> dict:
    """JSON form of the built-in 'sigma-steps' script: k Hirzebruch induction steps."""
    steps = []
    for n in range(2, 2 + k):
        steps += [
            {"op": "blow_up", "point": f"s{n}", "on": [["F", 1], ["B", 1]], "name": "Fnew"},
            {"op": "assert", "kind": "self_intersection", "curve": "F", "expected": -1},
            {"op": "assert", "kind": "self_intersection", "curve": "B", "expected": -(n + 1)},
            {"op": "contract", "curve": "F"},
            {"op": "rename", "from": "Fnew", "to": "F"},
            {"op": "assert", "kind": "self_intersection", "curve": "F", "expected": 0},
            {"op": "assert", "kind": "self_intersection", "curve": "B", "expected": -(n + 1)},
            {"op": "assert", "kind": "intersection", "curves": ["F", "B"], "expected": 1},
            {"op": "assert", "kind": "gram", "curves": ["F", "B"],
             "expected": [[0, 1], [1, -(n + 1)]]},
        ]
    steps.append({"op": "assert", "kind": "self_intersection", "curve": "B", "expected": -(2 + k)})
    return {"initial": {"type": "Hirzebruch", "n": 2}, "steps": steps}


def _replay_expect(script: str, k: int) -> dict:
    if script == "standard":
        return {"rc": 0, "n_blowups": k, "n_contractions": 0, "rank": 1 + k}
    return {"rc": 0, "n_blowups": k, "n_contractions": k, "rank": 2}


def lattice_deck(rng: np.random.Generator, halves: int = 2) -> Deck:
    """Exact-arithmetic ops: exceptional-class enumeration, signatures,
    Hirzebruch queries, built-in and file replays, and an invalid slice.

    The parameters that set an op's cost (blow-up counts, bounds, replay
    lengths) are fixed, so every seed gives the same cost profile; the seed
    picks the cheap parameters (signature and Hirzebruch indices) and the
    order.  Enumeration sets the tail, replay sets the median.
    """
    files: dict[str, bytes] = {}
    ops: list[Op] = []

    def cli(group: str, argv: list[str], expect: dict) -> None:
        ops.append(Op(("cli", argv), group, expect))

    def classes(k: int, bound: int) -> None:
        cli("exceptional", ["lattice", "exceptional", "--blowups", str(k), "--bound", str(bound)],
            {"rc": 0, "blowups": k, "count": EXCEPTIONAL_COUNTS[k]})

    # k <= 5 at bound 3, k = 6 only at bound 2; the two slowest once, the rest
    # once per half
    classes(5, 3)
    classes(6, 2)
    for _ in range(halves):
        for k in (1, 2, 3, 4, 4, 4, 4, 4):
            classes(k, 3)
        for k in (1, 2, 3, 4):
            classes(k, 2)
        for k in rng.integers(0, 10, size=4):
            cli("signature", ["lattice", "signature", "--blowups", str(k)],
                {"rc": 0, "rank": 1 + int(k), "signature": [1, int(k)]})
        for n in rng.integers(0, 13, size=2):
            cli("signature", ["lattice", "signature", "--hirzebruch", str(n)],
                {"rc": 0, "rank": 2, "signature": [1, 1]})
        for n in [1] + [int(n) for n in rng.integers(2, 13, size=2)]:
            cli("hirzebruch", ["lattice", "hirzebruch", "--n", str(n), "--square-one"],
                {"rc": 0, "square_one": [[1, 1], [-1, -1]] if n == 1 else []})
        for n in rng.integers(0, 13, size=3):
            cli("hirzebruch", ["lattice", "hirzebruch", "--n", str(n)], {"rc": 0, "n": int(n)})
        # each replay both built in and as the same script written to a file;
        # the ten sigma-steps k = 8 replays of each half form the plateau on
        # which the median lies
        for script, lengths in (("standard", (12, 16, 20, 24)),
                                ("sigma-steps", (8, 8, 8, 8, 8, 16, 20, 24))):
            for k in lengths:
                expect = _replay_expect(script, k)
                cli("replay", ["replay", "--builtin", script, "--k", str(k)], expect)
                name = f"lattice/{script}-{k}.json"
                files[name] = dump(standard_script(k) if script == "standard"
                                   else sigma_chain_script(k))
                cli("replay", ["replay", name], expect)
        cli("replay", ["replay", "--builtin", "standard", "--k", "38"],
            _replay_expect("standard", 38))
        for name in ("sigma0", "sigma2"):
            cli("replay", ["replay", "--builtin", name],
                {"rc": 0, "n_blowups": 2, "n_contractions": 1, "rank": 2})
    # invalid slice: documented exit codes with one JSON line on stderr
    bad_assert = standard_script(3)
    bad_assert["steps"][-1]["expected"] = 7
    invalid = {
        "lattice/bad-json.json": (b'{"initial": {"type": "P2"}, "steps": [', 2, "input"),
        "lattice/unknown-op.json": (dump({"initial": {"type": "P2"}, "steps": [{"op": "twist"}]}),
                                    2, "input"),
        "lattice/failed-assert.json": (dump(bad_assert), 1, "AssertionFailed"),
        "lattice/unknown-curve.json": (dump({"initial": {"type": "P2"},
                                             "steps": [{"op": "contract", "curve": "Z"}]}),
                                       1, "UnknownName"),
    }
    for _ in range(halves):
        for name, (data, rc, error) in invalid.items():
            files[name] = data
            cli("invalid", ["replay", name], {"rc": rc, "error": error})
        cli("invalid", ["lattice", "exceptional"], {"rc": 2, "error": "usage"})
        cli("invalid", ["replay", "lattice/bad-json.json", "--builtin", "standard"],
            {"rc": 2, "error": "usage"})
    return Deck(_shuffled(rng, ops), files)


# probes ------------------------------------------------------------------------

def probes(workload: str) -> Deck:
    """Inputs outside the measured decks that break the CLI contract today.

    Each probe runs once per run, untimed, and is reported by name.  A probe
    fails when the call escapes with an exception, or when its exit code or
    output is not the documented one.  expect["env"] sets environment
    variables for the duration of the call.
    """
    files: dict[str, bytes] = {}
    ops: list[Op] = []
    contract = {"rc": [1, 2]}
    if workload in ("classify", "basin"):
        files["probe/hyperbolic.json"] = dump(mat_json(expm(hyperbolic_normal(0.8, 0.5))))
    if workload == "classify":
        ops.append(Op(("cli", ["classify", "probe/hyperbolic.json"]), "CP2LAB_TOL=abc",
                      {**contract, "env": {"CP2LAB_TOL": "abc"}}))
        ops.append(Op(("cli", ["--tol", "nan", "classify", "probe/hyperbolic.json"]), "--tol nan",
                      {"rc": [0, 1, 2], "kind": "hyperbolic", "subtype": None}))
    elif workload == "basin":
        ops.append(Op(("cli", ["basin", "probe/hyperbolic.json", "--samples", "-5"]),
                      "basin --samples -5", contract))
    elif workload == "orbit":
        x = parabolic_normal(0.8, 0.6, complex(0.3, 0.2))
        start = np.array([1.0, 0.2, 0.1j])
        files["probe/orbit.json"] = dump([_orbit_entry(expm(x), start, 1e-8)])
        ops.append(Op(("converge", "probe/orbit.json", 0), "rotational orbit at tol 1e-8",
                      _orbit_expect(1e-8, np.eye(3))))
    elif workload == "lattice":
        files["probe/curves-list.json"] = dump({"initial": {"type": "P2", "curves": [["L", [1]]]},
                                                "steps": []})
        ops.append(Op(("cli", ["lattice", "hirzebruch", "--n", "-1"]), "hirzebruch --n -1",
                      contract))
        ops.append(Op(("cli", ["replay", "probe/curves-list.json"]), "script curves as a list",
                      contract))
        ops.append(Op(("cli", ["lattice", "signature", "--blowups", "-3"]),
                      "signature --blowups -3", contract))
    return Deck(ops, files)


BUILDERS = {
    "classify": classify_deck,
    "basin": basin_deck,
    "orbit": orbit_deck,
    "lattice": lattice_deck,
}


def build(workload: str, seed: int, **sizes) -> tuple[Deck, Deck]:
    """(measured deck, probe deck) for a workload and seed."""
    rng = np.random.default_rng([seed, sorted(BUILDERS).index(workload)])
    return BUILDERS[workload](rng, **sizes), probes(workload)
