"""Scripted blow-up and contraction surgery on a surface state.

A script starts from the projective plane or a Hirzebruch surface, tracks
named curve classes through blow-ups (with per-curve multiplicities at the
blown point), contractions of exceptional classes, and renames, and can
assert exact intersection data at any step.  Built-in scripts reproduce
the singular-sphere constructions: two blow-ups on a tangent line followed
by contraction of its transform lands on the quadric lattice, and the
fibre/base induction walks the Hirzebruch index upward one step at a time.

The squares logged before and after each surgery step are derived, not
recomputed: a blow-up with multiplicity m takes D.D to D.D - m^2 and adds
E.E = -1, and a contraction of E takes D.D to D.D + (D.E)^2, with every D.E
read from the one vector G E the contraction forms.  Asserts on squares, and
the diagonal of a gram assert, read these derived squares.

A step costs what it changes.  A blow-up leaves every curve it does not pass
through as the same object, so a tracked class may be shorter than the
lattice rank; its missing coordinates are zeros, and it is padded when it is
read (by an assert, a contraction or a rename) and before `run` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import jsonio
from .errors import AssertionFailed, InputFormatError, UnknownName
from .lattice import DivisorClass, PicardLattice, hirzebruch_lattice, p2_lattice


@dataclass(frozen=True)
class BlowUpStep:
    point: str
    on: tuple[tuple[str, int], ...] = ()
    name: str | None = None  # optional name for the new exceptional curve


@dataclass(frozen=True)
class ContractStep:
    curve: str


@dataclass(frozen=True)
class RenameStep:
    old: str
    new: str


def _integer(value, what: str) -> int:
    if type(value) is not int:  # a float, a string or true/false is refused, not rounded
        raise InputFormatError(f"malformed script: {what} must be an integer, got {value!r}")
    return value


def _expected(kind: str, value):
    """An assert's expected value, refused unless it has the shape its kind needs."""
    what = f"the expected value of a {kind} assert"
    if kind == "signature" and isinstance(value, list) and len(value) == 2:
        return [_integer(v, f"an entry of {what}") for v in value]
    if kind == "gram" and isinstance(value, list) and all(isinstance(r, list) for r in value):
        return [[_integer(v, f"an entry of {what}") for v in row] for row in value]
    if kind in ("signature", "gram"):
        raise InputFormatError(f"malformed script: {what} has the wrong shape, got {value!r}")
    integer_kinds = ("rank", "k_squared", "self_intersection", "intersection")
    return _integer(value, what) if kind in integer_kinds else value


@dataclass(frozen=True)
class AssertStep:
    kind: str                       # self_intersection | intersection | gram | rank | signature | k_squared
    expected: object
    curve: str | None = None
    curves: tuple[str, ...] | None = None

    def __post_init__(self):  # library and JSON scripts share one shape rule
        _expected(self.kind, self.expected)


Step = BlowUpStep | ContractStep | RenameStep | AssertStep


@dataclass(frozen=True)
class InitialSurface:
    kind: str                       # "P2" | "Hirzebruch"
    n: int = 0
    curves: tuple[tuple[str, tuple[int, ...]], ...] = ()


@dataclass(frozen=True)
class Script:
    initial: InitialSurface
    steps: tuple[Step, ...]


@dataclass
class SurfaceState:
    """Lattice plus named curve classes, point incidences and a step log.

    A class in curves may be shorter than the lattice rank, its missing
    coordinates zero: a blow-up leaves the curves it misses alone.  Read a
    class through curve(), which pads it; run() returns every class padded.
    squares holds each curve's self-intersection, in the order of curves;
    self_intersection and gram_of read it rather than pair the classes again.
    It is replaced, never mutated, since the log keeps references to it.
    """

    lattice: PicardLattice
    curves: dict[str, DivisorClass]
    squares: dict[str, int]
    points: dict[str, tuple[tuple[str, int], ...]] = field(default_factory=dict)
    log: list[dict] = field(default_factory=list)
    n_blowups: int = 0
    n_contractions: int = 0

    def curve(self, name: str) -> DivisorClass:
        """The class of a curve, padded with zeros to the lattice rank."""
        try:
            d = self.curves[name]
        except KeyError:
            raise UnknownName(f"no curve named {name!r}") from None
        missing = len(self.lattice.gram) - len(d.coeffs)
        if missing:
            d = self.curves[name] = DivisorClass._of(d.coeffs + (0,) * missing)
        return d

    def self_intersection(self, name: str) -> int:
        self.curve(name)
        return self.squares[name]

    def gram_of(self, names) -> list[list[int]]:
        """Pairings of the named curves: squares on the diagonal, each
        off-diagonal pairing computed once."""
        classes = [self.curve(n) for n in names]
        gram = [[self.squares[n]] * len(names) for n in names]
        for i, a in enumerate(classes):
            for j in range(i):
                gram[i][j] = gram[j][i] = self.lattice.intersect(a, classes[j])
        return gram


def _initial_state(initial: InitialSurface) -> SurfaceState:
    if initial.kind == "P2":
        lat = p2_lattice()
    elif initial.kind == "Hirzebruch" and initial.n < 0:
        raise InputFormatError(f"Hirzebruch index must be non-negative, got {initial.n}")
    elif initial.kind == "Hirzebruch":
        lat = hirzebruch_lattice(initial.n)
    else:
        raise InputFormatError(f"unknown initial surface kind {initial.kind!r}")
    curves = {label: lat.basis_class(label) for label in lat.labels}
    for name, coeffs in initial.curves:
        if name in curves:
            raise InputFormatError(f"initial curve {name!r} collides with a basis label")
        curves[name] = lat.class_from(coeffs)
    squares = {name: lat.intersect(d, d) for name, d in curves.items()}
    return SurfaceState(lattice=lat, curves=curves, squares=squares)


def _run_blow_up(state: SurfaceState, step: BlowUpStep, index: int) -> None:
    mults = dict()
    for curve_name, m in step.on:
        if curve_name not in state.curves:
            raise UnknownName(f"blow_up at step {index} references unknown curve {curve_name!r}")
        if _integer(m, f"the multiplicity on {curve_name!r} at step {index}") < 0:
            raise InputFormatError(f"blow_up at step {index}: negative multiplicity on {curve_name!r}")
        mults[curve_name] = m
    new_lat = state.lattice.blow_up()
    # a default name that is taken (contraction relabels the basis v1, v2,
    # ...) moves on to the first free E<j> past the blow-up count
    exceptional_name, j = step.name or new_lat.labels[-1], state.n_blowups
    while not step.name and exceptional_name in state.curves:
        j += 1
        exceptional_name = f"E{j}"
    if exceptional_name in state.curves:
        raise InputFormatError(f"new curve name {exceptional_name!r} already in use")
    before = state.squares
    after = dict(before)
    # only the curves through the point change; the others keep their
    # object, one coordinate short of the new rank
    for name, m in mults.items():
        if m:
            state.curves[name] = new_lat.proper_transform(state.curve(name), m)
            after[name] = before[name] - m * m
    state.curves[exceptional_name] = new_lat.basis_class(new_lat.labels[-1])
    after[exceptional_name] = -1
    state.lattice = new_lat
    state.squares = after
    state.points[step.point] = tuple(mults.items())
    state.n_blowups += 1
    state.log.append(
        {
            "step": index,
            "op": "blow_up",
            "point": step.point,
            "exceptional": exceptional_name,
            "squares_before": before,
            "squares_after": after,
        }
    )


def _run_contract(state: SurfaceState, step: ContractStep, index: int) -> None:
    e = state.curve(step.curve)
    new_lat, push = state.lattice.contract(e)
    before = state.squares
    new_curves = {}
    after = {}
    for name in list(state.curves):
        if name != step.curve:
            d = state.curve(name)
            new_curves[name] = push(d)
            after[name] = before[name] + push.pairing(d) ** 2
    state.lattice = new_lat
    state.curves = new_curves
    state.squares = after
    state.n_contractions += 1
    state.log.append(
        {
            "step": index,
            "op": "contract",
            "curve": step.curve,
            "squares_before": before,
            "squares_after": after,
        }
    )


def _run_assert(state: SurfaceState, step: AssertStep, index: int) -> None:
    kind = step.kind
    if kind == "intersection" and (step.curves is None or len(step.curves) != 2):
        raise InputFormatError(f"intersection assert at step {index} needs two curves")
    if kind == "gram" and step.curves is None:
        raise InputFormatError(f"gram assert at step {index} needs a curves list")
    if kind == "self_intersection":
        got = state.self_intersection(step.curve)
    elif kind == "intersection":
        a, b = step.curves
        got = state.lattice.intersect(state.curve(a), state.curve(b))
    elif kind == "gram":
        got = state.gram_of(step.curves)
    elif kind == "rank":
        got = state.lattice.rank
    elif kind == "signature":
        got = list(state.lattice.signature())
    elif kind == "k_squared":
        k = state.lattice.canonical
        got = state.lattice.intersect(k, k)
    else:
        raise InputFormatError(f"unknown assert kind {kind!r} at step {index}")
    if got != step.expected:
        raise AssertionFailed(index, step.expected, got)
    state.log.append({"step": index, "op": "assert", "kind": kind, "value": got})


def run(script: Script) -> SurfaceState:
    """Execute a script; asserts abort with AssertionFailed on mismatch."""
    state = _initial_state(script.initial)
    for index, step in enumerate(script.steps):
        if isinstance(step, BlowUpStep):
            _run_blow_up(state, step, index)
        elif isinstance(step, ContractStep):
            _run_contract(state, step, index)
        elif isinstance(step, RenameStep):
            if step.new in state.curves:
                raise InputFormatError(f"rename target {step.new!r} already exists")
            state.curves[step.new] = state.curve(step.old)
            del state.curves[step.old]
            squares = dict(state.squares)
            squares[step.new] = squares.pop(step.old)
            state.squares = squares
            state.log.append({"step": index, "op": "rename", "old": step.old, "new": step.new})
        elif isinstance(step, AssertStep):
            _run_assert(state, step, index)
        else:
            raise InputFormatError(f"unknown step type {type(step).__name__} at {index}")
    for name in state.curves:  # pad every class to the final rank
        state.curve(name)
    return state


# built-in scripts -------------------------------------------------------------

def builtin_standard_blowups(k: int) -> Script:
    """Blow up k points in general position and assert the lattice data."""
    if k < 0:
        raise ValueError("blow-up count must be non-negative")
    steps: list[Step] = [BlowUpStep(point=f"q{i + 1}") for i in range(k)]
    steps.append(AssertStep(kind="rank", expected=1 + k))
    steps.append(AssertStep(kind="signature", expected=[1, k]))
    steps.append(AssertStep(kind="k_squared", expected=9 - k))
    return Script(InitialSurface(kind="P2"), tuple(steps))


def builtin_sigma0_singular() -> Script:
    """Two blow-ups on a line, then contract its transform.

    The tracked exceptional curves become the two rulings of the quadric:
    squares 0 and mutual intersection 1, so they are transverse at the
    image of the contracted curve.
    """
    steps: tuple[Step, ...] = (
        BlowUpStep(point="x1", on=(("L", 1),)),
        AssertStep(kind="self_intersection", curve="L", expected=0),
        BlowUpStep(point="x2", on=(("L", 1),)),
        AssertStep(kind="self_intersection", curve="L", expected=-1),
        ContractStep(curve="L"),
        AssertStep(kind="self_intersection", curve="E1", expected=0),
        AssertStep(kind="self_intersection", curve="E2", expected=0),
        AssertStep(kind="intersection", curves=("E1", "E2"), expected=1),
        AssertStep(kind="gram", curves=("E1", "E2"), expected=[[0, 1], [1, 0]]),
        AssertStep(kind="rank", expected=2),
        AssertStep(kind="signature", expected=[1, 1]),
    )
    return Script(InitialSurface(kind="P2", curves=(("L", (1,)),)), steps)


def builtin_sigma2_singular() -> Script:
    """Blow up a point on a line, blow up the new intersection point, then
    contract the line transform: the tracked classes present the second
    Hirzebruch lattice with base square -2."""
    steps: tuple[Step, ...] = (
        BlowUpStep(point="x1", on=(("L", 1),)),
        AssertStep(kind="self_intersection", curve="L", expected=0),
        BlowUpStep(point="x2", on=(("L", 1), ("E1", 1))),
        AssertStep(kind="self_intersection", curve="L", expected=-1),
        AssertStep(kind="self_intersection", curve="E1", expected=-2),
        ContractStep(curve="L"),
        RenameStep(old="E2", new="F"),
        RenameStep(old="E1", new="B"),
        AssertStep(kind="self_intersection", curve="F", expected=0),
        AssertStep(kind="self_intersection", curve="B", expected=-2),
        AssertStep(kind="intersection", curves=("F", "B"), expected=1),
        AssertStep(kind="gram", curves=("F", "B"), expected=[[0, 1], [1, -2]]),
    )
    return Script(InitialSurface(kind="P2", curves=(("L", (1,)),)), steps)


def builtin_sigma_step(n: int) -> tuple[Step, ...]:
    """One induction step at a Hirzebruch state with tracked F and B:
    blow up the fibre/base intersection, contract the fibre transform;
    the base square drops from -n to -(n+1)."""
    return (
        BlowUpStep(point=f"s{n}", on=(("F", 1), ("B", 1)), name="Fnew"),
        AssertStep(kind="self_intersection", curve="F", expected=-1),
        AssertStep(kind="self_intersection", curve="B", expected=-(n + 1)),
        ContractStep(curve="F"),
        RenameStep(old="Fnew", new="F"),
        AssertStep(kind="self_intersection", curve="F", expected=0),
        AssertStep(kind="self_intersection", curve="B", expected=-(n + 1)),
        AssertStep(kind="intersection", curves=("F", "B"), expected=1),
        AssertStep(kind="gram", curves=("F", "B"), expected=[[0, 1], [1, -(n + 1)]]),
    )


def builtin_sigma_chain(k: int) -> Script:
    """k induction steps starting from the second Hirzebruch surface."""
    if k < 0:
        raise ValueError("step count must be non-negative")
    steps: list[Step] = []
    for i in range(k):
        steps.extend(builtin_sigma_step(2 + i))
    steps.append(AssertStep(kind="self_intersection", curve="B", expected=-(2 + k)))
    return Script(InitialSurface(kind="Hirzebruch", n=2), tuple(steps))


# JSON schema -------------------------------------------------------------------

def script_from_json(obj: dict) -> Script:
    """Parse {"initial": {...}, "steps": [...]} into a Script."""
    try:
        init = obj["initial"]
        kind = init["type"]
        n = _integer(init.get("n", 0), '"n"')
        named = init.get("curves", {})
        if not isinstance(named, dict):
            raise InputFormatError('malformed script: "curves" must map names to coefficients')
        curves = tuple((str(name), tuple(_integer(c, "a curve coefficient") for c in coeffs))
                       for name, coeffs in named.items())
        steps: list[Step] = []
        for raw in obj["steps"]:
            op = raw["op"]
            if op == "blow_up":
                on = tuple((str(c), _integer(m, "a multiplicity")) for c, m in raw.get("on", []))
                name = raw.get("name")
                steps.append(BlowUpStep(point=str(raw["point"]), on=on,
                                        name=str(name) if name is not None else None))
            elif op == "contract":
                steps.append(ContractStep(curve=str(raw["curve"])))
            elif op == "rename":
                steps.append(RenameStep(old=str(raw["from"]), new=str(raw["to"])))
            elif op == "assert":
                curves_arg = raw.get("curves")
                if curves_arg is not None and not (
                    isinstance(curves_arg, list) and all(isinstance(c, str) for c in curves_arg)
                ):
                    raise InputFormatError('malformed script: assert "curves" must be a list of names')
                assert_kind = str(raw["kind"])
                steps.append(AssertStep(assert_kind, raw["expected"],
                                        raw.get("curve"),
                                        tuple(curves_arg) if curves_arg is not None else None))
            else:
                raise InputFormatError(f"unknown script op {op!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed script: {exc}") from exc
    return Script(InitialSurface(kind=kind, n=n, curves=curves), tuple(steps))


def state_to_json(state: SurfaceState) -> dict:
    return {
        "lattice": jsonio.lattice_to_json(state.lattice),
        "curves": {name: list(d.coeffs) for name, d in state.curves.items()},
        "points": {name: [list(pair) for pair in inc] for name, inc in state.points.items()},
        "n_blowups": state.n_blowups,
        "n_contractions": state.n_contractions,
        "log": state.log,
    }
