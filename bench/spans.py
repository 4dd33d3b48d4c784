"""Spans around cp2lab's layer boundaries, recorded from outside the package.

Each public name is wrapped where its caller looks it up (a module global
or a class attribute) and restored afterwards; the one private boundary is
dynamics._resolve_batch.  A name that is missing is reported as absent and
its metrics read 0.  A span records its name, start, end, parent span and op
id in flat in-memory arrays, written out once after the run.  A layer's self
time is its span's duration minus the time its child spans cover.

Per-layer metrics are per op: calls per op, and inclusive (`.ms`) or self
(`.self_ms`) milliseconds per op, over all ops of the workload or over one
group of ops (suffix `.<group>`).
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from cp2lab import cli, dynamics, jsonio, lattice, linalg3, replay, su12

ROOT = "bench.op"   # the span the benchmark opens around each op

# (owner, attribute, span name): the owner is where the caller looks the name up
TARGETS = [
    (cli, "main", "cli.main"),
    (jsonio, "mat3_from_json", "jsonio.mat3_from_json"),
    (jsonio, "algebra_from_json", "jsonio.algebra_from_json"),
    (jsonio, "classification_report", "jsonio.classification_report"),
    (jsonio, "basin_report_to_json", "jsonio.basin_report_to_json"),
    (jsonio, "lattice_to_json", "jsonio.lattice_to_json"),
    (jsonio, "derivative_eigenvalues", "su12.derivative_eigenvalues"),
    (su12, "classify", "su12.classify"),
    (dynamics, "classify", "su12.classify"),
    (su12, "fixed_points", "su12.fixed_points"),
    (dynamics, "fixed_points", "su12.fixed_points"),
    (su12, "mat_exp", "linalg3.mat_exp"),
    (su12, "eig3", "linalg3.eig3"),
    (su12, "jordan_shape", "linalg3.jordan_shape"),
    (linalg3, "cubic_roots", "linalg3.cubic_roots"),
    (dynamics, "basin_coverage_check", "dynamics.basin_coverage_check"),
    (dynamics, "_resolve_batch", "dynamics.resolve"),
    (dynamics, "converge", "dynamics.converge"),
    (lattice, "enumerate_exceptional_classes", "lattice.enumerate_exceptional_classes"),
    (lattice, "square_one_classes", "lattice.square_one_classes"),
    (lattice, "hirzebruch_lattice", "lattice.hirzebruch_lattice"),
    (lattice, "p2_lattice", "lattice.p2_lattice"),
    (replay, "hirzebruch_lattice", "lattice.hirzebruch_lattice"),
    (replay, "p2_lattice", "lattice.p2_lattice"),
    (lattice.PicardLattice, "intersect", "lattice.PicardLattice.intersect"),
    (lattice.PicardLattice, "__post_init__", "lattice.PicardLattice.init"),
    (lattice.PicardLattice, "signature", "lattice.PicardLattice.signature"),
    (lattice.PicardLattice, "blow_up", "lattice.blow_up"),
    (lattice.PicardLattice, "contract", "lattice.contract"),
    (lattice, "_signature", "lattice._signature"),
    (lattice, "_det_int", "lattice._det_int"),
    (replay, "run", "replay.run"),
    (replay, "script_from_json", "replay.script_from_json"),
    (replay, "state_to_json", "replay.state_to_json"),
    (replay, "builtin_standard_blowups", "replay.builtin"),
    (replay, "builtin_sigma_chain", "replay.builtin"),
    (replay, "builtin_sigma0_singular", "replay.builtin"),
    (replay, "builtin_sigma2_singular", "replay.builtin"),
]


def _enumerate_counts(args, kwargs, result) -> dict:
    lat = args[0] if args else kwargs["lat"]
    bound = args[1] if len(args) > 1 else kwargs["coeff_bound"]
    return {"enumerate.tried": (2 * bound + 1) ** lat.rank, "enumerate.found": len(result)}


def _converge_counts(args, kwargs, result) -> dict:
    return {"converge.iterations": result.iterations}


# counters read from a call's arguments and result, by span name
HOOKS = {
    "lattice.enumerate_exceptional_classes": _enumerate_counts,
    "dynamics.converge": _converge_counts,
}


# per-layer metrics from spans: (span, statistic) over all ops
SPAN_METRICS = [
    ("cli.main", "self_ms"),
    ("jsonio.classification_report", "self_ms"),
    ("jsonio.mat3_from_json", "ms"),
    ("su12.classify", "calls"),
    ("su12.classify", "self_ms"),
    ("su12.derivative_eigenvalues", "calls"),
    ("su12.derivative_eigenvalues", "self_ms"),
    ("su12.fixed_points", "calls"),
    ("linalg3.eig3", "calls"),
    ("linalg3.eig3", "ms"),
    ("linalg3.jordan_shape", "calls"),
    ("linalg3.cubic_roots", "calls"),
    ("dynamics.basin_coverage_check", "self_ms"),
    ("dynamics.resolve", "ms"),
    ("dynamics.resolve", "calls"),
    ("lattice.enumerate_exceptional_classes", "ms"),
    ("lattice.PicardLattice.intersect", "calls"),
    ("lattice.PicardLattice.init", "ms"),
    ("lattice._signature", "ms"),
    ("lattice._det_int", "ms"),
    ("lattice.blow_up", "calls"),
    ("lattice.contract", "calls"),
    ("replay.run", "self_ms"),
    ("replay.script_from_json", "ms"),
    ("replay.state_to_json", "ms"),
]
# the same statistics over one group of ops
SPLIT_METRICS = [
    ("dynamics.basin_coverage_check", "self_ms", ("hyperbolic", "parabolic")),
    ("dynamics.resolve", "ms", ("hyperbolic", "parabolic")),
    ("dynamics.resolve", "calls", ("hyperbolic", "parabolic")),
    ("cli.main", "self_ms", ("exceptional", "replay")),
    ("lattice.enumerate_exceptional_classes", "ms", ("exceptional", "replay")),
    ("lattice.PicardLattice.intersect", "calls", ("exceptional", "replay")),
    ("replay.run", "self_ms", ("exceptional", "replay")),
]
ORBIT_KINDS = ("hyperbolic", "line_fixing", "three_step")
UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms"}


def layer_units() -> dict[str, str]:
    """Name and unit of every span-derived per-layer metric."""
    units = {f"{span}.{stat}": UNITS[stat] for span, stat in SPAN_METRICS}
    for span, stat, groups in SPLIT_METRICS:
        units.update({f"{span}.{stat}.{g}": UNITS[stat] for g in groups})
    for suffix in ("",) + tuple(f".{kind}" for kind in ORBIT_KINDS):
        units[f"dynamics.converge.iterations{suffix}"] = "count"
        units[f"dynamics.converge.us_per_step{suffix}"] = "us"
    units["lattice.enumerate.hit_ratio"] = "ratio"
    return units


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counters: dict[tuple[int, str], float] = {}
        self._stack: list[int] = []
        self._op = -1
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for owner, attr, name in TARGETS:
            original = owner.__dict__.get(attr)
            if original is None:
                self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            else:
                self._patches.append((owner, attr, original, self.wrap(name, original)))

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        hook = HOOKS.get(name)
        recorder = self

        def traced(*args, **kwargs):
            idx = recorder._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(idx)
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    k = (recorder._op, key)
                    recorder.counters[k] = recorder.counters.get(k, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Put the wrappers where the callers look the names up."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore the original names."""
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def run_op(self, op_id: int, call):
        """Run call() inside the root span of op op_id and return its result."""
        self._op = op_id
        idx = self._open(self._id(ROOT))
        try:
            return call()
        finally:
            self._close(idx)
            self._op = -1

    # analysis ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write the spans as one .npz of columns plus the name table."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(cols: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(duration, self time) per span."""
    dur = cols["end"] - cols["start"]
    has_parent = cols["parent"] >= 0
    covered = np.bincount(cols["parent"][has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur, dur - covered


def layer_metrics(recorder: Recorder, op_group: list[str]) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of the traced ops (op id i has group op_group[i]),
    and details: the largest self-time layers per group, absent spans, and
    the check that each op's span self times sum to its traced wall time."""
    cols = recorder.arrays()
    dur, own = self_times(cols)
    n_ops = len(op_group)
    op_group = np.array(op_group)
    span_group = op_group[cols["op"]]
    name_of = {name: i for i, name in enumerate(recorder.names)}

    def count(group: str | None) -> int:
        return n_ops if group is None else int((op_group == group).sum())

    def select(span: str, group: str | None) -> np.ndarray:
        mask = cols["name"] == name_of.get(span, -1)
        return mask if group is None else mask & (span_group == group)

    def stat(span: str, kind: str, group: str | None = None) -> float:
        ops = count(group)
        mask = select(span, group)
        if ops == 0:
            return 0.0
        if kind == "calls":
            return float(mask.sum()) / ops
        return float((own if kind == "self_ms" else dur)[mask].sum()) * 1e3 / ops

    def counter(key: str, group: str | None = None) -> float:
        return float(sum(v for (op, k), v in recorder.counters.items()
                         if k == key and (group is None or op_group[op] == group)))

    metrics = {f"{s}.{k}": stat(s, k) for s, k in SPAN_METRICS}
    for span, kind, groups in SPLIT_METRICS:
        metrics.update({f"{span}.{kind}.{g}": stat(span, kind, g) for g in groups})
    for group in (None,) + ORBIT_KINDS:
        suffix = "" if group is None else f".{group}"
        steps = counter("converge.iterations", group)
        ops = count(group)
        seconds = float(dur[select("dynamics.converge", group)].sum())
        metrics[f"dynamics.converge.iterations{suffix}"] = steps / ops if ops else 0.0
        metrics[f"dynamics.converge.us_per_step{suffix}"] = seconds * 1e6 / steps if steps else 0.0
    tried = counter("enumerate.tried")
    metrics["lattice.enumerate.hit_ratio"] = counter("enumerate.found") / tried if tried else 0.0

    root = cols["name"] == name_of[ROOT]
    own_by_op = np.bincount(cols["op"], weights=own, minlength=n_ops)
    wall_by_op = np.zeros(n_ops)
    wall_by_op[cols["op"][root]] = dur[root]
    largest = {}
    for group in sorted(set(op_group.tolist())):
        sel = span_group == group
        totals = np.bincount(cols["name"][sel], weights=own[sel], minlength=len(recorder.names))
        top = np.argsort(totals)[::-1][:3]
        largest[group] = [(recorder.names[i], float(totals[i] / totals.sum())) for i in top
                          if totals[i] > 0]
    details = {
        "largest_self_layers": largest,
        "absent_spans": recorder.absent,
        "spans": int(len(dur)),
        "self_time_gap_s": float(np.abs(own_by_op - wall_by_op).max()),
    }
    return metrics, details
