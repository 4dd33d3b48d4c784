#!/usr/bin/env python3
"""cp2lab benchmark: one seeded workload per run, one client, closed loop.

    python3 bench/run.py --workload classify|basin|orbit|lattice \\
        --seed N --seconds S --trace 0|1

The package is imported from the src/ directory next to this one, never from
an installed copy.  Inputs are generated from the seed and written under
bench/out/inputs/.  The client sends the next op only after the previous one
returns, in passes over the workload's deck, until S seconds have passed and
every op has run MIN_REPEATS times.  Every output is checked by an oracle.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes with passes that record spans around each layer, for S seconds, and
prints the per-layer metrics.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  A fuller record goes to
bench/out/<workload>-s<seed>-t<trace>.json and, when traced, the spans to
bench/out/<workload>-s<seed>.spans.npz.  See bench/README.md.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, for this process and the set-up subprocesses
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CP2LAB_TOL", None)

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("classify", "basin", "orbit", "lattice")
MIN_REPEATS = 3        # every deck op runs at least this often in a timed run
SETUP_REPEATS = 9      # set-ups per run; setup_s is their median
HARD_STOP_S = 150.0    # after this long since process start, stop once every op ran
CAL_REF_S = 0.2e-3     # calibration kernel time that defines the reference speed
CAL_WINDOW = 10        # kernel timings on each side smoothed into one speed estimate

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> float:
    """Import cp2lab from the checkout's src/; returns the seconds taken."""
    if not (SRC / "cp2lab" / "__init__.py").is_file():
        die(f"no cp2lab package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import cp2lab
    elapsed = time.perf_counter() - t0
    if Path(cp2lab.__file__).resolve().parent != (SRC / "cp2lab").resolve():
        die(f"imported cp2lab from {cp2lab.__file__}, not from {SRC}")
    return elapsed


# machine speed ------------------------------------------------------------------
#
# The host's speed swings by up to 2x over tens of seconds (shared cores).  A
# fixed kernel of interpreter and small-matrix work, timed before every op,
# tracks it; each latency is scaled to the speed at which the kernel takes
# CAL_REF_S.  Raw figures are kept in the run record.

_CAL_MATRIX = np.array([[1.0, 0.5j, 0.25], [0.5j, 1.0, 0.5], [0.25, 0.5, 1.0j]])


def _kernel() -> None:
    total = 0
    for i in range(600):
        total += (i * i) % 7
    x = _CAL_MATRIX
    for _ in range(20):
        x = x @ _CAL_MATRIX
        x = x / np.abs(x).max()


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def smoothed(values: list[float], window: int = CAL_WINDOW) -> list[float]:
    """Running median over `window` neighbours on each side."""
    return [statistics.median(values[max(0, i - window):i + window + 1])
            for i in range(len(values))]


# set-up -----------------------------------------------------------------------------

_IMPORT_PROBE = (
    "import statistics, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import cp2lab\n"
    "elapsed = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from run import kernel_seconds\n"
    "print(elapsed, statistics.median(kernel_seconds() for _ in range(5)))\n"
)


def fresh_import_seconds() -> tuple[float, float]:
    """Seconds to import cp2lab in a fresh interpreter, and the calibration
    kernel's time measured in that interpreter right after."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
                          capture_output=True, text=True, timeout=60, check=True)
    elapsed, kernel = done.stdout.split()
    return float(elapsed), float(kernel)


def setup(workload: str, seed: int, repeats: int, sizes: dict):
    """Generate and write the inputs `repeats` times.  Each set-up is a
    fresh-process import of cp2lab plus generating and writing the inputs,
    each part scaled by the kernel time of the process that ran it.
    Returns (deck, probe deck, inputs dir, set-up stats, input digest)."""
    import gen

    inputs = OUT / "inputs" / f"{workload}-s{seed}"
    raw, scaled, digests = [], [], set()
    for _ in range(repeats):
        t_import, k_import = fresh_import_seconds()
        k_gen = statistics.median(kernel_seconds() for _ in range(5))
        t0 = time.perf_counter()
        deck, probe_deck = gen.build(workload, seed, **sizes)
        deck.write(inputs)
        probe_deck.write(inputs)
        t_gen = time.perf_counter() - t0
        raw.append(t_import + t_gen)
        scaled.append((t_import / k_import + t_gen / k_gen) * CAL_REF_S)
        digests.add(deck.digest() + probe_deck.digest())
    if len(digests) != 1:
        die("the same seed generated different inputs")
    stats = {"setup_s": statistics.median(scaled), "raw_setup_s": statistics.median(raw)}
    return deck, probe_deck, inputs, stats, digests.pop()


# workload execution -------------------------------------------------------------

class Client:
    """Runs ops in-process against the package's public entry points."""

    def __init__(self, workload: str, decks):
        from cp2lab import ProjectivePoint, cli, dynamics
        self.cli = cli
        self.dynamics = dynamics
        self.workload = workload
        self.orbit: dict[str, list] = {}
        for op in (op for deck in decks for op in deck.ops):
            if op.call[0] == "converge" and op.call[1] not in self.orbit:
                rows = json.loads(Path(op.call[1]).read_text())
                self.orbit[op.call[1]] = [
                    (np.array([[complex(*z) for z in r] for r in row["matrix"]]),
                     ProjectivePoint.from_vector([complex(*z) for z in row["start"]]),
                     row["tol"])
                    for row in rows
                ]

    def execute(self, op):
        if op.call[0] == "converge":
            m, p, tol = self.orbit[op.call[1]][op.call[2]]
            try:
                return self.dynamics.converge(m, p, tol=tol)
            except Exception as exc:   # reported as a failed op
                return exc
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(list(op.call[1]))
            except Exception as exc:   # an escape from the CLI contract
                rc = exc
        return rc, out.getvalue(), err.getvalue()


class Phase:
    """Latencies and verdicts of repeated passes over a deck.

    latency[e] belongs to deck op e % deck_size, since passes run in deck
    order; kernel[e], when calibrating, was timed just before it.
    """

    def __init__(self, deck_size: int, calibrate: bool):
        self.deck_size = deck_size
        self.calibrate = calibrate
        self.latency: list[float] = []
        self.kernel: list[float] = []
        self.failures: list[tuple[str, str]] = []
        self.samples = 0

    @property
    def passes(self) -> float:
        return len(self.latency) / self.deck_size

    def per_op(self, values: list[float]) -> list[float]:
        """Median over each deck op's repeats."""
        d = self.deck_size
        return [statistics.median(values[i::d]) for i in range(min(d, len(values)))]

    def scaled(self) -> list[float]:
        """Latencies at the reference speed."""
        return [t * CAL_REF_S / k for t, k in zip(self.latency, smoothed(self.kernel))]


def run_op(client: Client, op, phase: Phase, recorder=None) -> None:
    """Run one op, timed, and record its latency and verdict in phase."""
    from oracles import check

    if phase.calibrate:
        phase.kernel.append(kernel_seconds())
    if recorder is None:
        t0 = time.perf_counter()
        out = client.execute(op)
    else:
        op_id = len(phase.latency)
        t0 = time.perf_counter()
        out = recorder.run_op(op_id, lambda: client.execute(op))
    phase.latency.append(time.perf_counter() - t0)
    verdict = check(op, out)
    if verdict is not None:
        phase.failures.append((" ".join(map(str, op.call[1:])), verdict))
    elif client.workload == "basin":
        phase.samples += json.loads(out[1])["samples"]


def timed_run(client: Client, ops, seconds: float, t_process: float,
              min_repeats: int) -> Phase:
    """Passes until `seconds` have passed and every op ran min_repeats times."""
    phase = Phase(len(ops), calibrate=True)
    started = time.perf_counter()
    while True:
        for op in ops:
            done, now = len(phase.latency), time.perf_counter()
            if ((done >= min_repeats * len(ops) and now - started >= seconds)
                    or (done >= len(ops) and now - t_process > HARD_STOP_S)):
                return phase
            run_op(client, op, phase)


def traced_run(client: Client, ops, seconds: float, t_process: float):
    """Passes for `seconds` in which every op runs twice in a row, untraced
    and then traced.  Returns (untraced phase, traced phase, recorder)."""
    from spans import Recorder

    untraced = Phase(len(ops), calibrate=False)
    traced = Phase(len(ops), calibrate=False)
    recorder = Recorder()
    started = time.perf_counter()
    while True:
        for op in ops:
            run_op(client, op, untraced)
            recorder.install()
            try:
                run_op(client, op, traced, recorder)
            finally:
                recorder.uninstall()
        now = time.perf_counter()
        if now - started >= seconds or now - t_process > HARD_STOP_S:
            return untraced, traced, recorder


def run_probes(client: Client, probe_deck) -> list[dict]:
    """Run each probe once, untimed; expect["env"] is set around the call."""
    from oracles import check

    results = []
    for op in probe_deck.ops:
        env = op.expect.get("env", {})
        saved = {k: os.environ.get(k) for k in env}
        os.environ.update(env)
        try:
            verdict = check(op, client.execute(op))
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        results.append({"probe": op.group, "call": op.call[1:], "failed": verdict is not None,
                        "reason": verdict})
    return results


# metrics ------------------------------------------------------------------------

def latency_stats(per_op: list[float]) -> dict[str, float]:
    return {
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_p90_ms": statistics.quantiles(per_op, n=10, method="inclusive")[8] * 1e3,
    }


def per_layer_units() -> dict[str, str]:
    from spans import layer_units

    return {
        **layer_units(),
        "trace.overhead_frac": "ratio",
        "fail_frac": "ratio",
        "samples_per_s": "samples/s",
        "probe.failed": "count",
    }


# driver ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, *, min_repeats: int = MIN_REPEATS,
        setup_repeats: int = SETUP_REPEATS, sizes: dict | None = None) -> dict:
    """One benchmark run; returns the record: the last-line object plus details."""
    t_process = time.perf_counter()
    in_process_import_s = import_package()
    sys.path.insert(0, str(HERE))
    deck, probe_deck, inputs, setup_stats, digest = setup(workload, seed, setup_repeats,
                                                          sizes or {})
    details: dict = {"workload": workload, "seed": seed, "trace": int(trace),
                     "input_sha256": digest, "deck_ops": len(deck.ops),
                     "in_process_import_s": in_process_import_s}
    previous = os.getcwd()
    os.chdir(inputs)
    try:
        client = Client(workload, (deck, probe_deck))
        probes = run_probes(client, probe_deck)
        if not trace:
            phase = timed_run(client, deck.ops, seconds, t_process, min_repeats)
            phases = [phase]
            per_op = phase.per_op(phase.scaled())
            metrics = {
                "setup_s": setup_stats["setup_s"],
                **latency_stats(per_op),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
            details["raw"] = {**latency_stats(phase.per_op(phase.latency)),
                              "setup_s": setup_stats["raw_setup_s"],
                              "wall_ops_per_s": len(phase.latency) / sum(phase.latency)}
            details["per_op_ms"] = [
                {"group": op.group, "call": op.call[1:], "ms": t * 1e3}
                for op, t in zip(deck.ops, per_op)]
            details["kernel_ms"] = {"median": statistics.median(phase.kernel) * 1e3,
                                    "min": min(phase.kernel) * 1e3,
                                    "max": max(phase.kernel) * 1e3,
                                    "reference": CAL_REF_S * 1e3}
        else:
            from spans import layer_metrics

            phase, traced, recorder = traced_run(client, deck.ops, seconds, t_process)
            phases = [phase, traced]
            groups = [deck.ops[i % len(deck.ops)].group for i in range(len(traced.latency))]
            metrics, layer_details = layer_metrics(recorder, groups)
            if layer_details["self_time_gap_s"] > 1e-9:
                die("span self times do not sum to each op's traced wall time "
                    f"(off by {layer_details['self_time_gap_s']:.3g} s)")
            metrics["trace.overhead_frac"] = sum(traced.latency) / sum(phase.latency) - 1.0
            metrics["fail_frac"] = len(phase.failures) / len(phase.latency)
            metrics["samples_per_s"] = phase.samples / sum(phase.latency)
            metrics["probe.failed"] = float(sum(p["failed"] for p in probes))
            units = per_layer_units()
            span_file = OUT / f"{workload}-s{seed}.spans.npz"
            recorder.save(span_file)
            details.update(layer_details, span_file=str(span_file.relative_to(HERE.parent)))
    finally:
        os.chdir(previous)

    attempted = sum(len(p.latency) for p in phases)
    failures = [f for p in phases for f in p.failures]
    details.update(
        passes=phase.passes,
        fail_frac=len(failures) / attempted,
        failures=failures[:20],
        probes=probes,
    )
    if workload == "basin":
        details["samples_per_s"] = phase.samples / sum(phase.latency)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "details": details,
    }


def report(record: dict) -> None:
    d = record["details"]
    print(f"workload {d['workload']}  seed {d['seed']}  trace {d['trace']}  "
          f"inputs sha256 {d['input_sha256'][:16]}")
    print(f"ops {record['attempted']} ({d['passes']:.3g} passes of {d['deck_ops']})  "
          f"failed {record['failed']}  fail_frac {d['fail_frac']:.4g}")
    for call, reason in d["failures"][:5]:
        print(f"  FAILED {call}: {reason}")
    for p in d["probes"]:
        print(f"  probe {p['probe']}: " + (f"FAILS ({p['reason']})" if p["failed"] else "ok"))
    if "samples_per_s" in d:
        print(f"  samples_per_s {d['samples_per_s']:.6g} samples/s (unscaled)")
    if "kernel_ms" in d:
        k = d["kernel_ms"]
        print(f"  calibration kernel {k['median']:.4g} ms median ({k['min']:.4g}-{k['max']:.4g}),"
              f" reference {k['reference']:.4g} ms; unscaled: " +
              ", ".join(f"{name} {value:.6g}" for name, value in d["raw"].items()))
    for group, layers in d.get("largest_self_layers", {}).items():
        print(f"  largest self time on {group}: " +
              ", ".join(f"{name} {share:.1%}" for name, share in layers))
    for name in d.get("absent_spans", []):
        print(f"  span absent: {name} (its metrics read 0)")
    for name, m in record["metrics"].items():
        print(f"  {name:52s} {m['value']:14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
