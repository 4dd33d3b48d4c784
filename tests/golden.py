#!/usr/bin/env python3
"""Golden digests of the CLI and of converge() on the benchmark's seed-419 decks.

    PYTHONPATH=src python3 tests/golden.py [--diff]

rewrites tests/golden_cli.json: one entry per op of the classify, basin and
lattice decks and of their probes, as built by bench/gen.py, in deck order,
each the SHA-256 of (argv, exit code, stdout, stderr) of an in-process
cli.main call; then one entry per op of the orbit deck (without its probe),
in deck order, each the SHA-256 of the dynamics.converge result (converged,
limit coordinates, iterations, repr of final_distance) on the deck's input,
read as bench/run.py reads it.  The decks are written to a temporary
directory and every op runs there, as bench/run.py runs them; a probe's
expect["env"] is set for the duration of its call, and CP2LAB_TOL is unset
otherwise.  tests/test_golden.py compares the current tree against the file.
With --diff the file is left as it is, the workload and argv of every op
whose digest differs from it are printed, one line each, and the exit status
is 1 when any digest differs and 0 when none does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent / "bench"
GOLDEN_FILE = HERE / "golden_cli.json"
SEED = 419
WORKLOADS = ("classify", "basin", "lattice")


def _gen():
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import gen

    return gen


@contextlib.contextmanager
def _environ(env: dict):
    saved = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def op_digest(argv: list[str], env: dict) -> str:
    """SHA-256 of (argv, rc, stdout, stderr) of cli.main(argv) under env."""
    from cp2lab import cli

    out, err = io.StringIO(), io.StringIO()
    with _environ(env), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    record = json.dumps([list(argv), rc, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def orbit_digest(m, p, tol: float) -> str:
    """SHA-256 of the record of dynamics.converge(m, p, tol=tol)."""
    from cp2lab import dynamics

    r = dynamics.converge(m, p, tol=tol)
    limit = None if r.limit is None else [[z.real, z.imag] for z in r.limit.coords]
    record = json.dumps([r.converged, limit, r.iterations, repr(r.final_distance)])
    return hashlib.sha256(record.encode()).hexdigest()


def orbit_entries(root: Path) -> list[list[str]]:
    """["orbit", "converge <file> <index>", digest] per op of the orbit deck,
    its input file written under root."""
    from cp2lab import ProjectivePoint

    deck, _ = _gen().build("orbit", SEED)
    deck.write(root)
    rows = {name: json.loads((root / name).read_text()) for name in deck.files}
    entries = []
    for op in deck.ops:
        _, name, index = op.call
        row = rows[name][index]
        m = np.array([[complex(*z) for z in r] for r in row["matrix"]])
        p = ProjectivePoint.from_vector([complex(*z) for z in row["start"]])
        entries.append(["orbit", f"converge {name} {index}", orbit_digest(m, p, row["tol"])])
    return entries


def deck_ops(root: Path) -> list[tuple[str, list[str], dict]]:
    """(workload, argv, env) of every CLI op of the decks and probes, with
    their input files written under root."""
    gen = _gen()
    ops = []
    for workload in WORKLOADS:
        for deck in gen.build(workload, SEED):
            deck.write(root)
            ops += [(workload, list(op.call[1]), op.expect.get("env", {}))
                    for op in deck.ops]
    return ops


def digests(root: Path) -> list[list[str]]:
    """[workload, argv joined by spaces, digest] per CLI op, run with root as
    the working directory and CP2LAB_TOL unset except where a probe sets it,
    then the orbit entries."""
    ops = deck_ops(root)
    previous = os.getcwd()
    saved_tol = os.environ.pop("CP2LAB_TOL", None)
    os.chdir(root)
    try:
        return ([[w, " ".join(argv), op_digest(argv, env)] for w, argv, env in ops]
                + orbit_entries(root))
    finally:
        os.chdir(previous)
        if saved_tol is not None:
            os.environ["CP2LAB_TOL"] = saved_tol


def changed_ops(entries: list[list[str]], expected: list[list[str]]) -> list[str]:
    """"<workload>: <argv>" of every entry whose digest differs from the
    expected entry at the same position."""
    if [e[:2] for e in entries] != [e[:2] for e in expected]:
        raise SystemExit("the decks changed: regenerate the file instead")
    return [f"{w}: {argv}" for (w, argv, d), (_, _, e) in zip(entries, expected) if d != e]


def main(argv: list[str] | None = None) -> int:
    """Write or compare the digests; the exit status (1 when --diff finds a
    changed op, else 0)."""
    parser = argparse.ArgumentParser(description="Write or compare the golden digests.")
    parser.add_argument("--diff", action="store_true",
                        help="print the ops whose digest differs from the file and exit 1 "
                             "if there are any; do not write it")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        entries = digests(Path(tmp))
    if args.diff:
        changed = changed_ops(entries, json.loads(GOLDEN_FILE.read_text())["ops"])
        print("\n".join(changed + [f"{len(changed)} of {len(entries)} ops changed"]))
        return 1 if changed else 0
    lines = ",\n".join("  " + json.dumps(e) for e in entries)
    GOLDEN_FILE.write_text(f'{{"seed": {SEED}, "ops": [\n{lines}\n]}}\n')
    print(f"wrote {len(entries)} digests to {GOLDEN_FILE.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
