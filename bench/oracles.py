"""Per-op oracles: each returns None when the output is right, or a reason.

A CLI op's output is (rc, stdout, stderr); rc is the exception object when
cli.main raised instead of returning.  The documented contract: exit 0 with
one JSON document on stdout and nothing on stderr, or exit 1/2 with nothing
on stdout and one JSON line carrying an "error" key on stderr.  The oracles
use only the generator's labels and this module's own arithmetic.
"""

from __future__ import annotations

import json
import math

import numpy as np


def cli_shape(out) -> tuple[str | None, object]:
    """(reason, payload): payload is the stdout JSON on exit 0, else the
    stderr error object."""
    rc, stdout, stderr = out
    if isinstance(rc, BaseException):
        return f"escaped {type(rc).__name__}: {rc}", None
    if rc == 0:
        if stderr:
            return "exit 0 with output on stderr", None
        lines = stdout.splitlines()
        if len(lines) != 1:
            return f"exit 0 with {len(lines)} stdout lines", None
        try:
            return None, json.loads(lines[0])
        except json.JSONDecodeError:
            return "stdout is not JSON", None
    if rc in (1, 2):
        lines = stderr.splitlines()
        if stdout or len(lines) != 1:
            return f"exit {rc} without exactly one stderr line and empty stdout", None
        try:
            err = json.loads(lines[0])
        except json.JSONDecodeError:
            return "stderr is not JSON", None
        if not isinstance(err, dict) or "error" not in err:
            return "stderr JSON lacks an error key", None
        return None, err
    return f"undocumented exit code {rc!r}", None


def check_cli(expect: dict, out) -> str | None:
    reason, payload = cli_shape(out)
    if reason:
        return reason
    rc = out[0]
    allowed = expect["rc"] if isinstance(expect["rc"], list) else [expect["rc"]]
    if rc not in allowed:
        return f"exit {rc}, expected {expect['rc']}"
    if rc != 0:
        if "error" in expect and payload["error"] != expect["error"]:
            return f"error {payload['error']!r}, expected {expect['error']!r}"
        return None
    return _check_payload(expect, payload)


def _check_payload(expect: dict, payload) -> str | None:
    if "kind" in expect:
        got = (payload.get("kind"), payload.get("subtype"))
        if got != (expect["kind"], expect["subtype"]):
            return f"classified {got}, expected {(expect['kind'], expect['subtype'])}"
    if "samples" in expect:
        if payload.get("samples") != expect["samples"]:
            return f"samples {payload.get('samples')}, expected {expect['samples']}"
        if payload.get("unresolved") != 0:
            return f"unresolved {payload.get('unresolved')}"
    if "count" in expect:
        return _check_exceptional(expect["blowups"], expect["count"], payload)
    if "signature" in expect:
        if payload != {"rank": expect["rank"], "signature": expect["signature"]}:
            return f"signature payload {payload}, expected rank {expect['rank']} {expect['signature']}"
    if "square_one" in expect:
        if payload != expect["square_one"]:
            return f"square-one classes {payload}, expected {expect['square_one']}"
    if "n" in expect:
        n = expect["n"]
        want = {"labels": ["F", "B"], "gram": [[0, 1], [1, -n]], "K": [-(n + 2), -2]}
        if payload != want:
            return f"Hirzebruch lattice {payload}, expected {want}"
    if "n_blowups" in expect:
        got = (payload.get("n_blowups"), payload.get("n_contractions"),
               len(payload.get("lattice", {}).get("gram", [])))
        want = (expect["n_blowups"], expect["n_contractions"], expect["rank"])
        if got != want:
            return f"replay (blow-ups, contractions, rank) {got}, expected {want}"
    return None


def _check_exceptional(k: int, count: int, payload) -> str | None:
    """Classes of the k-fold blow-up of the plane with D.D = -1 and D.K = -1,
    on the basis H, E1..Ek with H.H = 1, Ei.Ei = -1 and K = -3H + sum Ei,
    so that D.K = -3 d0 - (d1 + ... + dk)."""
    if not isinstance(payload, list) or len(payload) != count:
        return f"{len(payload) if isinstance(payload, list) else payload!r} classes, expected {count}"
    seen = set()
    for c in payload:
        if len(c) != k + 1:
            return f"class {c} has rank {len(c)}, expected {k + 1}"
        square = c[0] * c[0] - sum(x * x for x in c[1:])
        canonical = -3 * c[0] - sum(c[1:])
        if square != -1 or canonical != -1:
            return f"class {c} has D.D = {square}, D.K = {canonical}"
        seen.add(tuple(c))
    if len(seen) != count:
        return "duplicate exceptional classes"
    if payload != sorted(payload):
        return "exceptional classes not in sorted order"
    return None


def chordal(p, q) -> float:
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    cross = np.cross(p, q)
    return math.sqrt(float(np.vdot(cross, cross).real) /
                     float(np.vdot(p, p).real * np.vdot(q, q).real))


def check_orbit(expect: dict, result) -> str | None:
    """result is dynamics.OrbitResult, or the exception converge raised."""
    if isinstance(result, BaseException):
        return f"escaped {type(result).__name__}: {result}"
    if not result.converged:
        return f"not converged after {result.iterations} steps"
    attractive = [complex(re, im) for re, im in expect["attractive"]]
    dist = chordal(result.limit.coords, attractive)
    if not dist <= expect["radius"]:
        return f"limit {dist:.3g} from the attractive point, radius {expect['radius']:g}"
    return None


def check(op, out) -> str | None:
    if op.call[0] == "converge":
        return check_orbit(op.expect, out)
    return check_cli(op.expect, out)
