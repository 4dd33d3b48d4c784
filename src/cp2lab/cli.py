"""Command-line front door: JSON in, JSON out, under the contract _HELP, which
--help prints with this module's limits.  A subcommand imports only the
layers it uses: basin and classify --exp load numpy, classify of a matrix the
SU(1,2) layers alone, and lattice, replay and --help the lattice at most."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import DEFAULT_MAX_ITER, Cp2LabError, AssertionFailed, InputFormatError, check_tol

ENV_TOL = "CP2LAB_TOL"
# largest scan `lattice exceptional` accepts: (2 bound + 1)^(rank - 2) leaves
MAX_EXCEPTIONAL_LEAVES = 10**6
# largest blow-up count `--blowups` and `replay --k` accept: blow-ups are not
# re-validated, but each copies the dense Gram matrix, a replay extends every
# tracked class by a coordinate, and its log holds every curve's square at
# every step, so n blow-ups copy O(n^3) integers and print O(n^2)
MAX_BLOWUPS = 200
# largest total of ball and line samples `basin` accepts: the samples are
# drawn and resolved as dense arrays, so memory grows with the count
MAX_BASIN_SAMPLES = 10**6
# largest `basin --max-iter`: a sample that never resolves is iterated for the
# whole budget, so the time grows linearly with it
MAX_BASIN_ITER = 10**6

_HELP = f"""\
Subcommands: classify (matrix or algebra-element file), basin (coverage
report for a non-elliptic element), lattice (Hirzebruch square-one scan,
exceptional-class enumeration, signatures) and replay (construction
scripts, built-in or from a file).
Exit codes: 0 success, 1 domain error, 2 input error.  Successful runs
print a JSON payload on stdout; failures print a one-line JSON error
object on stderr and nothing on stdout.  A classification decision the
tolerances cannot settle (a rank, an eigenvalue cluster, a fixed-point
location) exits 1 with error "AmbiguousClustering"; a matrix too large for
the membership check to decide, or a `--exp` element whose exponential is
not finite, exits 1 with "NotInGroup".  --tol sets classify's boundary
test and the eigenvalue gap (10 tol) of a Jordan shape.  It does not affect
basin, nor multiplicity or the hyperbolic / elliptic sign, both read from
the characteristic cubic at a noise floor scaled like the matrix; so at a
repeated root a verdict is the kind of a matrix within that floor of the
input.  {ENV_TOL}, when set, supplies the default of --tol; both must be
finite numbers > 0.  Counts, indices and bounds must be non-negative,
blow-up counts (`--blowups`, and `replay --k`) at most {MAX_BLOWUPS}, `basin`
refuses more than {MAX_BASIN_SAMPLES:,} samples in all (`--samples` plus
`--line-samples`, which defaults to samples // 10) and a `--max-iter` above
{MAX_BASIN_ITER:,}, and `lattice exceptional` refuses scans of more than
{MAX_EXCEPTIONAL_LEAVES:,} coefficient vectors.  JSON true and false are not
numbers; a script's integers must be JSON ints.
"""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _tolerance(text: str) -> float:
    """Tolerance from --tol or CP2LAB_TOL, checked by errors.check_tol."""
    try:
        return check_tol(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"tolerance must be a finite number > 0, got {text!r}") from None


def _count(text: str) -> int:
    """Non-negative integer flag (blow-up counts, indices, bounds, steps)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _blowups(text: str) -> int:
    """Blow-up or step count: a non-negative integer up to MAX_BLOWUPS."""
    value = _count(text)
    if value > MAX_BLOWUPS:
        raise argparse.ArgumentTypeError(f"expected at most {MAX_BLOWUPS}, got {text!r}")
    return value


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and reused for every call."""
    parser = _Parser(prog="cp2lab", description=_HELP)
    parser.add_argument("--tol", type=_tolerance, default=None,
                        help=f"set classify's boundary and eigenvalue-gap tolerances; no "
                             f"effect on basin, eigenvalue multiplicity or the discriminant's "
                             f"sign (default: ${ENV_TOL})")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a group element")
    p_classify.set_defaults(run=_cmd_classify)
    p_classify.add_argument("input", help="JSON file: 3x3 matrix, or algebra element with --exp")
    p_classify.add_argument("--exp", action="store_true",
                            help="input is an algebra element; exponentiate it first")

    p_basin = sub.add_parser("basin", help="basin coverage report")
    p_basin.set_defaults(run=_cmd_basin)
    p_basin.add_argument("input", help="JSON file with a 3x3 matrix")
    p_basin.add_argument("--samples", type=int, default=1000,
                         help="samples from the open unit ball (default: %(default)s)")
    p_basin.add_argument("--line-samples", type=int, default=None,
                         help="samples on random lines through the attractive fixed point "
                              "(default: samples // 10)")
    p_basin.add_argument("--seed", type=int, default=0,
                         help="sampling seed, 0 <= seed < 2**128 (default: %(default)s)")
    p_basin.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                         help=f"iterations per sample and direction, at most {MAX_BASIN_ITER:,} "
                              f"(default: {DEFAULT_MAX_ITER:,})")

    p_lattice = sub.add_parser("lattice", help="exact lattice queries")
    p_lattice.set_defaults(run=_cmd_lattice)
    lat_sub = p_lattice.add_subparsers(dest="lattice_command", required=True)

    p_hirz = lat_sub.add_parser("hirzebruch", help="Hirzebruch surface lattice queries")
    p_hirz.add_argument("--n", type=_count, required=True)
    p_hirz.add_argument("--square-one", action="store_true",
                        help="list (a, b) with (aF + bB)^2 = 1")
    p_hirz.add_argument("--bound", type=_count, default=1000)

    p_exc = lat_sub.add_parser("exceptional", help="enumerate exceptional classes")
    p_exc.add_argument("--blowups", type=_blowups, required=True,
                       help=f"blow-ups of the projective plane, at most {MAX_BLOWUPS}")
    p_exc.add_argument("--bound", type=_count, default=3)

    p_sig = lat_sub.add_parser("signature", help="signature of a lattice")
    group = p_sig.add_mutually_exclusive_group(required=True)
    group.add_argument("--blowups", type=_blowups,
                       help=f"blow-ups of the projective plane, at most {MAX_BLOWUPS}")
    group.add_argument("--hirzebruch", type=_count, help="Hirzebruch surface index")

    p_replay = sub.add_parser("replay", help="run a construction script")
    p_replay.set_defaults(run=_cmd_replay)
    p_replay.add_argument("script", nargs="?", help="script JSON file")
    p_replay.add_argument("--builtin", choices=["sigma0", "sigma2", "sigma-steps", "standard"],
                          help="run a built-in script instead of a file")
    p_replay.add_argument("--k", type=_blowups, default=0,
                          help=f"step count for sigma-steps / standard, at most {MAX_BLOWUPS}")
    return parser


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, text that is not UTF-8, or an integer
        # past Python's digit limit; RecursionError: arrays nested too deep
        raise InputFormatError(f"malformed JSON in {path}: {exc}") from exc


def _cmd_classify(args) -> dict:
    from . import jsonio, su12
    obj = _load_json(args.input)
    if args.exp:  # exp silences its own floating-point warnings
        a = su12.GroupElement.exp(jsonio.algebra_from_json(obj))
    else:
        a = jsonio.mat3_from_json(obj)
    return jsonio.classification_report(su12.classify(a, tol=args.tol))


def _cmd_basin(args) -> dict:
    import numpy as np
    from . import dynamics, jsonio
    line_samples = args.samples // 10 if args.line_samples is None else args.line_samples
    if args.samples + line_samples > MAX_BASIN_SAMPLES:
        raise _UsageError(f"--samples {args.samples} with {line_samples} line samples "
                          f"draws more than {MAX_BASIN_SAMPLES} samples")
    if args.max_iter > MAX_BASIN_ITER:
        raise _UsageError(f"--max-iter {args.max_iter} is above {MAX_BASIN_ITER}")
    matrix = jsonio.mat3_from_json(_load_json(args.input))
    try:
        with np.errstate(all="ignore"):  # for this call only: the caller's state is kept
            report = dynamics.basin_coverage_check(
                matrix,
                samples=args.samples,
                line_samples=args.line_samples,
                seed=args.seed,
                max_iter=args.max_iter,
            )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    return jsonio.basin_report_to_json(report)


def _blown_up_plane(k: int):
    from . import lattice
    lat = lattice.p2_lattice()
    for _ in range(k):
        lat = lat.blow_up()
    return lat


def _cmd_lattice(args):
    from . import jsonio, lattice
    if args.lattice_command == "hirzebruch":
        if not args.square_one:
            return jsonio.lattice_to_json(lattice.hirzebruch_lattice(args.n))
        pairs = lattice.square_one_classes(args.n, args.bound)
        return [list(p) for p in pairs]
    if args.lattice_command == "exceptional":
        # rank - 2 = blowups - 1; the exponent is capped, since 3^64 is far past
        # the limit and the power of a huge --bound must stay small
        leaves = (2 * args.bound + 1) ** max(min(args.blowups - 1, 64), 0)
        if leaves > MAX_EXCEPTIONAL_LEAVES:
            raise _UsageError(
                f"--blowups {args.blowups} --bound {args.bound} scans more than "
                f"{MAX_EXCEPTIONAL_LEAVES} coefficient vectors"
            )
        classes = lattice.enumerate_exceptional_classes(_blown_up_plane(args.blowups), args.bound)
        return [list(d.coeffs) for d in classes]
    # signature, the one subcommand left
    if args.blowups is not None:
        lat = _blown_up_plane(args.blowups)
    else:
        lat = lattice.hirzebruch_lattice(args.hirzebruch)
    return {"rank": lat.rank, "signature": list(lat.signature())}


def _cmd_replay(args) -> dict:
    from . import replay
    if (args.script is None) == (args.builtin is None):
        raise _UsageError("provide exactly one of a script file or --builtin")
    if args.builtin is not None:
        if args.builtin == "sigma0":
            script = replay.builtin_sigma0_singular()
        elif args.builtin == "sigma2":
            script = replay.builtin_sigma2_singular()
        elif args.builtin == "sigma-steps":
            script = replay.builtin_sigma_chain(args.k)
        else:
            script = replay.builtin_standard_blowups(args.k)
    else:
        script = replay.script_from_json(_load_json(args.script))
    state = replay.run(script)
    return replay.state_to_json(state)


def _emit_error(kind: str, exc: Exception) -> None:
    payload = {"error": kind, "detail": str(exc)}
    if isinstance(exc, AssertionFailed):
        payload["step"] = exc.step
        payload["expected"] = exc.expected
        payload["got"] = exc.got
    print(json.dumps(payload), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.tol is None and os.environ.get(ENV_TOL):
            args.tol = _tolerance(os.environ[ENV_TOL])
    except argparse.ArgumentTypeError as exc:
        _emit_error("usage", _UsageError(f"{ENV_TOL}: {exc}"))
        return 2
    except _UsageError as exc:
        _emit_error("usage", exc)
        return 2

    try:
        payload = args.run(args)
    except _UsageError as exc:
        _emit_error("usage", exc)
        return 2
    except InputFormatError as exc:
        _emit_error("input", exc)
        return 2
    except Cp2LabError as exc:
        _emit_error(type(exc).__name__, exc)
        return 1

    # dumps, not dump: json.dump to a stream runs the pure-Python encoder
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
