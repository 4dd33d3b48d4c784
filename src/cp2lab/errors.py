"""Exception hierarchy, tolerance rule and iteration default shared by all modules."""

from __future__ import annotations

import math

DEFAULT_MAX_ITER = 10_000   # converge's and basin's budget, here for --help to show without numpy


def check_tol(value: float) -> float:
    """value itself if it is a finite number > 0, the one rule for every tolerance."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"tol must be a finite number > 0, got {value!r}")
    return value


class Cp2LabError(Exception):
    """Base class for every domain error raised by this package."""


# numerical linear algebra

class AmbiguousClustering(Cp2LabError):
    """A tolerance cannot settle a decision stably.

    Raised when eigenvalue clusters are too close to merge or separate,
    when the pivot tolerance cannot decide the rank of a near-singular
    matrix (an eigenvalue without a null direction, or an inconsistent
    rank profile), and when the fixed points found do not fit any kind.
    """


# group and classification

class NotInGroup(Cp2LabError):
    """Matrix fails the SU(1,2) membership test."""


class DegenerateElement(Cp2LabError):
    """Scalar matrix: every projective point is fixed."""


class NotOnBoundary(Cp2LabError):
    """Point is not on the boundary sphere of the unit ball."""


class NotFixed(Cp2LabError):
    """Point is not fixed by the given group element."""


class NotNonElliptic(Cp2LabError):
    """Operation requires a hyperbolic or parabolic element."""


# lattice arithmetic

class RankMismatch(Cp2LabError):
    """Divisor class length does not match the ambient lattice rank."""


class ParityViolation(Cp2LabError):
    """D.D + D.K is odd, so the adjunction genus is not an integer."""


class NotExceptionalClass(Cp2LabError):
    """Class does not satisfy D.D = -1 and D.K = -1."""


class NonUnimodularComplement(Cp2LabError):
    """Orthogonal complement failed the unimodularity check.

    Unreachable for valid inputs; raised only on internal arithmetic bugs.
    """


class NotSquareOne(Cp2LabError):
    """The reference class does not have self-intersection 1."""


class SetNotInvariant(Cp2LabError):
    """Isometry maps some element of the given class set outside the set."""


class NoCandidate(Cp2LabError):
    """No component with negative canonical pairing exists (or preconditions fail)."""


# script replay

class UnknownName(Cp2LabError):
    """Script referenced a curve or point name that does not exist."""


class AssertionFailed(Cp2LabError):
    """An assert step in a replay script compared unequal values."""

    def __init__(self, step: int, expected, got):
        super().__init__(f"assert step {step}: expected {expected!r}, got {got!r}")
        self.step = step
        self.expected = expected
        self.got = got


# input handling

class InputFormatError(Cp2LabError):
    """Malformed JSON input or an input that violates a schema."""
