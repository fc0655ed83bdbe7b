"""Propositions as projectors: trivalent truth values, meet/join/negation on
commuting families, state probabilities, and the distance-based triangle and
quadrilateral inequality checkers.

Meet and join are implemented only for commuting projectors, where the lattice
meet is the operator product; a non-commuting pair raises
:class:`~bellkit.errors.CommutationError` instead of silently computing a
subspace intersection. A pair is checked once: meet, join and negation skip the
projector re-check, and a distance reads both probabilities off one product AB.

The quadrilateral check reads the CHSH form that beta and Fine's criterion read, on
distances d(X, Y) = (1 - <xy>)/2 of +1 projectors, so its slack is (2 - |CHSH|)/2.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .errors import CommutationError
from .linalg import (
    COMMUTE_TOL,
    DEFAULT_TOL,
    SLACK_TOL,
    DensityOperator,
    PureState,
    as_matrix,
    commutator,
    frobenius_norm,
    is_projector,
)
from .scenario import CHSH_LABELS, _chsh_paths


class TruthValue(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNDEFINED = "undefined"


class Proposition:
    """A yes/no observable: a labelled Hermitian idempotent (projector)."""

    def __init__(self, label: str, projector):
        p = as_matrix(projector)
        if not is_projector(p):
            raise ValueError(f"proposition {label!r}: matrix is not a projector within tolerance")
        self._adopt(label, p.copy())

    @classmethod
    def _derived(cls, label: str, p: np.ndarray) -> "Proposition":
        """A fresh matrix built from checked propositions, kept without a projector re-check."""
        prop = cls.__new__(cls)
        prop._adopt(label, p)
        return prop

    def _adopt(self, label: str, p: np.ndarray) -> None:
        p.setflags(write=False)
        self.label = str(label)
        self._projector = p

    @property
    def projector(self) -> np.ndarray:
        return self._projector

    @property
    def dim(self) -> int:
        return self._projector.shape[0]

    def __repr__(self) -> str:
        return f"Proposition({self.label!r}, dim={self.dim})"


def _require_commuting_pair(a: Proposition, b: Proposition, what: str) -> None:
    _require_same_dim(a.dim, b.dim, what)
    norm = frobenius_norm(commutator(a.projector, b.projector))
    if norm > COMMUTE_TOL:
        raise CommutationError(f"{what} requires commuting projectors {a.label!r}, {b.label!r}", norm)


def _require_same_dim(dim_a: int, dim_b: int, what: str) -> None:
    if dim_a != dim_b:
        raise ValueError(f"{what}: dimension mismatch ({dim_a} vs {dim_b})")


def truth_value(p: Proposition, psi: PureState) -> TruthValue:
    """Trivalent valuation: TRUE iff P|psi> = |psi>, FALSE iff P|psi> = 0, else UNDEFINED."""
    _require_same_dim(p.dim, psi.dim, "truth_value")
    image = p.projector @ psi.amplitudes
    if frobenius_norm(image - psi.amplitudes) <= DEFAULT_TOL:
        return TruthValue.TRUE
    if frobenius_norm(image) <= DEFAULT_TOL:
        return TruthValue.FALSE
    return TruthValue.UNDEFINED


def meet(a: Proposition, b: Proposition) -> Proposition:
    """Lattice meet (conjunction) of commuting propositions: the product AB."""
    _require_commuting_pair(a, b, "meet")
    return Proposition._derived(f"({a.label}&{b.label})", a.projector @ b.projector)


def join(a: Proposition, b: Proposition) -> Proposition:
    """Lattice join (disjunction) of commuting propositions: A + B - AB."""
    _require_commuting_pair(a, b, "join")
    return Proposition._derived(f"({a.label}|{b.label})", a.projector + b.projector - a.projector @ b.projector)


def negate(a: Proposition) -> Proposition:
    """Negation: I - A."""
    return Proposition._derived(f"~{a.label}", np.eye(a.dim, dtype=complex) - a.projector)


def _clipped_expectation(rho: DensityOperator, m: np.ndarray) -> float:
    return float(np.clip(rho.expectation(m), 0.0, 1.0))


def state_prob(p: Proposition, rho: DensityOperator) -> float:
    """Probability Tr(rho P), clamped to [0, 1]."""
    _require_same_dim(p.dim, rho.dim, "state_prob")
    return _clipped_expectation(rho, p.projector)


class DistanceReport(NamedTuple):
    """State-dependent distance between two commuting propositions."""
    d: float
    p_meet: float
    p_join: float


def distance(a: Proposition, b: Proposition, s: DensityOperator) -> DistanceReport:
    """d(A, B) = p(A or B) - p(A and B): the probability the two disagree.

    Bounded by [0, 1]; 0 for identical propositions, 1 for a proposition and
    its negation. The pair is checked once, as :func:`meet` checks it; both
    probabilities are clamped expectations of AB and A + B - AB.
    """
    return _distance(a, b, s, None)


def _distance(a: Proposition, b: Proposition, s: DensityOperator, checker: str | None) -> DistanceReport:
    """:func:`distance` inside ``checker``, whose errors then name it instead of distance and meet."""
    _require_same_dim(a.dim, s.dim, checker or "distance")
    _require_commuting_pair(a, b, checker or "meet")
    ab = a.projector @ b.projector
    p_meet = _clipped_expectation(s, ab)
    p_join = _clipped_expectation(s, a.projector + b.projector - ab)
    return DistanceReport(d=p_join - p_meet, p_meet=p_meet, p_join=p_join)


class TriangleReport(NamedTuple):
    holds: bool
    slack: float
    distances: tuple[float, float, float]  # d(A,B), d(A,C), d(B,C)


def triangle_check(a: Proposition, b: Proposition, c: Proposition, s: DensityOperator) -> TriangleReport:
    """Check |d(A,B) - d(A,C)| <= d(B,C) <= d(A,B) + d(A,C) for a commuting triple.

    The slack is the minimum margin over both sides; negative means violated.
    """
    d_ab = _distance(a, b, s, "triangle_check").d
    d_ac = _distance(a, c, s, "triangle_check").d
    d_bc = _distance(b, c, s, "triangle_check").d
    slack = min(d_bc - abs(d_ab - d_ac), d_ab + d_ac - d_bc)
    return TriangleReport(holds=slack >= -SLACK_TOL, slack=slack, distances=(d_ab, d_ac, d_bc))


class QuadReport(NamedTuple):
    holds: bool
    slack: float
    worst_permutation: str
    per_permutation: dict[str, float]


def quad_check(a: Proposition, b: Proposition, c: Proposition, d: Proposition, s: DensityOperator) -> QuadReport:
    """Quadrilateral inequality d(A,D) <= d(A,B) + d(B,C) + d(C,D) over the CHSH
    form's four relabellings, each checked together with its complemented partner.

    Only the four adjacent pairs {A,B}, {B,C}, {C,D}, {A,D} must commute; the
    diagonals {A,C} and {B,D} may not. The form reads their distances: each
    relabelling gives the path inequality, path - closing >= 0, and the same
    inequality on (A, ~B, C, ~D), which by d(X, ~Y) = 1 - d(X, Y) reads
    2 + closing - path >= 0. Together the eight checks are the necessary
    conditions a classical joint distribution must satisfy.

    The report carries the tightest slack (negative when violated) and the
    relabelling achieving it; ``per_permutation`` keeps the form's label order.
    """
    distances = [_distance(x, y, s, "quad_check").d for x, y in ((a, b), (b, c), (c, d), (a, d))]
    per = {label: min(path - closing, 2.0 + closing - path)
           for label, (path, closing) in zip(CHSH_LABELS, _chsh_paths(*distances))}
    worst = min(per, key=per.get)
    slack = per[worst]
    return QuadReport(holds=slack >= -SLACK_TOL, slack=slack, worst_permutation=worst, per_permutation=per)
