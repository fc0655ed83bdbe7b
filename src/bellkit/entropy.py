"""Shannon, von Neumann, and linear entropies, their concavity harness, the bipartite report
whose slacks set subadditivity and classical monotonicity against the quantum (Araki-Lieb)
triangle, and the linear-entropy (purity) sufficient condition for satisfying every CHSH-type
inequality, together with the purity bound that powers it. Von Neumann entropies read each
state's kept eigenvalue-only spectrum, and both sides of a split come from one kept pair.
"""

from __future__ import annotations

import math
from typing import Literal, NamedTuple, Sequence

import numpy as np

from .linalg import PROB_TOL, SLACK_TOL, DensityOperator, _reduced_pair, probability_vector, tensor_product
from .scenario import BellScenario, beta

EntropyKind = Literal["shannon", "von_neumann", "linear_classical", "linear_quantum"]
LogBase = Literal["e", "2"]


class ClassicalDistribution:
    """Finite probability vector, optionally carrying a bipartite (M, N) shape."""

    def __init__(self, weights, dims: tuple[int, int] | None = None):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be a 1-D sequence")
        w = probability_vector(w)
        self.weights = w
        if dims is not None:
            m, n = dims
            if m * n != w.shape[0]:
                raise ValueError(f"dims {dims} do not match {w.shape[0]} weights")
            dims = (int(m), int(n))
        self.dims = dims

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    def _require_bipartite(self) -> tuple[int, int]:
        if self.dims is None:
            raise ValueError("distribution has no bipartite structure")
        return self.dims

    def marginal(self, keep: int) -> "ClassicalDistribution":
        """Marginal over one side of the bipartite index (keep = 1 or 2)."""
        m, n = self._require_bipartite()
        joint = self.weights.reshape(m, n)
        if keep == 1:
            return ClassicalDistribution(joint.sum(axis=1))
        if keep == 2:
            return ClassicalDistribution(joint.sum(axis=0))
        raise ValueError(f"keep must be 1 or 2, got {keep}")

    def __repr__(self) -> str:
        return f"ClassicalDistribution(size={self.size}, dims={self.dims})"


def _log_scale(base: LogBase) -> float:
    if base == "e":
        return 1.0
    if base == "2":
        return 1.0 / math.log(2.0)
    raise ValueError(f"log base must be 'e' or '2', got {base!r}")


def _entropy_of_probs(p: np.ndarray, base: LogBase) -> float:
    """-sum p log p over entries >= PROB_TOL; inputs are validated, so smaller ones are roundoff."""
    positive = p[p >= PROB_TOL]
    return float(-(positive * np.log(positive)).sum() * _log_scale(base))  # .sum(): np.sum's reduce, unwrapped


def shannon_entropy(p: ClassicalDistribution, base: LogBase = "e") -> float:
    """-sum p log p with the 0 log 0 = 0 convention; log(n) for uniform over n."""
    return _entropy_of_probs(p.weights, base)


def von_neumann_entropy(rho: DensityOperator, base: LogBase = "e") -> float:
    """-Tr(rho log rho), computed from the state's kept spectrum; 0 for pure states."""
    return _entropy_of_probs(rho.spectrum(), base)


def linear_entropy_classical(p: ClassicalDistribution) -> float:
    """1 - sum p^2: in [0, 1 - 1/n], zero exactly on point masses."""
    return float(1.0 - np.sum(p.weights**2))


def linear_entropy_quantum(rho: DensityOperator) -> float:
    """1 - Tr(rho^2): in [0, 1 - 1/dim], zero exactly on pure states."""
    return 1.0 - rho.purity()


QUANTUM_KINDS = ("von_neumann", "linear_quantum")
CLASSICAL_KINDS = ("shannon", "linear_classical")


def _entropy(obj, kind: EntropyKind, base: LogBase) -> float:
    if kind == "shannon":
        return shannon_entropy(obj, base)
    if kind == "von_neumann":
        return von_neumann_entropy(obj, base)
    if kind == "linear_classical":
        return linear_entropy_classical(obj)
    if kind == "linear_quantum":
        return linear_entropy_quantum(obj)
    raise ValueError(f"unknown entropy kind {kind!r}")


class EntropyReport(NamedTuple):
    """Joint and marginal entropies of a bipartite state or distribution."""
    s12: float
    s1: float
    s2: float
    kind: EntropyKind
    log_base: LogBase

    @property
    def subadditivity(self) -> float:
        """S(1) + S(2) - S(12); >= 0 for all four kinds."""
        return self.s1 + self.s2 - self.s12

    @property
    def monotonicity(self) -> float:
        """S(12) - max(S(1), S(2)); >= 0 for classical kinds, negative for entangled states."""
        return self.s12 - max(self.s1, self.s2)

    @property
    def triangle(self) -> float:
        """Araki-Lieb slack S(12) - |S(1) - S(2)|; >= 0 always."""
        return self.s12 - abs(self.s1 - self.s2)


def entropy_report(
    obj: DensityOperator | ClassicalDistribution,
    kind: EntropyKind,
    dims: tuple[int, int] | None = None,
    base: LogBase = "e",
) -> EntropyReport:
    """Entropies (joint, side 1, side 2) for a bipartite input of the matching kind."""
    if kind in QUANTUM_KINDS:
        if not isinstance(obj, DensityOperator):
            raise TypeError(f"{kind} entropy needs a DensityOperator")
        if dims is None:
            raise ValueError("quantum bipartite report needs dims=(M, N)")
        r1, r2 = _reduced_pair(obj, dims)
        return EntropyReport(
            s12=_entropy(obj, kind, base), s1=_entropy(r1, kind, base),
            s2=_entropy(r2, kind, base), kind=kind, log_base=base,
        )
    if not isinstance(obj, ClassicalDistribution):
        raise TypeError(f"{kind} entropy needs a ClassicalDistribution")
    if dims is not None and obj.dims != tuple(dims):
        obj = ClassicalDistribution(obj.weights, dims=tuple(dims))
    return EntropyReport(
        s12=_entropy(obj, kind, base),
        s1=_entropy(obj.marginal(1), kind, base),
        s2=_entropy(obj.marginal(2), kind, base),
        kind=kind, log_base=base,
    )


# ---------------------------------------------------------------------------
# Property checkers (positive slack = inequality satisfied with margin)
# ---------------------------------------------------------------------------

def check_concavity(a, b, lambda_grid: Sequence[float], kind: EntropyKind, base: LogBase = "e") -> float:
    """min over the grid of S(mix) - lam S(a) - (1 - lam) S(b); >= 0 for all kinds."""
    sa = _entropy(a, kind, base)
    sb = _entropy(b, kind, base)
    slack = math.inf
    for lam in lambda_grid:
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"mixing weight {lam} outside [0, 1]")
        if kind in QUANTUM_KINDS:
            mix = DensityOperator._derived(lam * a.matrix + (1.0 - lam) * b.matrix)  # convex: not re-checked
        else:
            mix = ClassicalDistribution(lam * a.weights + (1.0 - lam) * b.weights, dims=a.dims)
        slack = min(slack, _entropy(mix, kind, base) - lam * sa - (1.0 - lam) * sb)
    return slack


# ---------------------------------------------------------------------------
# Linear-entropy sufficient condition and the purity bound behind it
# ---------------------------------------------------------------------------

class LinearEntropyVerdict(NamedTuple):
    """Verdict of the linear-entropy sufficient condition.

    ``holds`` compares ``lhs = MN S(12) + MN - M - N`` against
    ``rhs = M S(1) + N S(2)`` (linear entropies). ``purity_margin`` is the
    equivalent purity-form margin ``2(MN - M - N) - (MN P12 - M P1 - N P2)``
    (equal to lhs - rhs up to roundoff). ``beta_bound_margin`` is
    ``-(MN P12 - M P1 - N P2)``: when it is nonnegative the purity bound caps
    every CHSH value at 2 regardless of dimensions, and at M = N = 2 it
    coincides with lhs - rhs.
    """
    lhs: float
    rhs: float
    holds: bool
    purity_margin: float
    beta_bound_margin: float
    beta_bound_implied: bool


def _purity_excess(rho12: DensityOperator, dims: tuple[int, int]) -> float:
    """MN Tr(rho12^2) - M Tr(rho1^2) - N Tr(rho2^2)."""
    m, n = dims
    r1, r2 = _reduced_pair(rho12, dims)
    return m * n * rho12.purity() - m * r1.purity() - n * r2.purity()


def linear_entropy_criterion(rho12: DensityOperator, dims: tuple[int, int]) -> LinearEntropyVerdict:
    """Sufficient condition for every CHSH-type inequality in terms of linear entropies.

    The condition holds iff the purity excess MN P12 - M P1 - N P2 stays below
    2(MN - M - N). At M = N = 2, its interesting regime, that threshold is 0,
    and a nonpositive excess combined with the purity bound forces |CHSH| <= 2.
    """
    m, n = dims
    rep = entropy_report(rho12, "linear_quantum", dims=dims)
    lhs = m * n * rep.s12 + m * n - m - n
    rhs = m * rep.s1 + n * rep.s2
    excess = _purity_excess(rho12, dims)
    return LinearEntropyVerdict(
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs - SLACK_TOL,
        purity_margin=2.0 * (m * n - m - n) - excess,
        beta_bound_margin=-excess,
        beta_bound_implied=-excess >= -SLACK_TOL,
    )


def correlation_gap_operator(rho12: DensityOperator, dims: tuple[int, int]) -> np.ndarray:
    """rho12 minus its uncorrelated reconstruction:
    Q = rho12 - rho1 (x) I/N - I/M (x) rho2 + I/(MN). Tr(Q^2) measures how far
    the state is from carrying no correlations, and MN Tr(Q^2) - 1 equals the
    purity excess that drives the bound on CHSH values."""
    m, n = dims
    r1, r2 = (r.matrix for r in _reduced_pair(rho12, dims))
    return (
        rho12.matrix
        - tensor_product(r1, np.eye(n) / n)
        - tensor_product(np.eye(m) / m, r2)
        + np.eye(m * n, dtype=complex) / (m * n)
    )


def bell_purity_bound(s: BellScenario) -> float:
    """Slack of the purity bound MN P12 - M P1 - N P2 >= (beta^2 - 4) / 4.

    Valid for traceless dichotomic observables (the Bell operator must be
    orthogonal to the uncorrelated parts of the state); with identity-laden
    observables the bound can fail, which the tests document.
    """
    excess = _purity_excess(s.state, s.dims)
    bv = beta(s)
    return excess - (bv * bv - 4.0) / 4.0


class HorodeckiReport(NamedTuple):
    condition_holds: bool
    s12: float
    s1: float
    s2: float

    @classmethod
    def of(cls, rep: EntropyReport) -> "HorodeckiReport":
        """The verdict on a von Neumann report: S(12) >= max(S(1), S(2)) within SLACK_TOL."""
        return cls(
            condition_holds=rep.s12 >= max(rep.s1, rep.s2) - SLACK_TOL,
            s12=rep.s12, s1=rep.s1, s2=rep.s2,
        )


def horodecki_criterion(
    rho12: DensityOperator, dims: tuple[int, int], base: LogBase = "e"
) -> HorodeckiReport:
    """Entropic sufficient condition: S(12) >= max(S(1), S(2)) (von Neumann).

    When it holds, no choice of dichotomic observables violates the CHSH bound
    for this state. Only the stated direction is assumed, not its converse.
    """
    return HorodeckiReport.of(entropy_report(rho12, "von_neumann", dims=dims, base=base))
