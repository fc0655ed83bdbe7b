"""Existence of a noncontextual joint probability distribution for a
four-observable scenario, decided two independent ways: exact LP feasibility
over the 16-atom joint distribution, and the four permuted CHSH inequalities
(Fine's criterion). The LP is the adjudicating oracle; the two must agree on
every consistent marginal set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InconsistentMarginalsError
from .hidden_vars import HVModel, ModelVerification, build_hv_model, verify_model
from .linalg import commutator, frobenius_norm, tensor_product
from .scenario import BellScenario, positive_projector

#: Phase-1 objective above this certifies infeasibility.
LP_FEASIBILITY_TOL = 1e-9
#: Closed-inequality tolerance on |CHSH| <= 2.
CHSH_TOL = 1e-9

_SINGLE_FIELDS = ("p_a", "p_b", "p_c", "p_d")
_PAIR_FIELDS = ("p_ab", "p_ad", "p_bc", "p_cd")


@dataclass(frozen=True)
class MarginalSet:
    """The eight measurable quantities of a four-observable scenario:
    the four singles and the four cross-side pair probabilities."""
    p_a: float
    p_b: float
    p_c: float
    p_d: float
    p_ab: float
    p_ad: float
    p_bc: float
    p_cd: float

    def validate(self, tol: float = 1e-9) -> None:
        """Raise InconsistentMarginalsError on basic probability violations."""
        problems = []
        for name in _SINGLE_FIELDS + _PAIR_FIELDS:
            v = getattr(self, name)
            if not -tol <= v <= 1.0 + tol:
                problems.append(f"{name} = {v} outside [0, 1]")
        for pair in _PAIR_FIELDS:
            x, y = pair[2], pair[3]
            pxy = getattr(self, pair)
            px, py = getattr(self, f"p_{x}"), getattr(self, f"p_{y}")
            if pxy > min(px, py) + tol:
                problems.append(f"{pair} = {pxy} exceeds min({px}, {py})")
            if pxy < px + py - 1.0 - tol:
                problems.append(f"{pair} = {pxy} below p_{x} + p_{y} - 1 = {px + py - 1}")
        if problems:
            raise InconsistentMarginalsError("; ".join(problems))

    def as_dict(self) -> dict[str, float]:
        return {name: float(getattr(self, name)) for name in _SINGLE_FIELDS + _PAIR_FIELDS}

    @classmethod
    def from_dict(cls, record: dict) -> "MarginalSet":
        missing = [k for k in _SINGLE_FIELDS + _PAIR_FIELDS if k not in record]
        if missing:
            raise ValueError(f"marginal record missing fields: {missing}")
        extra = [k for k in record if k not in _SINGLE_FIELDS + _PAIR_FIELDS]
        if extra:
            raise ValueError(f"marginal record has unknown fields: {extra}")
        for k, v in record.items():
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValueError(f"marginal {k} must be a finite number, got {v!r}")
        return cls(**{k: float(v) for k, v in record.items()})


class JointDistribution:
    """Nonnegative weights on the 16 outcomes (A, B, C, D) in {0, 1}^4.

    Index layout: ``weights[8a + 4b + 2c + d]`` with 1 meaning "true".
    """

    def __init__(self, weights):
        q = np.asarray(weights, dtype=float)
        if q.shape != (16,):
            raise ValueError(f"expected 16 weights, got shape {q.shape}")
        if np.any(q < -1e-12):
            raise ValueError("weights must be nonnegative")
        if abs(q.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {q.sum()}, expected 1")
        q = np.clip(q, 0.0, None)
        q.setflags(write=False)
        self.weights = q

    def marginal(self, labels: str) -> float:
        """Probability that every named observable among 'abcd' is true."""
        bit = {"a": 8, "b": 4, "c": 2, "d": 1}
        total = 0.0
        for idx in range(16):
            if all(idx & bit[x] for x in labels):
                total += self.weights[idx]
        return float(total)

    def all_marginals(self) -> dict[str, float]:
        """All 15 nonempty-subset probabilities."""
        out = {}
        for size in range(1, 5):
            for subset in combinations("abcd", size):
                key = "".join(subset)
                out[key] = self.marginal(key)
        return out

    def to_marginal_set(self) -> MarginalSet:
        return MarginalSet(
            p_a=self.marginal("a"), p_b=self.marginal("b"),
            p_c=self.marginal("c"), p_d=self.marginal("d"),
            p_ab=self.marginal("ab"), p_ad=self.marginal("ad"),
            p_bc=self.marginal("bc"), p_cd=self.marginal("cd"),
        )

    def chains_hold(self, tol: float = 1e-12) -> bool:
        """Monotonicity under label-set inclusion, for every chain of subsets."""
        probs = self.all_marginals()
        for big, p_big in probs.items():
            for small in combinations(big, len(big) - 1):
                key = "".join(small)
                reference = 1.0 if not key else probs[key]
                if p_big > reference + tol:
                    return False
        return True


@dataclass(frozen=True)
class FineReport:
    """The four permuted CHSH values; satisfied iff all within the classical bound."""
    satisfied: bool
    chsh_values: tuple[float, float, float, float]


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    witness: JointDistribution | None
    fine_criterion: bool
    chsh_values: tuple[float, float, float, float]


def _pair_correlation(m: MarginalSet, x: str, y: str) -> float:
    """<xy> for +-1 observables from the 0/1 marginals: 4 p_XY - 2 p_X - 2 p_Y + 1."""
    key = f"p_{x}{y}" if f"p_{x}{y}" in m.__dataclass_fields__ else f"p_{y}{x}"
    pxy = getattr(m, key)
    return 4.0 * pxy - 2.0 * getattr(m, f"p_{x}") - 2.0 * getattr(m, f"p_{y}") + 1.0


def fine_criterion(m: MarginalSet, tol: float = CHSH_TOL) -> FineReport:
    """Evaluate the four CHSH combinations (original, a<->c, b<->d, both swaps).

    Each permutation puts the minus sign on a different measured pair, so in
    absolute value the four cover all eight signed Clauser-Horne inequalities.
    Satisfaction (all |values| <= 2) is equivalent to LP feasibility for
    consistent marginals.
    """
    m.validate()
    e = {pair: _pair_correlation(m, pair[0], pair[1]) for pair in ("ab", "bc", "cd", "ad")}
    values = (
        e["ab"] + e["bc"] + e["cd"] - e["ad"],
        e["bc"] + e["ab"] + e["ad"] - e["cd"],
        e["ad"] + e["cd"] + e["bc"] - e["ab"],
        e["cd"] + e["ad"] + e["ab"] - e["bc"],
    )
    return FineReport(
        satisfied=all(abs(v) <= 2.0 + tol for v in values),
        chsh_values=values,
    )


# ---------------------------------------------------------------------------
# Phase-1 simplex
# ---------------------------------------------------------------------------

def _marginal_rows() -> np.ndarray:
    """Rows of A in A q = b over the 16 atoms: normalization, then the eight
    marginals in ``_SINGLE_FIELDS + _PAIR_FIELDS`` order."""
    rows = [np.ones(16)]
    bit = {"a": 8, "b": 4, "c": 2, "d": 1}
    for name in _SINGLE_FIELDS + _PAIR_FIELDS:
        labels = name[2:]
        rows.append([1.0 if all(i & bit[x] for x in labels) else 0.0 for i in range(16)])
    return np.array(rows)


_LP_MATRIX = _marginal_rows()


def _initial_tableau(a: np.ndarray) -> np.ndarray:
    """The b-independent part of the phase-1 tableau [A | I | b] with its
    reduced-cost row c - c_B B^-1 A below, c = (0 ... 0 | 1 ... 1); the b
    column and its cost entry are filled in per solve. A is 0/1, so the
    column sums below are exact."""
    n_rows, n_cols = a.shape
    tableau = np.zeros((n_rows + 1, n_cols + n_rows + 1))
    tableau[:n_rows, :n_cols] = a
    tableau[:n_rows, n_cols:n_cols + n_rows] = np.eye(n_rows)
    tableau[-1, :n_cols] = -a.sum(axis=0)
    tableau.setflags(write=False)
    return tableau


_LP_TABLEAU = _initial_tableau(_LP_MATRIX)


def _phase1_simplex(b: np.ndarray, pivot_tol: float = 1e-12):
    """Minimize the sum of artificial variables for A x = b, x >= 0 (b >= 0),
    with A = ``_LP_MATRIX``.

    Plain dense tableau simplex with Bland's anti-cycling rule (entering
    variable: lowest-index negative reduced cost; leaving: lowest-index among
    ratio-test ties), which guarantees termination on this tiny fixed-size
    problem. The scans read Python floats; each pivot's elimination is one
    rank-1 update in which every entry gets one multiply and one subtract, so
    pivots and witnesses are reproducible bit for bit. Returns (objective, x).
    """
    n_rows, n_cols = _LP_MATRIX.shape
    n_vars = n_cols + n_rows
    if np.any(b < 0):
        raise ValueError("right-hand side must be nonnegative")
    tableau = _LP_TABLEAU.copy()
    tableau[:n_rows, -1] = b
    cost = 0.0
    for v in b.tolist():
        cost -= v  # row by row, so this entry rounds as c - c_B B^-1 b always has
    tableau[-1, -1] = cost
    basis = list(range(n_cols, n_vars))

    for _ in range(10_000):
        entering = -1
        for j, c in enumerate(tableau[-1].tolist()[:n_vars]):
            if c < -pivot_tol:
                entering = j
                break
        if entering < 0:
            break
        column = tableau[:n_rows, entering].tolist()
        rhs = tableau[:n_rows, -1].tolist()
        leaving = -1
        best_ratio = math.inf
        for r, coef in enumerate(column):
            if coef > pivot_tol:
                ratio = rhs[r] / coef
                if ratio < best_ratio - 1e-15 or (
                    abs(ratio - best_ratio) <= 1e-15
                    and (leaving < 0 or basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            raise RuntimeError("phase-1 objective unbounded; malformed constraint matrix")
        row = tableau[leaving]
        row /= row[entering]
        factor = tableau[:, entering].copy()
        factor[leaving] = 0.0
        tableau -= factor[:, None] * row
        basis[leaving] = entering
    else:
        raise RuntimeError("simplex iteration limit exceeded")

    x = np.zeros(n_cols)
    objective = 0.0
    for var, value in zip(basis, tableau[:n_rows, -1].tolist()):
        if var < n_cols:
            x[var] = value
        else:
            objective += value
    return objective, x


def joint_feasible(m: MarginalSet, tol: float = LP_FEASIBILITY_TOL) -> FeasibilityVerdict:
    """Decide whether the eight marginals extend to a joint distribution.

    Solves the feasibility LP over the 16 atom weights (nonnegativity plus
    normalization and the eight marginal equalities); the monotone chains over
    unmeasured subsets follow automatically from nonnegative atoms, so they
    are implied rather than imposed. A witness distribution is attached when
    feasible. Inconsistent marginals raise InconsistentMarginalsError instead
    of reporting infeasibility.
    """
    fine = fine_criterion(m)  # validates m
    b = np.array([1.0] + [getattr(m, name) for name in _SINGLE_FIELDS + _PAIR_FIELDS])
    b = np.clip(b, 0.0, None)
    objective, x = _phase1_simplex(b)
    if objective > tol:
        return FeasibilityVerdict(
            feasible=False, witness=None,
            fine_criterion=fine.satisfied, chsh_values=fine.chsh_values,
        )
    total = x.sum()
    if abs(total - 1.0) > 1e-9:
        raise RuntimeError(f"simplex returned a non-normalized witness (sum {total})")
    witness = JointDistribution(x / total)
    return FeasibilityVerdict(
        feasible=True, witness=witness,
        fine_criterion=fine.satisfied, chsh_values=fine.chsh_values,
    )


# ---------------------------------------------------------------------------
# Quantum scenarios
# ---------------------------------------------------------------------------

def marginals_from_scenario(s: BellScenario) -> MarginalSet:
    """Measured marginals of a scenario: p_X = Tr(rho P_X), p_XY = Tr(rho P_X P_Y)
    for the four cross-side (hence commuting) pairs. The +1-eigenspace
    projectors are recovered from the dichotomic observables as (x + I)/2.

    One contraction gives table[x, y] = Tr(rho (first[x] (x) second[y])) with
    first = [I, P_a, P_c] and second = [I, P_b, P_d]: row 0 and column 0 hold
    the singles, the other four entries the measured pairs."""
    m, n = s.dims
    first = np.stack([np.eye(m), positive_projector(s.a), positive_projector(s.c)])
    second = np.stack([np.eye(n), positive_projector(s.b), positive_projector(s.d)])
    rho = s.state.matrix.reshape(m, n, m, n)
    table = np.einsum("ijkl,xki,ylj->xy", rho, first, second).real
    t = np.clip(table, 0.0, 1.0).tolist()
    return MarginalSet(
        p_a=t[1][0], p_b=t[0][1], p_c=t[2][0], p_d=t[0][2],
        p_ab=t[1][1], p_ad=t[1][2], p_bc=t[2][1], p_cd=t[2][2],
    )


@dataclass(frozen=True)
class ContextualityReport:
    """Per-context hidden-variable models beside the joint-feasibility verdict.

    Each measurable context (here {a, b} and {a, d}) admits a valid model; when
    the marginals are jointly infeasible, no single model can serve both, which
    is the operational content of contextuality.
    """
    context_verifications: dict[str, ModelVerification]
    context_models: dict[str, HVModel]
    verdict: FeasibilityVerdict
    all_commuting: bool
    global_model: HVModel | None
    global_verification: ModelVerification | None


def contextuality_demo(s: BellScenario, tol: float = LP_FEASIBILITY_TOL) -> ContextualityReport:
    """Build HV models for the overlapping contexts {a, b} and {a, d} and set
    them against the joint-feasibility verdict for the same scenario."""
    m, n = s.dims
    joint_ops = {
        "a": tensor_product(s.a, np.eye(n)),
        "b": tensor_product(np.eye(m), s.b),
        "c": tensor_product(s.c, np.eye(n)),
        "d": tensor_product(np.eye(m), s.d),
    }
    models = {}
    verifications = {}
    for labels in (("a", "b"), ("a", "d")):
        ops = {k: joint_ops[k] for k in labels}
        model = build_hv_model(s.state, ops)
        models["".join(labels)] = model
        verifications["".join(labels)] = verify_model(model, s.state, ops)

    verdict = joint_feasible(marginals_from_scenario(s), tol=tol)

    all_commuting = all(
        frobenius_norm(commutator(joint_ops[x], joint_ops[y])) <= 1e-8
        for x, y in combinations("abcd", 2)
    )
    global_model = None
    global_verification = None
    if all_commuting:
        global_model = build_hv_model(s.state, joint_ops)
        global_verification = verify_model(global_model, s.state, joint_ops)

    return ContextualityReport(
        context_verifications=verifications,
        context_models=models,
        verdict=verdict,
        all_commuting=all_commuting,
        global_model=global_model,
        global_verification=global_verification,
    )
