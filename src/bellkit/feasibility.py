"""Existence of a noncontextual joint probability distribution for a
four-observable scenario, decided two independent ways: exact LP feasibility
over the 16-atom joint distribution, and the four permuted CHSH inequalities
(Fine's criterion). The LP is the adjudicating oracle; the two must agree on
every consistent marginal set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CommutationError, InconsistentMarginalsError
from .hidden_vars import HVModel, ModelVerification, build_hv_model, verify_model
from .linalg import CHSH_TOL, LP_FEASIBILITY_TOL, MARGINAL_TOL, PIVOT_TOL, PROB_TOL, RATIO_TIE
from .linalg import identity, probability_vector, tensor_product
from .scenario import BellScenario

_SINGLE_FIELDS = ("p_a", "p_b", "p_c", "p_d")
_PAIR_FIELDS = ("p_ab", "p_ad", "p_bc", "p_cd")
_BIT = {"a": 8, "b": 4, "c": 2, "d": 1}


def _atoms_where_true(labels: str) -> tuple[int, ...]:
    """Ascending indices of the 16 atoms at which every observable in ``labels`` is true."""
    return tuple(i for i in range(16) if all(i & _BIT[x] for x in labels))


#: _atoms_where_true for "" and the 15 label subsets in "abcd" order.
_ATOMS = {"".join(s): _atoms_where_true(s) for k in range(5) for s in combinations("abcd", k)}


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

    def validate(self) -> None:
        """Raise InconsistentMarginalsError on basic probability violations."""
        problems = []
        for name in _SINGLE_FIELDS + _PAIR_FIELDS:
            v = getattr(self, name)
            if not -MARGINAL_TOL <= v <= 1.0 + MARGINAL_TOL:
                problems.append(f"{name} = {v} outside [0, 1]")
        for pair in _PAIR_FIELDS:
            x, y = pair[2], pair[3]
            pxy = getattr(self, pair)
            px, py = getattr(self, f"p_{x}"), getattr(self, f"p_{y}")
            if pxy > min(px, py) + MARGINAL_TOL:
                problems.append(f"{pair} = {pxy} exceeds min({px}, {py})")
            if pxy < px + py - 1.0 - MARGINAL_TOL:
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
        self.weights = probability_vector(q)

    def marginal(self, labels: str) -> float:
        """Probability that every named observable among 'abcd' is true (summed in atom order)."""
        atoms = _ATOMS.get(labels) or _atoms_where_true(labels)  # never empty: atom 15
        weights = self.weights.tolist()
        total = 0.0
        for idx in atoms:
            total += weights[idx]
        return total

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

    def chains_hold(self) -> bool:
        """Monotonicity under label-set inclusion, for every chain of subsets, within PROB_TOL."""
        probs = self.all_marginals()
        for big, p_big in probs.items():
            for small in combinations(big, len(big) - 1):
                key = "".join(small)
                reference = 1.0 if not key else probs[key]
                if p_big > reference + PROB_TOL:
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


def fine_criterion(m: MarginalSet) -> FineReport:
    """Evaluate the four CHSH combinations (original, a<->c, b<->d, both swaps).

    Each permutation puts the minus sign on a different measured pair, so in
    absolute value the four cover all eight signed Clauser-Horne inequalities.
    Satisfaction (all |values| <= 2) is equivalent to LP feasibility for
    consistent marginals.
    """
    m.validate()
    # <xy> for +-1 observables from the 0/1 marginals: 4 p_XY - 2 p_X - 2 p_Y + 1.
    ab = 4.0 * m.p_ab - 2.0 * m.p_a - 2.0 * m.p_b + 1.0
    bc = 4.0 * m.p_bc - 2.0 * m.p_b - 2.0 * m.p_c + 1.0
    cd = 4.0 * m.p_cd - 2.0 * m.p_c - 2.0 * m.p_d + 1.0
    ad = 4.0 * m.p_ad - 2.0 * m.p_a - 2.0 * m.p_d + 1.0
    values = (ab + bc + cd - ad, bc + ab + ad - cd, ad + cd + bc - ab, cd + ad + ab - bc)
    return FineReport(
        satisfied=all(abs(v) <= 2.0 + CHSH_TOL for v in values),
        chsh_values=values,
    )


# ---------------------------------------------------------------------------
# Phase-1 simplex
# ---------------------------------------------------------------------------

#: A in A q = b over the 16 atoms: normalization, then the eight marginals in
#: ``_SINGLE_FIELDS + _PAIR_FIELDS`` order.
_LP_MATRIX = np.array([[1.0] * 16] + [[1.0 if i in _ATOMS[name[2:]] else 0.0 for i in range(16)]
                                      for name in _SINGLE_FIELDS + _PAIR_FIELDS])


@functools.cache
def _lp_tableau(kind: type) -> tuple[tuple, ...]:
    """The b-independent part of the phase-1 tableau [A | I | b] with its
    reduced-cost row c - c_B B^-1 A below, c = (0 ... 0 | 1 ... 1), in the
    number type ``kind``; the b column and its cost entry are filled in per
    solve. A is 0/1, so every entry is a small integer, held exactly."""
    a = _LP_MATRIX.astype(int).tolist()
    rows = [row + [int(k == r) for k in range(len(a))] + [0] for r, row in enumerate(a)]
    cost = [-sum(column) for column in zip(*a)] + [0] * (len(a) + 1)
    return tuple(tuple(kind(v) for v in row) for row in rows + [cost])


def _phase1_simplex(b: list):
    """Minimize the sum of artificial variables for A x = b, x >= 0 (b >= 0),
    with A = ``_LP_MATRIX``.

    Plain dense tableau simplex with Bland's anti-cycling rule (entering
    variable: lowest-index negative reduced cost; leaving: lowest-index among
    ratio-test ties, within RATIO_TIE), which guarantees termination on this
    tiny fixed-size problem; entries within PIVOT_TOL of zero count as zero.
    The rows hold b's number type, so a Fraction b solves exactly.
    Each pivot divides the pivot row and subtracts factor * entry from the
    others, one multiply and one subtract per entry, so pivots and witnesses
    are reproducible bit for bit; zero factors and zero pivot-row entries are
    skipped, which keeps every bit as the entries are finite and b is clipped
    to +0.0. Returns (objective, x).
    """
    n_rows, n_cols = _LP_MATRIX.shape
    n_vars = n_cols + n_rows
    if any(v < 0 for v in b):
        raise ValueError("right-hand side must be nonnegative")
    kind = type(b[0])
    zero = kind()
    tableau = [list(row) for row in _lp_tableau(kind)]
    cost = zero
    for row, v in zip(tableau, b):
        row[-1] = v
        cost -= v  # row by row, so this entry rounds as c - c_B B^-1 b always has
    tableau[-1][-1] = cost
    basis = list(range(n_cols, n_vars))

    costs = tableau[-1]
    for _ in range(10_000):
        entering = next((j for j in range(n_vars) if costs[j] < -PIVOT_TOL), -1)
        if entering < 0:
            break
        leaving = -1
        best_ratio = math.inf
        for r in range(n_rows):
            coef = tableau[r][entering]
            if coef > PIVOT_TOL:
                ratio = tableau[r][-1] / coef
                if ratio < best_ratio - RATIO_TIE or (
                    abs(ratio - best_ratio) <= RATIO_TIE
                    and (leaving < 0 or basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            raise RuntimeError("phase-1 objective unbounded; malformed constraint matrix")
        pivot_row = tableau[leaving]
        pivot = pivot_row[entering]
        nonzero = [(j, v / pivot) for j, v in enumerate(pivot_row) if v]
        for j, v in nonzero:
            pivot_row[j] = v
        for target in tableau:
            factor = target[entering]
            if factor and target is not pivot_row:
                for j, v in nonzero:
                    target[j] -= factor * v
        basis[leaving] = entering
    else:
        raise RuntimeError("simplex iteration limit exceeded")

    x = [zero] * n_cols
    objective = zero
    for var, row in zip(basis, tableau):
        if var < n_cols:
            x[var] = row[-1]
        else:
            objective += row[-1]
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
    b = [1.0] + [float(getattr(m, name)) for name in _SINGLE_FIELDS + _PAIR_FIELDS]
    b = [v if v > 0.0 else 0.0 for v in b]  # as np.clip(b, 0.0, None): -0.0 becomes +0.0
    objective, x = _phase1_simplex(b)
    if objective > tol:
        return FeasibilityVerdict(
            feasible=False, witness=None,
            fine_criterion=fine.satisfied, chsh_values=fine.chsh_values,
        )
    x = np.array(x)
    total = x.sum()
    if abs(total - 1.0) > MARGINAL_TOL:
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
    projectors are (x + I)/2, already projectors by the scenario's +-1 check.

    One contraction gives table[x, y] = Tr(rho (first[x] (x) second[y])) with
    first = [I, P_a, P_c] and second = [I, P_b, P_d]: row 0 and column 0 hold
    the singles, the other four entries the measured pairs."""
    m, n = s.dims
    first = np.stack([identity(m), (s.a + identity(m)) / 2.0, (s.c + identity(m)) / 2.0])
    second = np.stack([identity(n), (s.b + identity(n)) / 2.0, (s.d + identity(n)) / 2.0])
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


def contextuality_demo(s: BellScenario) -> ContextualityReport:
    """Build HV models for the overlapping contexts {a, b} and {a, d} and set
    them against the joint-feasibility verdict for the same scenario; whether
    all four commute is the verdict of building one model for all four."""
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

    verdict = joint_feasible(marginals_from_scenario(s))

    try:
        global_model = build_hv_model(s.state, joint_ops)
    except CommutationError:
        all_commuting, global_model, global_verification = False, None, None
    else:
        all_commuting = True
        global_verification = verify_model(global_model, s.state, joint_ops)

    return ContextualityReport(
        context_verifications=verifications,
        context_models=models,
        verdict=verdict,
        all_commuting=all_commuting,
        global_model=global_model,
        global_verification=global_verification,
    )
