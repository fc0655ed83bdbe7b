"""Existence of a noncontextual joint probability distribution for a
four-observable scenario, decided two independent ways: an LP over the 16-atom
joint distribution, and the CHSH form's four relabellings (Fine's criterion).
In exact arithmetic the two agree on every consistent marginal set. Both are
decided in floats here: the LP reads feasible when the phase-1 objective is at
most LP_FEASIBILITY_TOL, and Fine's criterion holds when every |value| is at
most 2 + CHSH_TOL. Within these tolerances of a facet of the classical polytope
they can disagree: at the PR-box mixture of weight 1/2 + 3e-10 the LP reads
feasible while a Fine value is 2.0000000012. A feasible verdict carries its
witness, the joint distribution as a hidden-variable model over the 16 atoms.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import CommutationError, InconsistentMarginalsError
from .hidden_vars import HVModel, ModelVerification, _atom_labels, _check_pairwise_commuting, build_hv_model, verify_model
from .linalg import LP_FEASIBILITY_TOL, MARGINAL_TOL, RATIO_TIE
from .linalg import dagger, identity, tensor_product
from .scenario import BellScenario, _chsh_values, _within_classical_bound

_SINGLE_FIELDS = ("p_a", "p_b", "p_c", "p_d")
_PAIR_FIELDS = ("p_ab", "p_ad", "p_bc", "p_cd")
_BIT = {"a": 8, "b": 4, "c": 2, "d": 1}

#: The atoms ``8a + 4b + 2c + d`` at which every observable named by a field is true, ascending.
_ATOMS = {name[2:]: tuple(i for i in range(16) if all(i & _BIT[x] for x in name[2:]))
          for name in _SINGLE_FIELDS + _PAIR_FIELDS}

#: The 16 atoms' +-1 values of a, b, c and d (+1 meaning true) as read-only tables, and their labels.
_ATOM_VALUES = np.array([[1.0 if i & _BIT[x] else -1.0 for i in range(16)] for x in "abcd"])
_ATOM_VALUES.setflags(write=False)
_ATOM_TABLES = dict(zip("abcd", _ATOM_VALUES))
_ATOM_LABELS = tuple(_atom_labels(_ATOM_VALUES))


def _marginal(weights: list[float], labels: str) -> float:
    """Probability that every named observable among 'abcd' is true, summed in atom order."""
    total = 0.0
    for idx in _ATOMS[labels]:
        total += weights[idx]
    return total


class MarginalSet(NamedTuple):
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
        p_a, p_b, p_c, p_d, p_ab, p_ad, p_bc, p_cd = self
        problems = []
        for name, v in zip(_SINGLE_FIELDS + _PAIR_FIELDS, self):
            if not -MARGINAL_TOL <= v <= 1.0 + MARGINAL_TOL:
                problems.append(f"{name} = {v} outside [0, 1]")
        for pair, pxy, px, py in (("p_ab", p_ab, p_a, p_b), ("p_ad", p_ad, p_a, p_d),
                                  ("p_bc", p_bc, p_b, p_c), ("p_cd", p_cd, p_c, p_d)):
            x, y = pair[2], pair[3]
            if pxy > min(px, py) + MARGINAL_TOL:
                problems.append(f"{pair} = {pxy} exceeds min({px}, {py})")
            if pxy < px + py - 1.0 - MARGINAL_TOL:
                problems.append(f"{pair} = {pxy} below p_{x} + p_{y} - 1 = {px + py - 1}")
        if problems:
            raise InconsistentMarginalsError("; ".join(problems))

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

    @classmethod
    def of_joint(cls, weights) -> "MarginalSet":
        """The eight marginals of 16 joint weights ``weights[8a + 4b + 2c + d]`` (1 meaning true),
        each summed in atom order."""
        weights = np.asarray(weights, dtype=float).tolist()
        return cls(*(_marginal(weights, name[2:]) for name in _SINGLE_FIELDS + _PAIR_FIELDS))


class FineReport(NamedTuple):
    """The four permuted CHSH values; satisfied iff all within the classical bound."""
    satisfied: bool
    chsh_values: tuple[float, float, float, float]


class FeasibilityVerdict(NamedTuple):
    feasible: bool
    witness: HVModel | None
    fine_criterion: bool
    chsh_values: tuple[float, float, float, float]


def fine_criterion(m: MarginalSet) -> FineReport:
    """The CHSH form's four values on the marginals' correlations, in the form's label order.

    Each relabelling puts the minus sign on a different measured pair, so in
    absolute value the four cover all eight signed Clauser-Horne inequalities.
    Satisfaction (each value within the classical bound) is equivalent to LP
    feasibility for consistent marginals in exact arithmetic.
    """
    m.validate()
    p_a, p_b, p_c, p_d, p_ab, p_ad, p_bc, p_cd = m
    # <xy> for +-1 observables from the 0/1 marginals: 4 p_XY - 2 p_X - 2 p_Y + 1.
    values = tuple(_chsh_values((4.0 * p_ab - 2.0 * p_a - 2.0 * p_b + 1.0, 4.0 * p_bc - 2.0 * p_b - 2.0 * p_c + 1.0,
                                 4.0 * p_cd - 2.0 * p_c - 2.0 * p_d + 1.0, 4.0 * p_ad - 2.0 * p_a - 2.0 * p_d + 1.0)))
    return FineReport(all(map(_within_classical_bound, values)), values)


# ---------------------------------------------------------------------------
# Phase-1 simplex
# ---------------------------------------------------------------------------

#: A in A q = b over the 16 atoms: normalization, then the eight marginals in
#: ``_SINGLE_FIELDS + _PAIR_FIELDS`` order.
_LP_MATRIX = np.array([[1.0] * 16] + [[1.0 if i in _ATOMS[name[2:]] else 0.0 for i in range(16)]
                                      for name in _SINGLE_FIELDS + _PAIR_FIELDS])

#: [A | I] and the phase-1 cost c = (0 ... 0 | 1 ... 1), in integers.
_FULL_MATRIX = np.hstack([_LP_MATRIX, np.eye(_LP_MATRIX.shape[0])]).astype(np.int64)
_PHASE1_COST = np.array([0] * _LP_MATRIX.shape[1] + [1] * _LP_MATRIX.shape[0])

#: The artificial basis of [A | I], as a bitmask over the 25 variables.
_ARTIFICIAL_BASIS = ((1 << _LP_MATRIX.shape[0]) - 1) << _LP_MATRIX.shape[1]

#: Phase-1 store for float solves: basis bitmask -> ``_basis_entry(mask, float)``.
#: It is bounded by the bases of [A | I]. Entries are interned in
#: ``_INTERNED``, keyed by number type and entry, since many bases share one
#: entering column (and ``Fraction(1, 2) == 0.5`` hashes alike).
_BASIS_STORE: dict[int, tuple[int, tuple | None]] = {}
_INTERNED: dict = {}


def _basis_entry(mask: int, kind: type) -> tuple[int, tuple | None]:
    """The entering variable at the basis ``mask`` by Bland's rule (the lowest
    index with a negative reduced cost, or -1 at the optimum) and its column
    of B^-1 [A | I] (None at the optimum): the ``(var, kind(n) / d)`` pairs of
    its nonzero entries, in ascending order of basic variable, for integers n
    and d = |det B|.

    Exact from the basis alone: the adjugate d B^-1 is det * inv(B) rounded
    and proved by B @ adj == d I in integers, and the reduced costs scaled
    by d, d c - c_B adj [A | I], are integers with the exact signs."""
    basic = [v for v in range(_FULL_MATRIX.shape[1]) if mask >> v & 1]
    b_matrix = _FULL_MATRIX[:, basic]
    det = round(np.linalg.det(b_matrix))
    adjugate = np.rint(det * np.linalg.inv(b_matrix)).astype(np.int64)
    if not np.array_equal(b_matrix @ adjugate, det * np.eye(len(basic), dtype=np.int64)):
        raise RuntimeError(f"phase-1 basis {basic} has no integer adjugate")
    if det < 0:
        det, adjugate = -det, -adjugate
    tableau = adjugate @ _FULL_MATRIX
    reduced = det * _PHASE1_COST - _PHASE1_COST[basic] @ tableau
    negative = np.flatnonzero(reduced < 0)
    if not negative.size:
        return -1, None
    entering = int(negative[0])
    column = tuple((var, kind(n) / det) for var, n in zip(basic, tableau[:, entering].tolist()) if n)
    entry = (entering, column)
    return _INTERNED.setdefault((kind, entry), entry)


def _phase1_simplex(b: list):
    """Minimize the sum of artificial variables for A x = b, x >= 0 (b >= 0),
    with A = ``_LP_MATRIX``, by Bland's anti-cycling rule, which guarantees
    termination on this tiny fixed-size problem. Returns (objective, x) in
    b's number type; a Fraction b solves exactly.

    The walk keeps the basic values in a list indexed by variable, starting
    at the artificial basis with the artificials at b. At each basis it reads
    the entering variable and the nonzero entries of its column
    (``_basis_entry``), picks the leaving variable by the ratio test over the
    positive entries in ascending variable order, taking a later one only when
    its ratio is lower by more than RATIO_TIE (so ties go to the lowest
    variable, as Bland's rule asks), and updates only the b column: one divide
    by the pivot, then one multiply and one subtract per nonzero entry, so
    pivots and witnesses are reproducible bit for bit. Only the b column
    depends on b, so an entry serves every b: a float b reads and fills
    ``_BASIS_STORE``, any other number type a store local to the call.

    The entries are exact rationals with denominator |det B|, rounded once
    for a float b. Of the 2,042,975 nine-column subsets of [A | I], 397,394
    have |det| 1, 4,984 have |det| 2, 30 have |det| 3 and the rest are
    singular; with |det| 1 or 2 every entry is a multiple of 1/2, held
    exactly in a float.
    """
    if any(v < 0 for v in b):
        raise ValueError("right-hand side must be nonnegative")
    kind = type(b[0])
    zero = kind()
    store = _BASIS_STORE if kind is float else {}
    n_cols = _LP_MATRIX.shape[1]
    values = [zero] * n_cols + list(b)
    mask = _ARTIFICIAL_BASIS
    for _ in range(10_000):
        entry = store.get(mask)
        if entry is None:
            entry = store[mask] = _basis_entry(mask, kind)
        entering, column = entry
        if entering < 0:
            break
        leaving = -1
        best_ratio = math.inf
        for var, coef in column:
            if coef > 0.0:  # a float literal keeps CPython's float-float compare
                ratio = values[var] / coef
                if ratio < best_ratio - RATIO_TIE:
                    best_ratio, leaving, pivot = ratio, var, coef
        if leaving < 0:
            raise RuntimeError("phase-1 objective unbounded; malformed constraint matrix")
        v = values[leaving]
        if v:
            v = v / pivot
            for var, coef in column:
                values[var] -= coef * v
        values[leaving] = zero
        values[entering] = v
        mask ^= 1 << leaving | 1 << entering
    else:
        raise RuntimeError("simplex iteration limit exceeded")
    objective = zero
    for v in values[n_cols:]:
        objective += v
    return objective, values[:n_cols]


def joint_feasible(m: MarginalSet) -> FeasibilityVerdict:
    """Decide whether the eight marginals extend to a joint distribution.

    Solves the feasibility LP over the 16 atom weights (nonnegativity plus
    normalization and the eight marginal equalities); the monotone chains over
    unmeasured subsets follow automatically from nonnegative atoms, so they
    are implied rather than imposed. When feasible, the witness is the joint
    distribution as an HVModel over the 16 atoms, with +-1 value tables for
    a, b, c and d. Inconsistent marginals raise InconsistentMarginalsError
    instead of reporting infeasibility.
    """
    fine = fine_criterion(m)  # validates m
    b = [1.0] + [v if v > 0.0 else 0.0 for v in map(float, m)]  # as np.clip(b, 0.0, None): -0.0 becomes +0.0
    objective, x = _phase1_simplex(b)
    witness = None
    if not objective > LP_FEASIBILITY_TOL:
        x = np.array(x)
        total = x.sum()
        if abs(total - 1.0) > MARGINAL_TOL:
            raise RuntimeError(f"simplex returned a non-normalized witness (sum {total})")
        witness = HVModel._derived(_ATOM_LABELS, x / total, _ATOM_TABLES)
    return FeasibilityVerdict(feasible=witness is not None, witness=witness,
                              fine_criterion=fine.satisfied, chsh_values=fine.chsh_values)


# ---------------------------------------------------------------------------
# Quantum scenarios
# ---------------------------------------------------------------------------

def marginals_from_scenario(s: BellScenario) -> MarginalSet:
    """Measured marginals of a scenario: p_X = Tr(rho P_X), p_XY = Tr(rho P_X P_Y)
    for the four cross-side (hence commuting) pairs. The +1-eigenspace
    projectors (x + I)/2 pass is_projector at DEFAULT_TOL by the scenario's +-1 rule."""
    return _marginal_sets(s.state.matrix[None], s._sides[0][None], s._sides[1][None])[0]


def _marginal_sets(rhos: np.ndarray, first: np.ndarray, second: np.ndarray) -> list[MarginalSet]:
    """:func:`marginals_from_scenario` for a batch of K scenarios: states ``rhos`` (K, MN, MN) and
    side stacks ``first`` (K, 2, M, M) of (a, c) and ``second`` (K, 2, N, N) of (b, d), all checked.

    One contraction gives table[k, x, y] = Tr(rho_k (first[k, x] (x) second[k, y])) with
    first[k] = [I, P_a, P_c] and second[k] = [I, P_b, P_d]: row 0 and column 0 hold the
    singles, the other four entries the measured pairs. Each table equals the one a batch of one
    gives, bit for bit, so a set does not depend on the batch it was measured in."""
    m, n = first.shape[-1], second.shape[-1]
    rhos = rhos.reshape(len(rhos), m, n, m, n)
    stacks = _projector_stacks(first, second) if m == n else [_projector_stacks(x)[0] for x in (first, second)]
    tables = np.einsum("bijkl,bxki,bylj->bxy", rhos, stacks[0], stacks[1]).real
    # As np.clip(table, 0.0, 1.0), NaN included: -0.0 stays -0.0, and a negative becomes +0.0.
    return [MarginalSet(*[0.0 if v < 0.0 else 1.0 if v > 1.0 else v
                          for v in (p_a, p_b, p_c, p_d, p_ab, p_ad, p_bc, p_cd)])
            for (_, p_b, p_d), (p_a, p_ab, p_ad), (p_c, p_bc, p_cd) in tables.tolist()]


def _projector_stacks(*sides: np.ndarray) -> np.ndarray:
    """[I, (x + I)/2, (y + I)/2] for each (x, y) of each (K, 2, d, d) side stack of one shape,
    as one (len(sides), K, 3, d, d) array.

    Filled and scaled in place: each entry is the sum and quotient that concatenating I to one
    scenario's sides, adding I and halving would give, and (I + I)/2 = I exactly."""
    k, _, d, _ = sides[0].shape
    stacks = np.empty((len(sides), k, 3, d, d), dtype=complex)
    stacks[:, :, 0] = identity(d)
    for i, side in enumerate(sides):
        stacks[i, :, 1:] = side
    stacks += identity(d)
    stacks /= 2.0
    return stacks


class ContextualityReport(NamedTuple):
    """Per-context hidden-variable models beside the joint-feasibility verdict.

    Each measurable context (here {a, b} and {a, d}) admits a valid model; when
    the marginals are jointly infeasible, no single model can serve both, which
    is the operational content of contextuality.
    """
    context_verifications: dict[str, ModelVerification]
    context_models: dict[str, HVModel]
    marginals: MarginalSet
    verdict: FeasibilityVerdict
    all_commuting: bool


def contextuality_demo(s: BellScenario) -> ContextualityReport:
    """Build HV models for the overlapping contexts {a, b} and {a, d} and set
    them against the joint-feasibility verdict for the same scenario, beside
    whether all four lifted observables commute pairwise (within COMMUTE_TOL).

    Each observable x is lifted as its Hermitian part (x + x^dagger)/2, equal
    bit for bit to x when x is exactly Hermitian: lifting x itself would
    multiply its Hermitian residual, which the scenario accepted, by the
    square root of the other side's dimension."""
    m, n = s.dims

    def hermitian(x):
        return (x + dagger(x)) / 2.0

    joint_ops = {
        "a": tensor_product(hermitian(s.a), np.eye(n)),
        "b": tensor_product(np.eye(m), hermitian(s.b)),
        "c": tensor_product(hermitian(s.c), np.eye(n)),
        "d": tensor_product(np.eye(m), hermitian(s.d)),
    }
    models = {}
    verifications = {}
    for labels in (("a", "b"), ("a", "d")):
        ops = {k: joint_ops[k] for k in labels}
        model = build_hv_model(s.state, ops)
        models["".join(labels)] = model
        verifications["".join(labels)] = verify_model(model, s.state, ops)

    marginals = marginals_from_scenario(s)
    verdict = joint_feasible(marginals)

    try:
        _check_pairwise_commuting(list(joint_ops.values()))
    except CommutationError:
        all_commuting = False
    else:
        all_commuting = True

    return ContextualityReport(
        context_verifications=verifications,
        context_models=models,
        marginals=marginals,
        verdict=verdict,
        all_commuting=all_commuting,
    )
