"""Constructive hidden-variable models for commuting observable families.

For any state and any finite family of pairwise commuting Hermitian
observables there is a finite model (atoms, weights, value tables) that
reproduces every quantum expectation and correlation: diagonalize the family
simultaneously, read the weights off the state's diagonal in that basis, and
read each observable's values off its own diagonal. ``verify_model`` checks
the reproduction numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .errors import CommutationError
from .linalg import (
    CLUSTER_TOL,
    COMMUTE_TOL,
    DEFAULT_TOL,
    DensityOperator,
    as_matrix,
    commutator,
    dagger,
    frobenius_norm,
    is_hermitian,
    probability_vector,
    _symmetrized_eigh,
)


@dataclass(frozen=True)
class JointEigenbasis:
    """Common eigenbasis of a commuting family.

    ``basis`` holds orthonormal columns; ``values[k, i]`` is the eigenvalue of
    the k-th operator on the i-th basis vector.
    """
    basis: np.ndarray
    values: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def _check_pairwise_commuting(ops: Sequence[np.ndarray]) -> None:
    for (i, a), (j, b) in combinations(enumerate(ops), 2):
        norm = frobenius_norm(commutator(a, b))
        if norm > COMMUTE_TOL:
            raise CommutationError(f"operators {i} and {j} do not commute", norm)


def _refine(block: np.ndarray, remaining: list[np.ndarray]) -> np.ndarray:
    """Rotate an orthonormal column block so every remaining operator is diagonal on it.

    Diagonalizes the restriction B†AB of the next operator (checked Hermitian on
    entry, so not again), splits the block at spectral gaps wider than CLUSTER_TOL,
    and recurses into each degenerate cluster with the rest of the family. This is
    what makes simultaneous diagonalization robust to (analytic) degeneracy.
    """
    if not remaining or block.shape[1] == 1:
        return block
    w, u = _symmetrized_eigh(dagger(block) @ remaining[0] @ block)
    rotated = block @ u

    out: list[np.ndarray] = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > CLUSTER_TOL:
            out.append(_refine(rotated[:, start:i], remaining[1:]))
            start = i
    return np.hstack(out)


def joint_eigenbasis(ops: Sequence) -> JointEigenbasis:
    """Simultaneous eigenbasis of pairwise commuting Hermitian operators.

    Raises CommutationError (identifying the pair) if any two fail to commute.
    """
    mats = [as_matrix(op) for op in ops]
    if not mats:
        raise ValueError("need at least one operator")
    dim = mats[0].shape[0]
    for k, m in enumerate(mats):
        if m.shape != (dim, dim):
            raise ValueError(f"operator {k} has shape {m.shape}, expected ({dim}, {dim})")
        if not is_hermitian(m):
            raise ValueError(f"operator {k} is not Hermitian within tolerance")
    _check_pairwise_commuting(mats)

    basis = _refine(np.eye(dim, dtype=complex), mats)
    values = np.array([np.real(np.diag(dagger(basis) @ m @ basis)) for m in mats])

    # Canonical atom order: lexicographic in the per-operator value tuples, so
    # models built from the same family are comparable across runs.
    keys = np.round(values, 6)
    order = np.lexsort(keys[::-1])
    return JointEigenbasis(basis=basis[:, order], values=values[:, order])


class HVModel:
    """Finite hidden-variable model: atoms, weights, per-observable value tables."""

    def __init__(self, atoms: Sequence[str], weights, value_tables: Mapping[str, Sequence[float]]):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or len(atoms) != w.shape[0]:
            raise ValueError("weights must be one value per atom")
        w = probability_vector(w, sum_tol=DEFAULT_TOL)  # the bound on the trace they sum to
        self.atoms = tuple(str(a) for a in atoms)
        self.weights = w
        self.value_tables = {
            str(k): np.asarray(v, dtype=float) for k, v in value_tables.items()
        }
        for k, v in self.value_tables.items():
            if v.shape != w.shape:
                raise ValueError(f"value table {k!r} has {v.shape[0]} entries, expected {w.shape[0]}")
            v.setflags(write=False)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.value_tables)

    def to_rows(self) -> list[list]:
        """CSV-compatible table: header row, then one row per atom."""
        header = ["atom", "weight", *self.labels]
        rows: list[list] = [header]
        for i, atom in enumerate(self.atoms):
            rows.append([atom, float(self.weights[i]), *(float(self.value_tables[k][i]) for k in self.labels)])
        return rows

    def __repr__(self) -> str:
        return f"HVModel(atoms={len(self.atoms)}, observables={list(self.labels)})"


def _atom_labels(values: np.ndarray) -> list[str]:
    """Label each atom by its tuple of (rounded) eigenvalues, with an integer
    tiebreak for repeated tuples."""
    labels: list[str] = []
    seen: dict[str, int] = {}
    for col in values.T:
        base = "(" + ",".join(f"{v:+g}" for v in np.round(col, 6) + 0.0) + ")"
        n = seen.get(base, 0)
        seen[base] = n + 1
        labels.append(base if n == 0 else f"{base}#{n}")
    return labels


def _as_labelled(ops) -> tuple[list[str], list[np.ndarray]]:
    if isinstance(ops, Mapping):
        items = list(ops.items())
    else:
        items = [(label, op) for label, op in ops]
    labels = [str(k) for k, _ in items]
    if len(set(labels)) != len(labels):
        raise ValueError("observable labels must be unique")
    return labels, [as_matrix(op) for _, op in items]


def build_hv_model(state: DensityOperator, ops) -> HVModel:
    """Build the hidden-variable model for a state and a labelled commuting family.

    ``ops`` is a mapping label -> Hermitian matrix (or a sequence of pairs).
    Weights are the state's diagonal in the joint eigenbasis; value tables are
    the operators' eigenvalues there.
    """
    labels, mats = _as_labelled(ops)
    for k, m in enumerate(mats):
        if m.shape[0] != state.dim:
            raise ValueError(f"operator {labels[k]!r} dimension {m.shape[0]} != state dimension {state.dim}")
    eb = joint_eigenbasis(mats)
    weights = np.real(np.diag(dagger(eb.basis) @ state.matrix @ eb.basis))
    tables = {label: eb.values[k] for k, label in enumerate(labels)}
    return HVModel(_atom_labels(eb.values), weights, tables)


def hv_expectation(model: HVModel, observable_labels: Sequence[str]) -> float:
    """Model expectation of the product of the named observables.

    The empty product is 1 (normalization).
    """
    prod = np.ones_like(model.weights)
    for label in observable_labels:
        if label not in model.value_tables:
            raise KeyError(f"unknown observable label {label!r}")
        prod = prod * model.value_tables[label]
    return float(np.dot(model.weights, prod))


@dataclass(frozen=True)
class ModelVerification:
    max_error: float
    linearity_error: float


def verify_model(model: HVModel, state: DensityOperator, ops) -> ModelVerification:
    """Compare the model against quantum expectations.

    ``max_error`` is the worst |quantum - model| over all products of up to
    three observables; ``linearity_error`` is the worst deviation of
    <A + B> from the model's sum-of-values expectation over all pairs.
    """
    labels, mats = _as_labelled(ops)
    by_label = dict(zip(labels, mats))
    dim = state.dim

    max_error = 0.0
    for size in range(1, min(3, len(labels)) + 1):
        for subset in combinations(labels, size):
            prod = np.eye(dim, dtype=complex)
            for label in subset:
                prod = prod @ by_label[label]
            quantum = state.expectation(prod)
            max_error = max(max_error, abs(quantum - hv_expectation(model, subset)))

    linearity_error = 0.0
    for x, y in combinations(labels, 2):
        quantum = state.expectation(by_label[x] + by_label[y])
        model_side = float(np.dot(model.weights, model.value_tables[x] + model.value_tables[y]))
        linearity_error = max(linearity_error, abs(quantum - model_side))

    return ModelVerification(max_error=max_error, linearity_error=linearity_error)
