"""Constructive hidden-variable models for commuting observable families.

For any state and any finite family of pairwise commuting Hermitian
observables there is a finite model (atoms, weights, value tables) that
reproduces every quantum expectation and correlation: diagonalize the family
simultaneously, read the weights off the state's diagonal in that basis, and
read each observable's values off its own diagonal. ``verify_model`` checks
the reproduction numerically.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, NamedTuple, Sequence

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
    nonnegative_weights,
    probability_vector,
    _symmetrized_eigh,
)


class JointEigenbasis(NamedTuple):
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


def _joint_basis(mats: list[np.ndarray], dim: int) -> np.ndarray:
    """Orthonormal columns on which every operator of the family is diagonal.

    Level k rotates each block B of columns still degenerate under the operators
    before it, so that the k-th operator's restriction B†AB (checked Hermitian on
    entry, so not again) is diagonal, and splits the block at spectral gaps wider
    than CLUSTER_TOL. This is what makes simultaneous diagonalization robust to
    (analytic) degeneracy. The blocks of one level and width are solved as one
    stack and rotated in place, so each column is the one a depth-first
    refinement, one block at a time, gives.
    """
    basis = np.eye(dim, dtype=complex)
    blocks = {dim: [0]} if dim > 1 else {}  # width -> first column of each open block
    for a in mats:
        split: dict[int, list[int]] = {}
        for width, starts in blocks.items():
            stack = np.array([basis[:, s:s + width] for s in starts])
            w, u = _symmetrized_eigh(dagger(stack) @ a @ stack)
            for s, ev, rotated in zip(starts, w.tolist(), stack @ u):
                basis[:, s:s + width] = rotated
                cuts = [0, *(j for j in range(1, width) if ev[j] - ev[j - 1] > CLUSTER_TOL), width]
                for lo, hi in zip(cuts, cuts[1:]):
                    if hi - lo > 1:
                        split.setdefault(hi - lo, []).append(s + lo)
        blocks = split
    return basis


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

    basis = _joint_basis(mats, dim)
    values = np.real(np.diagonal(dagger(basis) @ np.array(mats) @ basis, axis1=1, axis2=2))

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
            str(k): np.array(v, dtype=float) for k, v in value_tables.items()
        }
        for k, v in self.value_tables.items():
            if v.shape != w.shape:
                raise ValueError(f"value table {k!r} has {v.shape[0]} entries, expected {w.shape[0]}")
            v.setflags(write=False)

    @classmethod
    def _derived(cls, atoms: tuple[str, ...], w: np.ndarray, value_tables: Mapping[str, np.ndarray]) -> "HVModel":
        """A model on built atoms and read-only tables whose float weights' sum is already checked,
        kept after the nonnegativity guard alone; the tables' dict is its own."""
        model = cls.__new__(cls)
        model.atoms, model.weights, model.value_tables = atoms, nonnegative_weights(w), dict(value_tables)
        return model

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
    for col in (np.round(values, 6) + 0.0).T.tolist():
        base = "(" + ",".join(f"{v:+g}" for v in col) + ")"
        n = seen.get(base, 0)
        seen[base] = n + 1
        labels.append(base if n == 0 else f"{base}#{n}")
    return labels


def _as_labelled(ops: Mapping) -> tuple[list[str], list[np.ndarray]]:
    labels = [str(k) for k in ops]
    if len(set(labels)) != len(labels):  # distinct keys such as 1 and "1" render to one label
        raise ValueError("observable labels must be unique")
    return labels, [as_matrix(op) for op in ops.values()]


def build_hv_model(state: DensityOperator, ops: Mapping) -> HVModel:
    """Build the hidden-variable model for a state and a labelled commuting family.

    ``ops`` is a mapping label -> Hermitian matrix.
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


class ModelVerification(NamedTuple):
    max_error: float
    linearity_error: float


def verify_model(model: HVModel, state: DensityOperator, ops: Mapping) -> ModelVerification:
    """Compare the model against quantum expectations.

    ``max_error`` is the worst |quantum - model| over all products of up to
    three observables; ``linearity_error`` is the worst deviation of
    <A + B> from the model's sum-of-values expectation over all pairs.
    """
    labels, mats = _as_labelled(ops)
    subsets = [s for size in (1, 2, 3) for s in combinations(labels, size)]
    if not subsets:
        return ModelVerification(max_error=0.0, linearity_error=0.0)
    pairs = list(combinations(labels, 2))
    by_label = dict(zip(labels, mats))
    # Each product is built once, from its prefix, as I @ A @ B @ C would be; the
    # pair sums follow the products in the same stack.
    prods = {(): np.eye(state.dim, dtype=complex)}
    for subset in subsets:
        prods[subset] = prods[subset[:-1]] @ by_label[subset[-1]]
    stack = [prods[s] for s in subsets] + [by_label[x] + by_label[y] for x, y in pairs]
    quantum = np.trace(state.matrix @ np.array(stack), axis1=1, axis2=2).real.tolist()

    errors = [abs(q - hv_expectation(model, s)) for q, s in zip(quantum, subsets)]
    tables = model.value_tables
    deviations = [
        abs(q - float(np.dot(model.weights, tables[x] + tables[y])))
        for q, (x, y) in zip(quantum[len(subsets):], pairs)
    ]
    return ModelVerification(max_error=max([0.0, *errors]), linearity_error=max([0.0, *deviations]))
