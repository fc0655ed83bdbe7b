"""Dense complex linear algebra for small Hilbert spaces (dimension <= 64).

Everything here is a pure function of its inputs; the value types are
immutable after construction and safe to share across threads. A state is
checked once, where it enters: :class:`DensityOperator` checks a matrix from
outside, and a state derived from checked parents (:func:`partial_trace`,
:meth:`PureState.density`, :func:`random_density`) keeps their check instead
of re-running it. A state keeps its purity, its spectrum (an eigenvalue-only
solve), and its reduced states (a split's two sides built as one pair): each is
computed once, then the same read-only object is returned.

Every tolerance of the toolkit is decided once, in the table below, and read
by name elsewhere; each entry gives its unit and the reason for its value.
The only other tolerance literals are three sweep thresholds in ``sweeps``.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Sequence

import numpy as np

#: Frobenius norm: validity predicates (hermiticity, trace, norm, positivity), observables' hermiticity.
DEFAULT_TOL = 1e-9
#: Frobenius norm of a commutator: inputs are analytic, so this sits far above roundoff.
COMMUTE_TOL = 1e-8
#: Eigenvalue gap: one degenerate cluster; above solver noise (~1e-13), below analytic gaps.
CLUSTER_TOL = 1e-7
#: Absolute on probabilities: weight signs and sums, eigenvalue roundoff clamp, subset chains.
PROB_TOL = 1e-12
#: Absolute on probabilities: measured marginals' consistency, witness sum and reproduction.
MARGINAL_TOL = 1e-9
#: Sum of marginal residuals: a phase-1 objective above this certifies infeasibility.
LP_FEASIBILITY_TOL = 1e-9
#: CHSH units: |CHSH| <= 2 + CHSH_TOL, correlations in [-1, 1]; a +-1 observable's |x² - I| <= CHSH_TOL/4.
CHSH_TOL = 1e-9
#: Inequality slack: a checked inequality holds when its slack is >= -SLACK_TOL.
SLACK_TOL = 1e-10
#: Simplex rounding guard: ratio-test values this close tie, and Bland's rule breaks the tie.
RATIO_TIE = 1e-15
#: Largest supported Hilbert-space dimension for the dense eigensolver.
MAX_DIM = 64

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def as_matrix(data) -> np.ndarray:
    """Coerce nested lists / arrays to a 2-D complex matrix."""
    m = np.asarray(data, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose; of each matrix, on a stack of matrices."""
    return np.conj(m).swapaxes(-1, -2)


def frobenius_norm(m: np.ndarray) -> float:
    """``float(np.linalg.norm(m))`` bit for bit on float64, complex128 and
    integer input, matrix or 1-D vector, without its wrapper: the same
    memory-order ravel and dot products (real and imaginary parts apart),
    then one correctly rounded square root."""
    v = np.asarray(m).ravel(order="K")
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    if v.dtype.kind != "f":
        v = v.astype(float)
    return math.sqrt(v.dot(v))


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """``frobenius_norm(stack[k])`` for each C-contiguous slice of a float64 or complex128 stack, bit
    for bit, in one pass: ``np.vecdot`` reads each slice by the same dot products, then ``np.sqrt``."""
    v = stack.reshape(len(stack), -1)
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
    return np.sqrt(np.vecdot(v, v))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def is_hermitian(m) -> bool:
    m = as_matrix(m)
    return m.shape[0] == m.shape[1] and frobenius_norm(m - dagger(m)) <= DEFAULT_TOL


def is_projector(m) -> bool:
    m = as_matrix(m)
    return is_hermitian(m) and frobenius_norm(m @ m - m) <= DEFAULT_TOL


@functools.lru_cache(maxsize=16)
def identity(dim: int) -> np.ndarray:
    """Read-only real identity of size ``dim``, built once and shared by every caller."""
    eye = np.eye(dim)
    eye.setflags(write=False)
    return eye


def probability_vector(weights, sum_tol: float = PROB_TOL) -> np.ndarray:
    """Read-only copy of weights >= -PROB_TOL summing to 1 within ``sum_tol``, clipped to >= 0."""
    w = np.asarray(weights, dtype=float)
    clipped = nonnegative_weights(w)
    if not abs(w.sum() - 1.0) <= sum_tol:  # a NaN weight makes the sum NaN
        raise ValueError(f"weights sum to {w.sum()}, expected 1")
    return clipped


def nonnegative_weights(w: np.ndarray) -> np.ndarray:
    """Read-only copy of a float array of weights >= -PROB_TOL, clipped to >= 0."""
    if (w < -PROB_TOL).any():
        raise ValueError("weights must be nonnegative")
    w = np.maximum(w, 0.0)  # as np.clip(w, 0.0, None): -0.0 becomes +0.0
    w.setflags(write=False)
    return w


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product; dimensions multiply and (a@c) x (b@d) = (a x b)(c x d)."""
    return np.kron(as_matrix(a), as_matrix(b))


def matrix_from_lists(rows: Sequence[Sequence]) -> np.ndarray:
    """Parse a matrix literal: a list of rows whose entries are [re, im] pairs.

    Bare numbers are accepted as purely real entries. Used by the CLI config
    format, so a JSON boolean or string is never a number, and a malformed
    row or entry raises ValueError naming it as ``[i]`` or ``[i][j]``.
    """
    def is_number(x) -> bool:
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise ValueError(f"matrix row [{i}] must be a list of entries, got {row!r}")
        out_row = []
        for j, entry in enumerate(row):
            if is_number(entry):
                out_row.append(complex(entry))
            elif isinstance(entry, (list, tuple)) and len(entry) == 2 and all(map(is_number, entry)):
                out_row.append(complex(float(entry[0]), float(entry[1])))
            else:
                raise ValueError(
                    f"matrix entry [{i}][{j}] must be a number or a [re, im] pair, got {entry!r}"
                )
        parsed.append(out_row)
    m = as_matrix(parsed)
    if any(len(row) != m.shape[1] for row in rows):
        raise ValueError("matrix rows have unequal lengths")
    return m


# ---------------------------------------------------------------------------
# Eigensolver
# ---------------------------------------------------------------------------

def hermitian_eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """Full eigensystem of a Hermitian matrix (LAPACK, via ``np.linalg.eigh``).

    Returns ``(w, V)`` with eigenvalues ``w`` sorted ascending and orthonormal
    eigenvectors as the columns of ``V``, so that ``m = V @ diag(w) @ V†`` with
    a reconstruction residual below ``1e-10 * dim``. The input must be square,
    of dimension at most ``MAX_DIM``, and Hermitian within ``DEFAULT_TOL``; it is
    symmetrized before the solve so both triangles count.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] <= MAX_DIM and not is_hermitian(a):  # past MAX_DIM, the limit's error wins
        raise ValueError("matrix is not Hermitian within tolerance")
    return _symmetrized_eigh(a)


def _symmetrized_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hermitian_eigensystem` on a square matrix, or a stack of them, whose
    Hermiticity is already decided."""
    return np.linalg.eigh(_symmetrized(a))


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """The matrix, or each of a stack, that the eigensolves read: (a + a†) / 2, of dimension <= MAX_DIM."""
    if a.shape[-1] > MAX_DIM:
        raise ValueError(f"dimension {a.shape[-1]} exceeds the supported maximum {MAX_DIM}")
    return (a + dagger(a)) / 2.0


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

class DensityOperator:
    """Trace-one positive Hermitian matrix on a finite-dimensional Hilbert space."""

    def __init__(self, matrix):
        m = as_matrix(matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"density operator must be square, got shape {m.shape}")
        if not frobenius_norm(m - m.conj().T) <= DEFAULT_TOL:
            raise ValueError("density operator is not Hermitian within tolerance")
        tr = m.trace().real
        if abs(tr - 1.0) > DEFAULT_TOL:
            raise ValueError(f"density operator trace is {tr}, expected 1")
        dim = m.shape[0]
        # Positive semidefiniteness: rho + 2 tol I must admit a Cholesky factor.
        try:
            np.linalg.cholesky(m + (DEFAULT_TOL * 2.0) * identity(dim))
        except np.linalg.LinAlgError:
            raise ValueError("density operator has eigenvalues below -tol") from None
        self._adopt(m.copy())
        purity = self.purity()
        if not (1.0 / dim - DEFAULT_TOL <= purity <= 1.0 + DEFAULT_TOL):
            raise ValueError(f"purity {purity} outside [1/{dim}, 1]")

    @classmethod
    def _derived(cls, m: np.ndarray) -> "DensityOperator":
        """A fresh matrix whose validity follows from checked parents, kept without a re-check."""
        rho = cls.__new__(cls)
        rho._adopt(m)
        return rho

    def _adopt(self, m: np.ndarray) -> None:
        m.setflags(write=False)
        self._matrix = m
        self._purity: float | None = None
        self._spectrum: np.ndarray | None = None
        #: Reduced states (side 1, side 2) by split (M, N), filled by :func:`_reduced_pair`.
        self._reduced: dict[tuple[int, int], tuple[DensityOperator, DensityOperator]] = {}

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def purity(self) -> float:
        """Tr(rho^2), in [1/dim, 1]; 1 exactly for pure states. Computed on the first call, then kept."""
        if self._purity is None:
            self._purity = float((self._matrix @ self._matrix).trace().real)
        return self._purity

    def spectrum(self) -> np.ndarray:
        """Eigenvalues, ascending, from an eigenvalue-only solve under the eigensolver's limit; kept read-only."""
        if self._spectrum is None:
            w = np.linalg.eigvalsh(_symmetrized(self._matrix))
            w.setflags(write=False)
            self._spectrum = w
        return self._spectrum

    def expectation(self, observable) -> float:
        """Tr(rho A) for a Hermitian observable A."""
        return float((self._matrix @ as_matrix(observable)).trace().real)

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim}, purity={self.purity():.6f})"


class PureState:
    """Unit vector in a finite-dimensional Hilbert space."""

    def __init__(self, amplitudes):
        v = np.asarray(amplitudes, dtype=complex)
        if v.ndim != 1:
            raise ValueError(f"state vector must be 1-D, got shape {v.shape}")
        norm_sq = float(np.vdot(v, v).real)
        if not abs(norm_sq - 1.0) <= DEFAULT_TOL:
            raise ValueError(f"state vector squared norm is {norm_sq}, expected 1")
        v = v.copy()
        v.setflags(write=False)
        self._amplitudes = v

    @classmethod
    def normalized(cls, amplitudes) -> "PureState":
        v = np.asarray(amplitudes, dtype=complex)
        norm = frobenius_norm(v)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(v / norm)

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    @property
    def dim(self) -> int:
        return self._amplitudes.shape[0]

    def density(self) -> DensityOperator:
        return DensityOperator._derived(np.outer(self._amplitudes, np.conj(self._amplitudes)))

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim})"


def partial_trace(rho12: DensityOperator, dims: tuple[int, int], keep: int) -> DensityOperator:
    """Trace out one side of a bipartite state.

    ``dims = (M, N)`` are the subsystem dimensions; ``keep`` is 1 or 2 and
    selects the surviving side. Satisfies Tr(rho_1 X) = Tr(rho_12 (X x I)).
    The result is a member of :func:`_reduced_pair`'s kept pair: later calls
    with the same arguments return that object, after the same argument checks.
    """
    pair = _reduced_pair(rho12, dims)
    if keep not in (1, 2):
        raise ValueError(f"keep must be 1 or 2, got {keep}")
    return pair[0] if keep == 1 else pair[1]


def _reduced_pair(rho12: DensityOperator, dims: tuple[int, int]) -> tuple[DensityOperator, DensityOperator]:
    """Both reduced states ``(rho_1, rho_2)``, after one check of ``dims``: built on a split's first
    call, they keep ``rho12``'s check and are kept on it, and later calls return the same pair."""
    # Integers only: the store is keyed by dims, and 2.0 == 2 would hit it.
    m, n = (operator.index(x) for x in dims)
    if m < 1 or n < 1:
        raise ValueError(f"dims must be positive, got {dims}")
    if rho12.dim != m * n:
        raise ValueError(f"state dimension {rho12.dim} does not match dims {dims}")
    pair = rho12._reduced.get((m, n))
    if pair is None:
        r4 = rho12.matrix.reshape(m, n, m, n)
        built = tuple(DensityOperator._derived(np.einsum(s, r4)) for s in ("injn->ij", "inim->nm"))
        # setdefault: a concurrent first call keeps whichever pair landed first.
        pair = rho12._reduced.setdefault((m, n), built)
    return pair


# ---------------------------------------------------------------------------
# Random generation (explicitly seeded, bit-for-bit reproducible)
# ---------------------------------------------------------------------------

def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random unitary: QR of a complex Gaussian matrix, phases fixed."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-ish random unitary drawn from ``seed``."""
    return _haar_unitary(np.random.default_rng(seed), dim)


def random_density(dim: int, seed: int) -> DensityOperator:
    """Random mixed state: G G† / Tr(G G†) with G complex standard Gaussian."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ dagger(g)
    return DensityOperator._derived(m / np.trace(m).real)


def random_pure(dim: int, seed: int) -> PureState:
    """Random pure state: normalized complex Gaussian vector."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState.normalized(v)


def random_dichotomic(dim: int, traceless: bool, seed: int) -> np.ndarray:
    """Random Hermitian observable with spectrum contained in {-1, +1}.

    Built as U diag(+-1) U† with a Haar-ish random U. With ``traceless`` the
    spectrum is balanced (equal counts of +1 and -1), which requires even dim.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if traceless and dim % 2 != 0:
        raise ValueError("a balanced +-1 spectrum requires even dimension")
    rng = np.random.default_rng(seed)
    if traceless:
        signs = np.array([1.0] * (dim // 2) + [-1.0] * (dim // 2))
        rng.shuffle(signs)
    else:
        signs = rng.choice([-1.0, 1.0], size=dim)
    u = _haar_unitary(rng, dim)
    return u @ np.diag(signs).astype(complex) @ dagger(u)
