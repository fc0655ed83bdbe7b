"""EPR-type scenarios: dichotomic observables split across two subsystems,
the CHSH form and its classical bound, the Bell operator,
violation maximization over measurement directions, and the spacelike
separation estimate for a two-apparatus test.

Side convention: observables ``a`` and ``c`` act on subsystem 1, ``b`` and
``d`` on subsystem 2, matching the tensor positions in the Bell operator
a(x)b + c(x)b + c(x)d - a(x)d. beta, Fine's criterion and the quadrilateral
check (on distances d(X, Y) = (1 - <xy>)/2, slack (2 - |CHSH|)/2) read one CHSH form.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .linalg import (
    CHSH_TOL,
    DEFAULT_TOL,
    DensityOperator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PureState,
    as_matrix,
    dagger,
    frobenius_norm,
    frobenius_norms,
    identity,
)

#: Exact defined value of the speed of light, m/s.
SPEED_OF_LIGHT = 299_792_458.0
#: Quantum ceiling on the CHSH combination.
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Preset states
# ---------------------------------------------------------------------------

_SINGLET_VECTOR = np.array([0.0, 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0], dtype=complex)
_SINGLET = np.outer(_SINGLET_VECTOR, np.conj(_SINGLET_VECTOR))
_SINGLET.setflags(write=False)


@functools.cache
def singlet_state() -> DensityOperator:
    """Two-qubit zero-total-spin pure state (|01> - |10>)/sqrt(2); one shared read-only instance."""
    return PureState(_SINGLET_VECTOR).density()


@functools.cache
def product00_state() -> DensityOperator:
    """|00><00|; one shared read-only instance."""
    return PureState([1.0, 0.0, 0.0, 0.0]).density()


@functools.lru_cache(maxsize=16)
def maximally_mixed_state(dim: int = 4) -> DensityOperator:
    """I/dim, checked once per dimension; one shared read-only instance each."""
    return DensityOperator(np.eye(dim, dtype=complex) / dim)


def werner_state(w: float) -> DensityOperator:
    """w * singlet + (1 - w) * I/4 for w in [0, 1]: a convex mix of two valid states, so not re-checked."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"werner weight must be in [0, 1], got {w}")
    return DensityOperator._derived(w * _SINGLET + (1.0 - w) * identity(4) / 4.0)


def preset_state(name: str) -> DensityOperator:
    """Resolve a named preset: singlet, product00, mixed, or werner:<w>."""
    if name == "singlet":
        return singlet_state()
    if name == "product00":
        return product00_state()
    if name == "mixed":
        return maximally_mixed_state(4)
    if name.startswith("werner:"):
        return werner_state(float(name.split(":", 1)[1]))
    raise ValueError(f"unknown state preset {name!r}")


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

def direction_vector(theta_deg: float, phi_deg: float = 0.0) -> np.ndarray:
    """Unit 3-vector from polar/azimuthal angles in degrees."""
    t, p = math.radians(theta_deg), math.radians(phi_deg)
    return np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)])


def _spin_stack(directions) -> np.ndarray:
    """n . sigma for each unit 3-vector n of ``directions``, as one (K, 2, 2) stack.

    The first direction that is not a unit 3-vector is named, in order. One broadcast
    multiply-add forms every entry by the same complex arithmetic as a single observable's."""
    rows = []
    for direction in directions:
        n = np.asarray(direction, dtype=float)
        if n.shape != (3,) or not abs(frobenius_norm(n) - 1.0) <= DEFAULT_TOL:
            raise ValueError(f"direction must be a unit 3-vector, got {direction!r}")
        rows.append(n)
    n = np.array(rows)
    return n[:, 0, None, None] * PAULI_X + n[:, 1, None, None] * PAULI_Y + n[:, 2, None, None] * PAULI_Z


def spin_observable(direction) -> np.ndarray:
    """n . sigma for a unit 3-vector n: a traceless +-1 qubit observable."""
    return _spin_stack([direction])[0]


def positive_projector(observable) -> np.ndarray:
    """Projector onto the +1 eigenspace of a +-1 observable: (x + I)/2, after the +-1 rule."""
    x = as_matrix(observable)
    _check_dichotomic("x", x[None])
    return (x + identity(x.shape[0])) / 2.0


def _check_dichotomic(names: str, x: np.ndarray) -> None:
    """The one +-1 rule, on a (K, d, d) stack with one letter of ``names`` per slice:
    |x - x†| <= ε = DEFAULT_TOL and |x² - I| <= CHSH_TOL/4 (Frobenius norms).

    One stacked x - x† and one stacked x @ x - I; each slice equals the single observable's difference
    bit for bit, and ``frobenius_norms`` norms each stack in one reduction that keeps each slice's
    ``frobenius_norm`` bit for bit. The first failure is named in stack order, the Hermitian test before x² = I.

    Write h, k = (x ± x†)/2, so |k| <= ε/2. Then, for every valid state ρ (Hermitian, trace 1, PSD):
    - P = (x + I)/2 passes is_projector at ε: P - P† = (x - x†)/2 and P² - P = (x² - I)/4.
    - h² - I is the Hermitian part of x² - I less k², so |h| <= r = 1 + CHSH_TOL/8 + ε²/8. The mixed
      terms of x⊗y are anti-Hermitian, so Re Tr(ρ x⊗y) = Tr(ρ h⊗h') + Tr(ρ k⊗k'), and every
      correlation has |<x⊗y>| <= r² + ε²/4 <= 1 + CHSH_TOL/4 + ε².
    - On a product state <x⊗y> = αγ - α'γ' with α, γ in [-r, r] and |α'|, |γ'| <= ε/2. By the CHSH bound
      on [-r, r] and linearity in ρ, a separable state has |β| <= 2r² + ε² <= 2 + CHSH_TOL/2 + 2ε² < 2 + CHSH_TOL."""
    if x.shape[-1] != x.shape[-2]:
        raise ValueError(f"observable {names[0]} must be square")
    hermitian = frobenius_norms(x - dagger(x)).tolist()
    squares = frobenius_norms(x @ x - identity(x.shape[-1])).tolist()
    for name, h, q in zip(names, hermitian, squares):
        if not h <= DEFAULT_TOL:
            raise ValueError(f"observable {name} is not Hermitian within tolerance")
        if not q <= CHSH_TOL / 4:
            raise ValueError(f"observable {name} does not square to the identity within tolerance")


def _checked_sides(obs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The observables a, b, c, d as read-only side stacks (a, c) and (b, d), each checked once by the
    +-1 rule in a, b, c, d order, so every +-1 failure precedes a shape error. Four observables of one
    shape are one stacked pass over one read-only (4, M, M) copy, and both sides are strided views of
    it; any other shapes are checked one observable at a time."""
    a, b, c, d = obs
    if a.shape == b.shape == c.shape == d.shape:
        stack = np.array(obs)
        stack.setflags(write=False)
        _check_dichotomic("abcd", stack)
        return stack[0::2], stack[1::2]
    for name, x in zip("abcd", obs):
        _check_dichotomic(name, x[None])
    if a.shape != c.shape:
        raise ValueError("observables a and c must share the first subsystem's dimension")
    if b.shape != d.shape:
        raise ValueError("observables b and d must share the second subsystem's dimension")
    sides = np.array([a, c]), np.array([b, d])
    for side in sides:
        side.setflags(write=False)
    return sides


class BellScenario:
    """Four dichotomic observables split across two subsystems, plus a joint state.

    ``a`` and ``c`` act on the first subsystem (dimension M), ``b`` and ``d``
    on the second (dimension N); the state lives on dimension M*N.

    A read-only value checked once at construction: the observables are
    copied into the read-only side stacks ``_sides`` = ((a, c), (b, d)),
    checked as +-1 observables, and ``a`` to ``d`` are views of them. It
    keeps, once computed, the cross products, the Bell operator and beta.
    """

    def __init__(self, a, b, c, d, state: DensityOperator):
        first, second = _checked_sides([as_matrix(x) for x in (a, b, c, d)])
        m, n = first.shape[-1], second.shape[-1]
        if state.dim != m * n:
            raise ValueError(f"state dimension {state.dim} != M*N = {m * n}")
        vars(self).update(a=first[0], b=second[0], c=first[1], d=second[1], state=state, dims=(m, n),
                          _sides=(first, second), _derived={})

    def __setattr__(self, name, value):
        raise AttributeError(f"BellScenario is read-only: cannot set {name!r}")

    @classmethod
    def from_directions(cls, state: DensityOperator, na, nb, nc, nd) -> "BellScenario":
        """Two-qubit scenario from four measurement directions (unit 3-vectors)."""
        return cls(*_spin_stack((na, nb, nc, nd)), state)

    def __repr__(self) -> str:
        return f"BellScenario(dims={self.dims})"


class _Correlations(NamedTuple):
    ab: float
    bc: float
    cd: float
    ad: float


class CorrelationSet(_Correlations):
    """The four measured product expectations; the range check rejects one that a state's slack pushes past 1.

    A subclass, since a NamedTuple body may not define ``__new__``; ``_make`` (and so ``_replace``) checks too."""
    __slots__ = ()

    def __new__(cls, ab: float, bc: float, cd: float, ad: float):
        for name, v in zip(cls._fields, (ab, bc, cd, ad)):
            if not -1.0 - CHSH_TOL <= v <= 1.0 + CHSH_TOL:
                raise ValueError(f"correlation {name} = {v} outside [-1, 1]")
        return super().__new__(cls, ab, bc, cd, ad)

    @classmethod
    def _make(cls, iterable) -> "CorrelationSet":
        return cls(*iterable)


def _kept(derive):
    """Make ``derive(s)`` run once per scenario; later calls return the kept value."""
    @functools.wraps(derive)
    def kept(s: BellScenario):
        value = s._derived.get(derive.__name__)
        if value is None:
            # setdefault: a concurrent first call keeps whichever result landed first.
            value = s._derived.setdefault(derive.__name__, derive(s))
        return value

    return kept


@_kept
def _cross_products(s: BellScenario) -> np.ndarray:
    """a(x)b, c(x)b, c(x)d, a(x)d as one read-only (4, MN, MN) stack.

    One broadcast multiply of factors indexed from the side stacks, (a, c, c, a)
    and (b, b, d, d); each entry is the single complex product ``np.kron``
    forms, so every slice equals its ``kron`` bit for bit.
    """
    m, n = s.dims
    first, second = s._sides
    left = first[[0, 1, 1, 0]][:, :, None, :, None]
    right = second[[0, 0, 1, 1]][:, None, :, None, :]
    products = (left * right).reshape(4, m * n, m * n)
    products.setflags(write=False)
    return products


def correlations(s: BellScenario) -> CorrelationSet:
    """Measured correlations <xy> = Tr(rho x(x)y) for the four cross pairs."""
    return CorrelationSet(*[s.state.expectation(p) for p in _cross_products(s)])


#: The CHSH form's relabellings, in the order ``_chsh_paths`` yields them: identity, a <-> c, b <-> d, both.
CHSH_LABELS = ("abcd", "cbad", "adcb", "cdab")


def _chsh_paths(ab, bc, cd, ad):
    """The CHSH form on the pair quantities, floats or matrices: for each relabelling, lazily, the sum along its
    path of three pairs and the pair that closes it, which carries the minus sign."""
    yield ab + bc + cd, ad
    yield bc + ab + ad, cd
    yield ad + cd + bc, ab
    yield cd + ad + ab, bc


def _chsh_values(q):
    """path - closing, the CHSH value, of each relabelling of q = (ab, bc, cd, ad), lazily."""
    return (path - closing for path, closing in _chsh_paths(*q))


def _within_classical_bound(v: float) -> bool:
    """The classical bound on a CHSH value: |v| <= 2, to CHSH_TOL."""
    return abs(v) <= 2.0 + CHSH_TOL


def chsh_value(c: CorrelationSet) -> float:
    """<ab> + <bc> + <cd> - <ad>: the form's first relabelling; classically bounded by |.| <= 2."""
    return next(_chsh_values(c))


class BellOperator(NamedTuple):
    """The CHSH witness operator a(x)b + c(x)b + c(x)d - a(x)d."""
    matrix: np.ndarray
    dims: tuple[int, int]


@_kept
def bell_operator(s: BellScenario) -> BellOperator:
    """The scenario's Bell operator; its matrix is read-only."""
    matrix = next(_chsh_values(_cross_products(s)))
    matrix.setflags(write=False)
    return BellOperator(matrix=matrix, dims=s.dims)


@_kept
def beta(s: BellScenario) -> float:
    """Tr(B rho): the scenario's CHSH value; |beta| > 2 violates the classical bound."""
    return s.state.expectation(bell_operator(s).matrix)


# ---------------------------------------------------------------------------
# Violation maximization (two qubits)
# ---------------------------------------------------------------------------

class ViolationSearch(NamedTuple):
    directions: dict[str, np.ndarray]
    beta_max: float


_PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])


def correlation_matrix(state: DensityOperator) -> np.ndarray:
    """T[i, j] = Tr(rho sigma_i (x) sigma_j) for a two-qubit state."""
    if state.dim != 4:
        raise ValueError("correlation matrix requires a two-qubit state")
    r4 = state.matrix.reshape(2, 2, 2, 2)
    return np.einsum("abcd,ica,jdb->ij", r4, _PAULIS, _PAULIS).real


def maximize_violation(state: DensityOperator) -> ViolationSearch:
    """Largest |CHSH value| over the four measurement directions of a two-qubit state.

    Closed form of R., P. & M. Horodecki, Phys. Lett. A 200, 340 (1995): with
    the correlation matrix T = U diag(s) V^T and s1 >= s2 its two largest
    singular values, beta_max = 2 sqrt(s1^2 + s2^2). It is attained at
    b = v1, d = v2 and a, c = (s1 u1 -+ s2 u2) / sqrt(s1^2 + s2^2), where the
    Bell-operator trace gives beta = +beta_max. When s1 = s2 = 0 (e.g. the
    maximally mixed state) every choice gives 0; a = u1 and c = u2 are returned.
    """
    u, s, vt = np.linalg.svd(correlation_matrix(state))
    norm = math.hypot(s[0], s[1])
    if norm == 0.0:
        na, nc = u[:, 0], u[:, 1]
    else:
        na = (s[0] * u[:, 0] - s[1] * u[:, 1]) / norm
        nc = (s[0] * u[:, 0] + s[1] * u[:, 1]) / norm
    dirs = {"a": na, "b": vt[0], "c": nc, "d": vt[1]}
    return ViolationSearch(directions=dirs, beta_max=2.0 * norm)


def epr_min_separation(length_m: float, velocity_ms: float) -> float:
    """Minimum apparatus separation 2 L c / v for spacelike-separated measurements.

    ``length_m`` is the length of each measuring apparatus, ``velocity_ms``
    the particle speed; measurement lasts L/v, so light must not be able to
    cross between the apparatuses within it. The length is checked before
    the velocity, then the separation (a tiny velocity overflows it), and each
    error text begins with the quantity at fault.
    """
    if not math.isfinite(length_m):
        raise ValueError("apparatus length must be finite")
    if length_m <= 0.0:
        raise ValueError("apparatus length must be positive")
    if not math.isfinite(velocity_ms):
        raise ValueError("velocity must be finite")
    if not 0.0 < velocity_ms < SPEED_OF_LIGHT:
        raise ValueError("velocity must be positive and below the speed of light")
    separation = 2.0 * length_m * SPEED_OF_LIGHT / velocity_ms
    if not math.isfinite(separation):
        raise ValueError("separation 2 L c / v exceeds the float range")
    return separation
