"""Randomized property sweeps over states, scenarios, and marginal sets.

Every sweep returns rows of (seed, kind, slack) with the uniform convention
that slack >= -tolerance means the property held for that sample; the
per-sweep tolerances live in SWEEP_TOLERANCES. Rows are deterministic
functions of the base seed.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .entropy import (
    CLASSICAL_KINDS,
    ClassicalDistribution,
    bell_purity_bound,
    check_concavity,
    entropy_report,
    linear_entropy_criterion,
)
from .feasibility import MarginalSet, _marginal_sets, joint_feasible
from .linalg import (
    CHSH_TOL,
    MARGINAL_TOL,
    SLACK_TOL,
    DensityOperator,
    hermitian_eigensystem,
    random_density,
    random_dichotomic,
    tensor_product,
)
from .scenario import (
    TSIRELSON_BOUND,
    BellScenario,
    _check_dichotomic,
    _spin_stack,
    bell_operator,
    beta,
    direction_vector,
    maximize_violation,
    werner_state,
)


class SweepRow(NamedTuple):
    seed: int
    kind: str
    slack: float


LAMBDA_GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
ENTROPY_KINDS = ("shannon", "von_neumann", "linear_classical", "linear_quantum")


def _random_classical(size: int, seed: int, dims=None) -> ClassicalDistribution:
    rng = np.random.default_rng(seed)
    w = rng.exponential(size=size)
    return ClassicalDistribution(w / w.sum(), dims=dims)


def _random_input(kind: str, size: int, seed: int, dims=None):
    """A random distribution or state, whichever of the two the entropy ``kind`` applies to."""
    return _random_classical(size, seed, dims) if kind in CLASSICAL_KINDS else random_density(size, seed=seed)


def _kind_seeds(samples: int, seed: int):
    """(kind, seed + i) for i below max(1, samples // 4), kind-major over ENTROPY_KINDS."""
    per_kind = max(1, samples // len(ENTROPY_KINDS))
    return ((kind, seed + i) for kind in ENTROPY_KINDS for i in range(per_kind))


def _traceless_scenario(m: int, n: int, seed: int, state: DensityOperator) -> BellScenario:
    """Traceless +-1 observables a, b, c, d on sides M, N, M, N, drawn from seeds seed ... seed + 3, on ``state``."""
    return BellScenario(*(random_dichotomic(k, traceless=True, seed=seed + i) for i, k in enumerate((m, n, m, n))),
                        state=state)


def random_traceless_scenario(m: int, n: int, seed: int) -> BellScenario:
    return _traceless_scenario(m, n, seed, random_density(m * n, seed=seed + 4))


def _cycled_scenarios(samples: int, seed: int, dims_list: Iterable[tuple[int, int]]):
    """(seed + i, m, n, random_traceless_scenario(m, n, 10 * (seed + i))) with (m, n) cycling through ``dims_list``."""
    dims_list = tuple(dims_list)
    for i in range(samples):
        m, n = dims_list[i % len(dims_list)]
        yield seed + i, m, n, random_traceless_scenario(m, n, 10 * (seed + i))


def sweep_concavity(samples: int, seed: int = 0, dim: int = 4) -> list[SweepRow]:
    rows = []
    for kind, s in _kind_seeds(samples, seed):
        a, b = (_random_input(kind, dim, 2 * s + k) for k in (0, 1))
        rows.append(SweepRow(s, kind, check_concavity(a, b, LAMBDA_GRID, kind)))
    return rows


def sweep_subadditivity(samples: int, seed: int = 0, dims: tuple[int, int] = (2, 2)) -> list[SweepRow]:
    m, n = dims
    return [SweepRow(s, kind, entropy_report(_random_input(kind, m * n, s, dims), kind, dims=dims).subadditivity)
            for kind, s in _kind_seeds(samples, seed)]


def sweep_classical_monotonicity(samples: int, seed: int = 0, dims: tuple[int, int] = (2, 3)) -> list[SweepRow]:
    m, n = dims
    reports = (entropy_report(_random_classical(m * n, seed + i, dims=dims), "shannon") for i in range(samples))
    return [SweepRow(seed + i, "shannon", rep.monotonicity) for i, rep in enumerate(reports)]


def sweep_araki_lieb(samples: int, seed: int = 0, dims: tuple[int, int] = (2, 2)) -> list[SweepRow]:
    m, n = dims
    reports = (entropy_report(random_density(m * n, seed=seed + i), "von_neumann", dims=dims) for i in range(samples))
    return [SweepRow(seed + i, "von_neumann", rep.triangle) for i, rep in enumerate(reports)]


def sweep_purity_bound(samples: int, seed: int = 0) -> list[SweepRow]:
    """Purity-vs-CHSH bound on random two-qubit states with traceless observables."""
    return [SweepRow(s, "purity_bound", bell_purity_bound(scenario))
            for s, _, _, scenario in _cycled_scenarios(samples, seed, [(2, 2)])]


def sweep_bell_traces(samples: int, seed: int = 0, dims_list: Iterable[tuple[int, int]] = ((2, 2), (2, 4), (4, 4))) -> list[SweepRow]:
    """Trace identities of the Bell operator for traceless observables:
    slack = -|Tr B| and -|Tr B^2 - 4MN| (zero deviation = zero slack)."""
    rows = []
    for s, m, n, scenario in _cycled_scenarios(samples, seed, dims_list):
        bm = bell_operator(scenario).matrix
        rows.append(SweepRow(s, f"trace_{m}x{n}", -abs(float(np.trace(bm).real))))
        rows.append(SweepRow(s, f"trace_sq_{m}x{n}", -abs(float(np.trace(bm @ bm).real) - 4.0 * m * n)))
    return rows


def sweep_tsirelson(samples: int, seed: int = 0, dims_list: Iterable[tuple[int, int]] = ((2, 2), (2, 4), (4, 4))) -> list[SweepRow]:
    """Largest Bell-operator eigenvalue against the quantum ceiling."""
    rows = []
    for s, m, n, scenario in _cycled_scenarios(samples, seed, dims_list):
        w, _ = hermitian_eigensystem(bell_operator(scenario).matrix)
        rows.append(SweepRow(s, f"spectrum_{m}x{n}", TSIRELSON_BOUND - max(abs(w[0]), abs(w[-1]))))
    return rows


def sweep_product_beta(samples: int, seed: int = 0) -> list[SweepRow]:
    """Product states never beat the classical CHSH bound: slack = 2 - |beta|. A product of checked draws
    is a valid state, so it is not re-checked."""
    rows = []
    for i in range(samples):
        s0 = 10 * (seed + i)
        ra = random_density(2, seed=s0)
        rb = random_density(2, seed=s0 + 1)
        s = _traceless_scenario(2, 2, s0 + 2, DensityOperator._derived(tensor_product(ra.matrix, rb.matrix)))
        rows.append(SweepRow(seed + i, "product_beta", 2.0 - abs(beta(s))))
    return rows


CANONICAL_DIRECTIONS = tuple(direction_vector(t) for t in (0.0, 45.0, 90.0, 135.0))


#: Quantum draws measured together by random_marginal_scenarios: it bounds the batch's arrays at any sample count.
MARGINAL_CHUNK = 256


def _draw_marginal_case(seed: int):
    """One seed's draw from its own generator: (kind, marginal set, None) for an explicit joint,
    else (kind, state matrix, four measurement directions)."""
    rng = np.random.default_rng(seed)
    case = seed % 4
    if case == 0:
        q = rng.exponential(size=16)
        return "joint", MarginalSet.of_joint(q / q.sum()), None
    if case == 1:
        return "werner", werner_state(float(rng.uniform())).matrix, CANONICAL_DIRECTIONS
    lo, span = ((0.0, 0.0), (180.0, 360.0)) if case == 2 else ((-15.0, -10.0), (30.0, 20.0))
    angles = (np.array(lo) + np.array(span) * rng.random((4, 2))).tolist()  # (theta, phi) x 4: rng.uniform's bytes
    if case == 2:
        dirs = [direction_vector(theta, phi) for theta, phi in angles]
        return "random_state", random_density(4, seed=seed).matrix, dirs
    jitter = [direction_vector(t + dt, dp) for t, (dt, dp) in zip((0.0, 45.0, 90.0, 135.0), angles)]
    return "near_extremal", werner_state(float(rng.uniform(0.7, 1.0))).matrix, jitter


def random_marginal_scenarios(seeds: Iterable[int]) -> Iterator[tuple[MarginalSet, str]]:
    """(marginal set, kind) for each seed, in order: marginal sets spanning feasible and
    infeasible territory, namely explicit joints, Werner states at canonical angles, and random
    states/directions (including pure entangled states near extremality).

    Each seed draws from its own generator, so a set does not depend on the seeds around it.
    The quantum draws among each MARGINAL_CHUNK seeds are measured together: one spin stack,
    one +-1 check of every observable as a BellScenario applies it, and one contraction."""
    seeds = iter(seeds)
    while chunk := [_draw_marginal_case(seed) for seed in islice(seeds, MARGINAL_CHUNK)]:
        quantum = [(rho, dirs) for _, rho, dirs in chunk if dirs is not None]
        if quantum:
            spins = _spin_stack([n for _, dirs in quantum for n in dirs])
            _check_dichotomic("abcd" * len(quantum), spins)
            spins = spins.reshape(len(quantum), 4, 2, 2)
            measured = iter(_marginal_sets(np.array([rho for rho, _ in quantum]), spins[:, 0::2], spins[:, 1::2]))
        for kind, value, dirs in chunk:
            yield (value if dirs is None else next(measured)), kind


def random_marginal_scenario(seed: int) -> tuple[MarginalSet, str]:
    """:func:`random_marginal_scenarios` for one seed."""
    return next(random_marginal_scenarios((seed,)))


def sweep_fine_equivalence(samples: int, seed: int = 0) -> list[SweepRow]:
    """LP feasibility must agree with the four permuted CHSH inequalities, and
    every witness must reproduce its marginals: slack = +1 on agreement, -1 on
    any mismatch."""
    rows = []
    for s, (m, kind) in enumerate(random_marginal_scenarios(range(seed, seed + samples)), seed):
        verdict = joint_feasible(m)
        ok = verdict.feasible == verdict.fine_criterion
        if verdict.feasible:
            got = MarginalSet.of_joint(verdict.witness.weights)
            ok = ok and all(abs(g - v) < MARGINAL_TOL for g, v in zip(got, m))
        rows.append(SweepRow(s, kind, 1.0 if ok else -1.0))
    return rows


def sweep_sufficiency(samples: int, seed: int = 0) -> list[SweepRow]:
    """States passing the linear-entropy condition must stay classical under
    optimization: slack = 2 - beta_max over such states."""
    rows = []
    attempts = 0
    while len(rows) < samples and attempts < 50 * samples:
        s = seed + attempts
        attempts += 1
        state = random_density(4, seed=s)
        if not linear_entropy_criterion(state, (2, 2)).holds:
            continue
        best = maximize_violation(state).beta_max
        rows.append(SweepRow(s, "sufficiency", 2.0 - best))
    if len(rows) < samples:
        raise RuntimeError("could not draw enough states satisfying the condition")
    return rows


SWEEPS: dict[str, Callable[..., list[SweepRow]]] = {
    "concavity": sweep_concavity,
    "subadditivity": sweep_subadditivity,
    "classical-monotonicity": sweep_classical_monotonicity,
    "araki-lieb": sweep_araki_lieb,
    "purity-bound": sweep_purity_bound,
    "bell-traces": sweep_bell_traces,
    "tsirelson": sweep_tsirelson,
    "product-beta": sweep_product_beta,
    "fine-equivalence": sweep_fine_equivalence,
    "sufficiency": sweep_sufficiency,
}

#: Pass thresholds: a sweep passes when min slack >= -tolerance.
SWEEP_TOLERANCES: dict[str, float] = {
    "concavity": SLACK_TOL,
    "subadditivity": SLACK_TOL,
    "classical-monotonicity": SLACK_TOL,
    "araki-lieb": SLACK_TOL,
    "purity-bound": 1e-9,
    "bell-traces": 1e-8,
    "tsirelson": CHSH_TOL,
    "product-beta": CHSH_TOL,
    "fine-equivalence": 0.0,
    "sufficiency": 1e-6,
}


def run_sweep(name: str, samples: int, seed: int = 0, **params) -> tuple[list[SweepRow], float]:
    """Run a registered sweep; returns (rows, min_slack)."""
    if name not in SWEEPS:
        raise ValueError(f"unknown sweep {name!r}; available: {sorted(SWEEPS)}")
    rows = SWEEPS[name](samples, seed=seed, **params)
    return rows, min(r.slack for r in rows)
