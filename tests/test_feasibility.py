import hashlib
import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, target
from hypothesis import strategies as st
from scipy.optimize import linprog

from bellkit import feasibility, sweeps
from bellkit.cli import main
from bellkit.errors import InconsistentMarginalsError
from bellkit.feasibility import (
    MarginalSet,
    _BASIS_STORE,
    _LP_MATRIX,
    _basis_entry,
    _phase1_simplex,
    contextuality_demo,
    fine_criterion,
    joint_feasible,
    marginals_from_scenario,
)
from bellkit.hidden_vars import HVModel, _atom_labels, hv_expectation
from bellkit.linalg import (
    CHSH_TOL,
    DEFAULT_TOL,
    MARGINAL_TOL,
    DensityOperator,
    frobenius_norm,
    is_projector,
    probability_vector,
    random_density,
    random_dichotomic,
    tensor_product,
)
from bellkit.scenario import (
    BellScenario,
    bell_operator,
    beta,
    direction_vector,
    positive_projector,
    singlet_state,
    werner_state,
)
from bellkit.sweeps import (
    CANONICAL_DIRECTIONS,
    MARGINAL_CHUNK,
    random_marginal_scenario,
    random_marginal_scenarios,
    random_traceless_scenario,
    sweep_fine_equivalence,
)

CANONICAL = [direction_vector(t) for t in (0.0, 45.0, 90.0, 135.0)]


def canonical_singlet_scenario():
    return BellScenario.from_directions(singlet_state(), *CANONICAL)


def random_joint(seed) -> MarginalSet:
    """The marginals of a random joint distribution with full support."""
    rng = np.random.default_rng(seed)
    q = rng.exponential(size=16)
    return MarginalSet.of_joint(q / q.sum())


def scipy_feasible(m: MarginalSet) -> bool:
    """Independent LP oracle through scipy's interior-point/HiGHS solver."""
    b = np.array([1.0] + [getattr(m, k) for k in
                          ("p_a", "p_b", "p_c", "p_d", "p_ab", "p_ad", "p_bc", "p_cd")])
    res = linprog(c=np.zeros(16), A_eq=_LP_MATRIX, b_eq=b, bounds=[(0, None)] * 16,
                  method="highs")
    return res.status == 0


def marginals_from_correlations(e: dict[str, float]) -> MarginalSet:
    """Symmetric marginals (all singles 1/2) with prescribed pair correlations."""
    def pxy(key):
        return (e[key] + 1.0) / 4.0
    return MarginalSet(p_a=0.5, p_b=0.5, p_c=0.5, p_d=0.5,
                       p_ab=pxy("ab"), p_ad=pxy("ad"), p_bc=pxy("bc"), p_cd=pxy("cd"))


class TestJointMarginals:
    def test_point_mass(self):
        w = np.zeros(16)
        w[0b1111] = 1.0
        assert MarginalSet.of_joint(w) == MarginalSet(*[1.0] * 8)

    def test_marginals_equal_the_sixteen_index_loop_bit_for_bit(self):
        def loop_marginal(w, labels):
            bit = {"a": 8, "b": 4, "c": 2, "d": 1}
            total = 0.0
            for idx in range(16):
                if all(idx & bit[x] for x in labels):
                    total += w[idx]
            return float(total)

        for seed in range(50):
            q = np.random.default_rng(seed).exponential(size=16)
            w = q / q.sum()
            expected = MarginalSet(*(loop_marginal(w, name[2:]) for name in MarginalSet._fields))
            assert repr(MarginalSet.of_joint(w)) == repr(expected), seed


class TestJointWitness:
    def test_a_witness_is_the_checked_model_of_its_weights(self):
        for seed in range(200):
            witness = joint_feasible(random_marginal_scenario(seed)[0]).witness
            if witness is None:
                continue
            checked = HVModel(witness.atoms, witness.weights, witness.value_tables)
            assert witness.weights.tobytes() == checked.weights.tobytes()
            assert not witness.weights.flags.writeable
            assert all(not t.flags.writeable for t in witness.value_tables.values())

    def test_a_derived_witness_keeps_the_nonnegativity_guard(self):
        w = np.full(16, 1.0 / 16)
        w[3], w[4] = -1e-6, 1.0 / 16 + 1e-6
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            HVModel._derived(feasibility._ATOM_LABELS, w, feasibility._ATOM_TABLES)
        w[3], w[4] = -0.0, 1.0 / 16
        derived = HVModel._derived(feasibility._ATOM_LABELS, w, feasibility._ATOM_TABLES)
        assert str(derived.weights[3]) == "0.0"  # -0.0 is clipped to +0.0

    def test_the_witness_is_a_model_of_its_marginals(self):
        checked, previous = 0, None
        for m, _ in random_marginal_scenarios(range(500)):
            witness = joint_feasible(m).witness
            if witness is None:
                continue
            checked += 1
            assert hv_expectation(witness, ()) == pytest.approx(1.0, abs=1e-12)
            for x, y in ("ab", "ad", "bc", "cd"):
                p_xy, p_x, p_y = getattr(m, f"p_{x}{y}"), getattr(m, f"p_{x}"), getattr(m, f"p_{y}")
                correlation = 4.0 * p_xy - 2.0 * p_x - 2.0 * p_y + 1.0
                assert abs(hv_expectation(witness, (x, y)) - correlation) <= 4 * MARGINAL_TOL, (m, x, y)
            assert witness.atoms == tuple(_atom_labels(np.array([witness.value_tables[x] for x in "abcd"])))
            for i in range(16):
                bits = [i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1]
                assert [witness.value_tables[x][i] for x in "abcd"] == [1.0 if b else -1.0 for b in bits], i
            if previous is not None:
                previous.value_tables["a"] = np.zeros(16)
                del previous.value_tables["d"]
                assert witness.labels == ("a", "b", "c", "d")
                assert witness.value_tables["a"].tolist() == [-1.0] * 8 + [1.0] * 8
            previous = witness
        assert checked > 100
        assert joint_feasible(random_joint(0)).witness.value_tables["a"].tolist() == [-1.0] * 8 + [1.0] * 8


class TestMarginalSet:
    def test_consistency_rejects_pair_above_single(self):
        m = MarginalSet(p_a=0.2, p_b=0.5, p_c=0.5, p_d=0.5,
                        p_ab=0.4, p_ad=0.1, p_bc=0.25, p_cd=0.25)
        with pytest.raises(InconsistentMarginalsError):
            m.validate()
        with pytest.raises(InconsistentMarginalsError):
            joint_feasible(m)

    def test_frechet_lower_bound(self):
        m = MarginalSet(p_a=0.9, p_b=0.9, p_c=0.5, p_d=0.5,
                        p_ab=0.5, p_ad=0.4, p_bc=0.4, p_cd=0.25)
        with pytest.raises(InconsistentMarginalsError):
            m.validate()

    def test_round_trip_dict(self):
        m = random_joint(11)
        assert MarginalSet.from_dict(m._asdict()) == m

    def test_built_sets_hold_python_floats(self):
        # A report's marginals are the set's _asdict(), so each way the program builds a set must hold floats.
        vertex = {"p_a": 1, "p_b": 0, "p_c": 1, "p_d": 0, "p_ab": 0, "p_ad": 0, "p_bc": 0, "p_cd": 0}
        for m in (MarginalSet.from_dict(vertex), random_joint(3),
                  marginals_from_scenario(canonical_singlet_scenario())):
            assert [type(v) for v in m._asdict().values()] == [float] * 8

    def test_from_dict_rejects_unknown_and_missing(self):
        with pytest.raises(ValueError):
            MarginalSet.from_dict({"p_a": 0.5})
        record = random_joint(0)._asdict()
        record["p_ac"] = 0.1
        with pytest.raises(ValueError):
            MarginalSet.from_dict(record)


    @pytest.mark.parametrize("bad", ["0.5", True, None, math.nan, math.inf, -math.inf])
    def test_from_dict_rejects_non_numbers_and_non_finite(self, bad):
        record = random_joint(0)._asdict()
        record["p_bc"] = bad
        with pytest.raises(ValueError, match="p_bc"):
            MarginalSet.from_dict(record)


class TestJointFeasible:
    def test_round_trip_random_joints(self):
        for seed in range(300):
            m = random_joint(seed)
            verdict = joint_feasible(m)
            assert verdict.feasible
            assert verdict.fine_criterion
            got = MarginalSet.of_joint(verdict.witness.weights)
            for k, v in m._asdict().items():
                assert abs(getattr(got, k) - v) < 1e-9

    def test_singlet_canonical_infeasible(self):
        verdict = joint_feasible(marginals_from_scenario(canonical_singlet_scenario()))
        assert not verdict.feasible
        assert verdict.witness is None
        assert not verdict.fine_criterion
        values = sorted(abs(v) for v in verdict.chsh_values)
        assert values[-1] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert values[:3] == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)

    def test_product_state_feasible(self):
        ra = random_density(2, seed=1)
        rb = random_density(2, seed=2)
        s = BellScenario.from_directions(
            DensityOperator(tensor_product(ra.matrix, rb.matrix)), *CANONICAL
        )
        verdict = joint_feasible(marginals_from_scenario(s))
        assert verdict.feasible and verdict.fine_criterion

    def test_exact_boundary_feasible(self):
        # Deterministic all-true data sits exactly on |chsh| = 2.
        w = np.zeros(16)
        w[0b1111] = 1.0
        verdict = joint_feasible(MarginalSet.of_joint(w))
        assert verdict.feasible
        assert max(abs(v) for v in verdict.chsh_values) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("delta,expect_feasible", [(-1e-6, True), (1e-6, False)])
    def test_adversarial_near_boundary(self, delta, expect_feasible):
        # Scale the singlet's extremal correlations so one CHSH value is 2 + delta.
        scale = (2.0 + delta) / (2 * math.sqrt(2))
        e = {"ab": -scale / math.sqrt(2), "bc": -scale / math.sqrt(2),
             "cd": -scale / math.sqrt(2), "ad": scale / math.sqrt(2)}
        m = marginals_from_correlations(e)
        verdict = joint_feasible(m)
        assert verdict.feasible == expect_feasible
        assert verdict.fine_criterion == expect_feasible
        assert scipy_feasible(m) == expect_feasible

    @settings(max_examples=80, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(weights=st.lists(st.just(0.0) | st.just(1.0) | st.floats(0.0, 1.0), min_size=16, max_size=16)
           .filter(lambda w: sum(w) > 0.1))
    def test_fuzzed_joints_always_feasible(self, tmp_path_factory, weights):
        # Classical marginals never exit 1. Sparse weights, with exact zeros, put joints on faces and
        # vertices, and the search climbs towards the largest |CHSH| value, onto the CH facets.
        q = np.asarray(weights)
        m = MarginalSet.of_joint(q / q.sum())
        verdict = joint_feasible(m)
        assert verdict.feasible and verdict.fine_criterion
        path = tmp_path_factory.getbasetemp() / "joint.json"
        path.write_text(json.dumps({"schema": 1, "marginals": m._asdict()}))
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["feasibility", "--config", str(path)])
        assert code == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        results = json.loads(out.getvalue(), parse_constant=reject)["results"]
        assert results["feasible"] is True and results["fine_criterion"] is True
        witness = probability_vector(np.array(results["witness"]))
        assert witness.shape == (16,)
        for name, value in MarginalSet.of_joint(witness)._asdict().items():
            assert abs(value - getattr(m, name)) <= MARGINAL_TOL, name
        target(max(abs(v) for v in results["chsh_values"]))

    def test_witness_deterministic(self):
        m = random_joint(77)
        w1 = joint_feasible(m).witness.weights
        w2 = joint_feasible(m).witness.weights
        assert np.array_equal(w1, w2)

    def test_agrees_with_scipy_oracle(self):
        rng = np.random.default_rng(5)
        checked_infeasible = 0
        for seed in range(120):
            if seed % 3 == 0:
                m = random_joint(seed)
            elif seed % 3 == 1:
                w = rng.uniform(0.0, 1.0)
                s = BellScenario.from_directions(werner_state(w), *CANONICAL)
                m = marginals_from_scenario(s)
            else:
                dirs = [direction_vector(rng.uniform(0, 180), rng.uniform(0, 360)) for _ in range(4)]
                s = BellScenario.from_directions(random_density(4, seed=seed), *dirs)
                m = marginals_from_scenario(s)
            verdict = joint_feasible(m)
            assert verdict.feasible == scipy_feasible(m)
            assert verdict.feasible == verdict.fine_criterion
            checked_infeasible += not verdict.feasible
        assert checked_infeasible > 5  # the sample spans both sides


def prbox_marginals(delta: float) -> MarginalSet:
    """PR-box/white-noise mixture at weight w = 1/2 + delta: |CHSH| = 4w."""
    w = 0.5 + delta
    return MarginalSet(p_a=0.5, p_b=0.5, p_c=0.5, p_d=0.5,
                       p_ab=(1 + w) / 4, p_ad=(1 - w) / 4, p_bc=(1 + w) / 4, p_cd=(1 + w) / 4)


class TestPinnedWitnesses:
    """The simplex does only elementwise float arithmetic (no BLAS or LAPACK
    call), so its pivot sequence and witness bytes are reproducible exactly.
    The digest pins both across refactors of the tableau code."""

    DIGEST = "0b91eef64cb6b011689e65a7d2fcad511fe2cb2448a3d85c6b43d9d943d37726"

    @staticmethod
    def pinned_sets() -> list[MarginalSet]:
        sets = [random_joint(seed) for seed in range(40)]
        for d in (1e-4, 1e-6, 1e-8, 1e-9, 3e-10, 1e-10, 1e-11, 1e-12):
            sets += [prbox_marginals(d), prbox_marginals(-d)]
        for atom in range(16):
            w = np.zeros(16)
            w[atom] = 1.0
            sets.append(MarginalSet.of_joint(w))
        return sets

    def test_verdicts_and_witness_bytes(self):
        h = hashlib.sha256()
        feasible = 0
        for m in self.pinned_sets():
            verdict = joint_feasible(m)
            feasible += verdict.feasible
            h.update(b"F" if verdict.feasible else b"I")
            if verdict.witness is not None:
                h.update(verdict.witness.weights.tobytes())
        assert feasible == 68  # PR-box mixes at delta >= +1e-9 are infeasible
        assert h.hexdigest() == self.DIGEST


class TestPinnedScenarioBytes:
    """Scenario marginals, Bell operators and beta are fixed numpy arithmetic on seeded draws,
    so the digests pin them across changes to how a scenario keeps its observables."""

    #: Raw bytes: holds on one host only. The draws and the products go through LAPACK and BLAS,
    #: whose last bits depend on the kernel OpenBLAS picks (``OPENBLAS_CORETYPE``) and on the build.
    DIGEST = "97057ef92f865ff0e02814bf75a4c49c8463ca9543385d31929755472c8ec2af"
    #: The same values rounded to 1e-9, as ``_digest`` rounds: one digest under OpenBLAS's
    #: default (SkylakeX), Haswell, Sandybridge and Prescott kernels.
    ROUNDED_DIGEST = "141807c09871f2387e9e73b0c5b94c319cf391d57b3386908492a5ee99d288a0"

    @staticmethod
    def draw(m: int, n: int, seed: int) -> BellScenario:
        """``random_traceless_scenario``, or its draws without the balanced spectrum at odd dims."""
        if m % 2 == 0 and n % 2 == 0:
            return random_traceless_scenario(m, n, seed)
        obs = (random_dichotomic(k, traceless=False, seed=seed + i) for i, k in enumerate((m, n, m, n)))
        return BellScenario(*obs, state=random_density(m * n, seed=seed + 4))

    def pinned(self):
        """Each scenario's marginals, Bell operator and beta, then each drawn marginal set's kind and values."""
        for dims in ((2, 2), (2, 3), (3, 2), (4, 4)):
            for seed in range(6):
                s = self.draw(*dims, 10 * seed)
                yield np.array(list(marginals_from_scenario(s)._asdict().values()))
                yield bell_operator(s).matrix
                yield np.float64(beta(s))
        for seed in range(40):
            m, kind = random_marginal_scenario(seed)
            yield kind
            yield np.array(list(m._asdict().values()))

    def digest(self, encode) -> str:
        h = hashlib.sha256()
        for value in self.pinned():
            h.update(value.encode() if isinstance(value, str) else encode(value))
        return h.hexdigest()

    def test_marginals_bell_operators_and_beta(self):
        assert self.digest(lambda a: a.tobytes()) == self.DIGEST

    def test_rounded_digest_holds_across_blas_kernels(self):
        assert self.digest(lambda a: (np.round(a, 9) + 0.0).tobytes()) == self.ROUNDED_DIGEST


def scenario_marginal_draw(seed: int):
    """One seed's marginal set and kind drawn as one BellScenario each, the reference for the batched draws."""
    rng = np.random.default_rng(seed)
    case = seed % 4
    if case == 0:
        q = rng.exponential(size=16)
        return MarginalSet.of_joint(q / q.sum()), "joint"
    if case == 1:
        s = BellScenario.from_directions(werner_state(float(rng.uniform())), *CANONICAL_DIRECTIONS)
        return marginals_from_scenario(s), "werner"
    if case == 2:
        dirs = [direction_vector(float(rng.uniform(0, 180)), float(rng.uniform(0, 360))) for _ in range(4)]
        s = BellScenario.from_directions(random_density(4, seed=seed), *dirs)
        return marginals_from_scenario(s), "random_state"
    jitter = [direction_vector(t + float(rng.uniform(-15, 15)), float(rng.uniform(-10, 10)))
              for t in (0.0, 45.0, 90.0, 135.0)]
    s = BellScenario.from_directions(werner_state(float(rng.uniform(0.7, 1.0))), *jitter)
    return marginals_from_scenario(s), "near_extremal"


class TestBatchedMarginalDraws:
    """Batched draws measure each quantum sample with its chunk, yet give the bytes of one scenario at a time."""

    SEEDS = range(1_000, 1_000 + MARGINAL_CHUNK + 45)

    def test_batch_matches_single_scenarios_across_chunks(self):
        batch = list(random_marginal_scenarios(self.SEEDS))
        assert len(batch) == len(self.SEEDS) > MARGINAL_CHUNK
        assert {kind for _, kind in batch} == {"joint", "werner", "random_state", "near_extremal"}
        for seed, (m, kind) in zip(self.SEEDS, batch):
            ref, ref_kind = scenario_marginal_draw(seed)
            assert kind == ref_kind, seed
            assert np.array(m).tobytes() == np.array(ref).tobytes(), seed
            assert random_marginal_scenario(seed) == (m, kind)

    def test_every_quantum_observable_meets_the_scenario_check(self, monkeypatch):
        checked = []

        def counting(names, x):
            checked.append((names, x.shape))
            return check(names, x)

        check = sweeps._check_dichotomic
        monkeypatch.setattr(sweeps, "_check_dichotomic", counting)
        list(random_marginal_scenarios(range(MARGINAL_CHUNK + 8)))
        # 3 of every 4 seeds are quantum: 192 in the first chunk, 6 in the second.
        assert checked == [("abcd" * 192, (768, 2, 2)), ("abcd" * 6, (24, 2, 2))]

    def test_sweep_rows_match_one_sample_at_a_time(self):
        seed, samples = 3_000, MARGINAL_CHUNK + 9
        rows = sweep_fine_equivalence(samples, seed=seed)
        assert rows == [row for i in range(samples) for row in sweep_fine_equivalence(1, seed=seed + i)]

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (4, 4)])
    def test_contraction_of_a_batch_matches_each_scenario(self, dims):
        scenarios = [TestPinnedScenarioBytes.draw(*dims, 10 * seed) for seed in range(5)]
        batch = feasibility._marginal_sets(np.array([s.state.matrix for s in scenarios]),
                                           np.array([s._sides[0] for s in scenarios]),
                                           np.array([s._sides[1] for s in scenarios]))
        for s, m in zip(scenarios, batch):
            assert np.array(m).tobytes() == np.array(marginals_from_scenario(s)).tobytes()


def _reference_tableau() -> np.ndarray:
    """The phase-1 tableau of the numpy simplex this module pinned first."""
    n_rows, n_cols = _LP_MATRIX.shape
    tableau = np.zeros((n_rows + 1, n_cols + n_rows + 1))
    tableau[:n_rows, :n_cols] = _LP_MATRIX
    tableau[:n_rows, n_cols:n_cols + n_rows] = np.eye(n_rows)
    tableau[-1, :n_cols] = -_LP_MATRIX.sum(axis=0)
    tableau.setflags(write=False)
    return tableau


_REFERENCE_TABLEAU = _reference_tableau()


def reference_phase1_simplex(b: np.ndarray, pivot_tol: float = 1e-12, pivots: list | None = None):
    """The numpy phase-1 simplex, kept verbatim as an oracle for the
    Python-float one: Bland's rule, scans over ``.tolist()`` reads, and one
    dense rank-1 numpy update per pivot. ``pivots``, when given, receives
    each pivot's (entering, leaving) variables."""
    n_rows, n_cols = _LP_MATRIX.shape
    n_vars = n_cols + n_rows
    if np.any(b < 0):
        raise ValueError("right-hand side must be nonnegative")
    tableau = _REFERENCE_TABLEAU.copy()
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
        if pivots is not None:
            pivots.append((entering, basis[leaving]))
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


class TestSimplexAgainstNumpyReference:
    """The Python-float simplex makes the numpy one's pivots: the same
    objective and the same witness bytes, set by set."""

    def test_objective_and_witness_bytes(self):
        sets = [random_joint(seed) for seed in range(2000)]
        sets += [random_marginal_scenario(seed)[0] for seed in range(2000)]
        sets += TestPinnedWitnesses.pinned_sets()
        assert len(sets) >= 4000
        infeasible = 0
        for i, m in enumerate(sets):
            b = np.clip(np.array([1.0] + list(m._asdict().values())), 0.0, None)
            expected_objective, expected_x = reference_phase1_simplex(b)
            objective, x = _phase1_simplex(b.tolist())
            assert repr(objective) == repr(expected_objective), i
            assert np.array(x).tobytes() == expected_x.tobytes(), i
            infeasible += objective > 1e-9
        assert infeasible > 300  # both verdicts are well represented

    def test_deterministic_vertices_make_the_reference_pivots(self, monkeypatch):
        """At the 16 deterministic vertices b holds only 0s and 1s, so many
        ratios tie exactly at 0: the ascending-variable scan must break each
        tie as the reference's row scan with its lowest-variable clause does."""
        visited = []

        class RecordingStore(dict):
            def get(self, mask):
                visited.append(mask)
                return super().get(mask)

        monkeypatch.setattr(feasibility, "_BASIS_STORE", RecordingStore())
        full = np.hstack([_LP_MATRIX, np.eye(9)])
        ties = 0
        for atom in range(16):
            w = np.zeros(16)
            w[atom] = 1.0
            b = np.array([1.0] + list(MarginalSet.of_joint(w)._asdict().values()))
            expected_pivots = []
            expected_objective, expected_x = reference_phase1_simplex(b, pivots=expected_pivots)
            visited.clear()
            objective, x = _phase1_simplex(b.tolist())
            pivots = [((new & ~old).bit_length() - 1, (old & ~new).bit_length() - 1)
                      for old, new in zip(visited, visited[1:])]
            assert pivots == expected_pivots, atom
            assert repr(objective) == repr(expected_objective), atom
            assert np.array(x).tobytes() == expected_x.tobytes(), atom
            for mask, (entering, _) in zip(visited, expected_pivots):
                basic = [v for v in range(25) if mask >> v & 1]
                values = np.linalg.solve(full[:, basic], b)
                column = np.linalg.solve(full[:, basic], full[:, entering])
                ties += np.sum((column > 0.25) & (np.abs(values) < 0.25)) > 1
        assert ties > 16  # exact ties at ratio 0, beyond one per vertex

    def test_negative_right_hand_side_rejected(self):
        with pytest.raises(ValueError):
            _phase1_simplex([1.0, -0.5] + [0.0] * 7)

    def test_fraction_right_hand_side_solves_exactly(self):
        a = _LP_MATRIX.astype(int).tolist()
        for seed in range(10):
            m = random_joint(seed)
            b = [Fraction(1)] + [Fraction(v) for v in m._asdict().values()]
            objective, x = _phase1_simplex(b)
            assert objective == 0 and all(type(v) is Fraction and v >= 0 for v in x)
            assert [sum(aij * xj for aij, xj in zip(row, x)) for row in a] == b
        m = prbox_marginals(3e-10)
        objective, _ = _phase1_simplex([Fraction(1)] + [Fraction(v) for v in m._asdict().values()])
        assert type(objective) is Fraction and objective > 0


@pytest.fixture
def cold_store():
    """An empty phase-1 store; solving refills it, so no other test sees a difference."""
    _BASIS_STORE.clear()
    return _BASIS_STORE


class TestBasisStore:
    """The store of exact bases behind the float simplex: a cold and a warm
    solve make the numpy reference's pivots, every entry is the exact
    tableau's, and a Fraction solve leaves the store alone."""

    @staticmethod
    def sets() -> list[MarginalSet]:
        sets = [random_joint(seed) for seed in range(2000)]
        sets += [random_marginal_scenario(seed)[0] for seed in range(2000)]
        return sets + TestPinnedWitnesses.pinned_sets()

    def test_cold_and_warm_solves_match_the_reference(self, cold_store):
        sets = self.sets()
        assert len(sets) >= 4000
        for i, m in enumerate(sets):
            b = np.clip(np.array([1.0] + list(m._asdict().values())), 0.0, None)
            expected_objective, expected_x = reference_phase1_simplex(b)
            for _ in range(2):
                objective, x = _phase1_simplex(b.tolist())
                assert repr(objective) == repr(expected_objective), i
                assert np.array(x).tobytes() == expected_x.tobytes(), i
        assert len(cold_store) > 500

    def test_every_entry_is_the_exact_tableau(self, cold_store):
        for m in self.sets()[::8]:
            joint_feasible(m)
        full = np.hstack([_LP_MATRIX, np.eye(9)]).astype(np.int64)
        cost = np.array([0] * 16 + [1] * 9)
        for mask, (entering, column) in cold_store.items():
            basic = [v for v in range(25) if mask >> v & 1]
            assert len(basic) == 9
            b_matrix = full[:, basic]
            det = round(np.linalg.det(b_matrix))
            assert abs(det) in (1, 2), basic
            adjugate = np.rint(det * np.linalg.inv(b_matrix)).astype(np.int64)
            assert np.array_equal(b_matrix @ adjugate, det * np.eye(9, dtype=np.int64)), basic
            # det * (B^-1 [A | I]) and det * (c - c_B B^-1 [A | I]), in integers.
            tableau = adjugate @ full
            reduced = det * cost - cost[basic] @ tableau
            negative = [j for j in range(25) if reduced[j] * det < 0]
            assert entering == (negative[0] if negative else -1), basic
            if entering >= 0:
                expected = [0] * 25
                for var, value in zip(basic, tableau[:, entering]):
                    expected[var] = Fraction(int(value), det)
                assert dense_column(column, 0.0) == expected, basic
        assert len(cold_store) > 300

    def test_every_entry_lists_the_nonzero_adjugate_entries_in_variable_order(self, cold_store):
        for m in self.sets()[::8]:
            joint_feasible(m)
        for mask, (entering, column) in cold_store.items():
            if entering < 0:
                assert column is None
                continue
            basic = [v for v in range(25) if mask >> v & 1]
            exact_entering, exact = adjugate_entry(basic)
            assert entering == exact_entering, basic
            assert [var for var, _ in column] == [v for v in basic if exact[v] != 0], basic
            assert all(type(value) is float and value != 0.0 for _, value in column), basic
            assert [value for _, value in column] == [exact[var] for var, _ in column], basic
        assert len(cold_store) > 300

    def test_fraction_solve_leaves_the_store_alone(self, cold_store):
        m = random_joint(0)
        b = [Fraction(1)] + [Fraction(v) for v in m._asdict().values()]
        _phase1_simplex(b)
        assert not cold_store
        joint_feasible(m)
        warm = dict(cold_store)
        assert warm
        _phase1_simplex(b)
        assert cold_store == warm


def dense_column(column, zero) -> list:
    """The 25 entries of a stored column, from its nonzero (var, value) pairs."""
    dense = [zero] * 25
    for var, value in column:
        dense[var] = value
    return dense


def adjugate_entry(basic: list[int]) -> tuple[int, list]:
    """Bland's entering variable and its exact column at a basis of [A | I],
    from the integer adjugate d B^-1 with d = |det B|."""
    full = np.hstack([_LP_MATRIX, np.eye(9)]).astype(np.int64)
    cost = np.array([0] * 16 + [1] * 9)
    b_matrix = full[:, basic]
    det = round(np.linalg.det(b_matrix))
    adjugate = np.rint(det * np.linalg.inv(b_matrix)).astype(np.int64)
    assert np.array_equal(b_matrix @ adjugate, det * np.eye(9, dtype=np.int64))
    tableau = adjugate @ full
    reduced = det * cost - cost[basic] @ tableau
    entering = next(j for j in range(25) if reduced[j] * det < 0)
    column = [Fraction(0)] * 25
    for var, value in zip(basic, tableau[:, entering]):
        column[var] = Fraction(int(value), det)
    return entering, column


class TestBasisEntry:
    """An entry derived from its basis alone is exact at any |det|, also at a
    basis no solve of the sample sets reaches."""

    BASIC = [0, 3, 5, 9, 14, 21, 22, 23, 24]  # |det B| = 3
    MASK = 31474217

    def test_det_three_basis_is_exact(self):
        full = np.hstack([_LP_MATRIX, np.eye(9)]).astype(int)
        assert sum(1 << v for v in self.BASIC) == self.MASK
        assert abs(round(np.linalg.det(full[:, self.BASIC]))) == 3
        entering, pairs = _basis_entry(self.MASK, Fraction)
        column = dense_column(pairs, Fraction(0))
        assert entering == 7
        assert all(type(v) is Fraction for v in column)
        assert Fraction(-1, 3) in column and Fraction(2, 3) in column
        assert (entering, list(column)) == adjugate_entry(self.BASIC)
        # B times the column is the entering column of [A | I], exactly.
        product = [sum(int(full[r, v]) * column[v] for v in self.BASIC) for r in range(9)]
        assert product == full[:, entering].tolist()

    def test_float_entry_is_the_exact_entry_rounded(self):
        exact_entering, exact = _basis_entry(self.MASK, Fraction)
        entering, pairs = _basis_entry(self.MASK, float)
        exact, column = dense_column(exact, Fraction(0)), dense_column(pairs, 0.0)
        assert entering == exact_entering
        assert all(type(v) is float for v in column)
        assert list(column) == [float(v) for v in exact]
        assert column[0] == -1 / 3 and column[0] != Fraction(-1, 3)


class TestMarginalsFromScenario:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 4), (4, 2), (4, 4)])
    def test_matches_kron_formula(self, dims):
        m, n = dims
        for seed in range(4):
            a, c = (random_dichotomic(m, True, 10 * seed + k) for k in (1, 2))
            b, d = (random_dichotomic(n, True, 10 * seed + k) for k in (3, 4))
            rho = random_density(m * n, seed=seed)
            got = marginals_from_scenario(BellScenario(a, b, c, d, rho))
            lift = {
                "a": tensor_product(positive_projector(a), np.eye(n)),
                "c": tensor_product(positive_projector(c), np.eye(n)),
                "b": tensor_product(np.eye(m), positive_projector(b)),
                "d": tensor_product(np.eye(m), positive_projector(d)),
            }
            for name, value in got._asdict().items():
                p = np.eye(m * n)
                for x in name[2:]:
                    p = p @ lift[x]
                expected = np.clip(np.trace(rho.matrix @ p).real, 0.0, 1.0)
                assert abs(value - expected) <= 1e-12, (dims, seed, name)

    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 32, 64])
    def test_scenario_check_implies_the_projector_test(self, dim):
        # BellScenario's +-1 rule (|x - x^dagger| <= DEFAULT_TOL, |x^2 - I| <=
        # CHSH_TOL / 4) must imply the projector test at DEFAULT_TOL on (x + I)/2,
        # since marginals_from_scenario forms those projectors unchecked. Both
        # residuals sit just under their bounds here.
        eps = 0.99 * CHSH_TOL / 4 / math.sqrt(dim)  # each diagonal entry of x^2 - I
        x = np.diag(np.resize([1.0, -1.0], dim) * math.sqrt(1.0 + eps)).astype(complex)
        x[0, 1] = 0.99 * DEFAULT_TOL / math.sqrt(2.0)  # leaves x^2 diagonal
        assert 0.98 * DEFAULT_TOL < frobenius_norm(x - x.conj().T) <= DEFAULT_TOL
        assert 0.98 * CHSH_TOL / 4 < frobenius_norm(x @ x - np.eye(dim)) <= CHSH_TOL / 4
        one = np.eye(1, dtype=complex)
        marginals_from_scenario(BellScenario(x, one, x, one, DensityOperator(np.eye(dim) / dim)))
        assert is_projector(positive_projector(x))


class TestFineCriterion:
    def test_uniform_independent(self):
        m = MarginalSet(p_a=0.5, p_b=0.5, p_c=0.5, p_d=0.5,
                        p_ab=0.25, p_ad=0.25, p_bc=0.25, p_cd=0.25)
        report = fine_criterion(m)
        assert report.satisfied
        assert report.chsh_values == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=1e-12)

    def test_singlet_canonical(self):
        report = fine_criterion(marginals_from_scenario(canonical_singlet_scenario()))
        assert not report.satisfied
        assert max(abs(v) for v in report.chsh_values) == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_closed_boundary(self):
        e = {"ab": 0.5, "bc": 0.5, "cd": 0.5, "ad": -0.5}
        report = fine_criterion(marginals_from_correlations(e))
        assert report.satisfied
        assert max(report.chsh_values) == pytest.approx(2.0, abs=1e-12)

    def test_permutation_wiring(self):
        # Applying the a<->c label swap to the marginals must move the swapped
        # expression into the leading slot, and similarly for b<->d and both.
        m = random_joint(123)
        values = fine_criterion(m).chsh_values

        swapped_ac = MarginalSet(
            p_a=m.p_c, p_b=m.p_b, p_c=m.p_a, p_d=m.p_d,
            p_ab=m.p_bc, p_bc=m.p_ab, p_ad=m.p_cd, p_cd=m.p_ad,
        )
        swapped_bd = MarginalSet(
            p_a=m.p_a, p_b=m.p_d, p_c=m.p_c, p_d=m.p_b,
            p_ab=m.p_ad, p_ad=m.p_ab, p_bc=m.p_cd, p_cd=m.p_bc,
        )
        swapped_both = MarginalSet(
            p_a=m.p_c, p_b=m.p_d, p_c=m.p_a, p_d=m.p_b,
            p_ab=m.p_cd, p_cd=m.p_ab, p_ad=m.p_bc, p_bc=m.p_ad,
        )
        assert fine_criterion(swapped_ac).chsh_values[0] == pytest.approx(values[1], abs=1e-12)
        assert fine_criterion(swapped_bd).chsh_values[0] == pytest.approx(values[2], abs=1e-12)
        assert fine_criterion(swapped_both).chsh_values[0] == pytest.approx(values[3], abs=1e-12)


class TestContextualityDemo:
    def test_singlet_canonical(self):
        report = contextuality_demo(canonical_singlet_scenario())
        assert not report.verdict.feasible
        assert not report.all_commuting
        for label, verification in report.context_verifications.items():
            assert verification.max_error < 1e-9, label
            assert verification.linearity_error < 1e-9, label

    def test_fully_commuting_quadruple(self):
        # All four observables diagonal: a single Boolean context.
        z = np.diag([1.0, -1.0]).astype(complex)
        s = BellScenario(a=z, b=z, c=z, d=z, state=werner_state(0.4))
        report = contextuality_demo(s)
        assert report.all_commuting
        assert report.verdict.feasible
        assert all(v.max_error < 1e-9 for v in report.context_verifications.values())

    def test_classical_diagonal_scenarios_feasible(self):
        rng = np.random.default_rng(17)
        for seed in range(25):
            w = rng.exponential(size=4)
            state = DensityOperator(np.diag(w / w.sum()).astype(complex))
            signs = rng.choice([-1.0, 1.0], size=(4, 2))
            s = BellScenario(
                a=np.diag(signs[0]).astype(complex), b=np.diag(signs[1]).astype(complex),
                c=np.diag(signs[2]).astype(complex), d=np.diag(signs[3]).astype(complex),
                state=state,
            )
            report = contextuality_demo(s)
            assert report.verdict.feasible
