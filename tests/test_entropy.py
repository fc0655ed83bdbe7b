import math

import numpy as np
import pytest

from bellkit import linalg
from bellkit.entropy import (
    _entropy_of_probs,
    ClassicalDistribution,
    bell_purity_bound,
    check_concavity,
    correlation_gap_operator,
    entropy_report,
    horodecki_criterion,
    linear_entropy_classical,
    linear_entropy_quantum,
    linear_entropy_criterion,
    shannon_entropy,
    von_neumann_entropy,
)
from bellkit.linalg import (
    DensityOperator,
    dagger,
    partial_trace,
    random_density,
    random_dichotomic,
    random_pure,
    random_unitary,
    tensor_product,
)
from bellkit.scenario import (
    BellScenario,
    direction_vector,
    maximize_violation,
    product00_state,
    singlet_state,
    werner_state,
)

LAMBDA_GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
ALL_KINDS = ("shannon", "von_neumann", "linear_classical", "linear_quantum")


def random_classical(size, seed, dims=None):
    rng = np.random.default_rng(seed)
    w = rng.exponential(size=size)
    return ClassicalDistribution(w / w.sum(), dims=dims)


def canonical_singlet_scenario():
    dirs = [direction_vector(t) for t in (0.0, 45.0, 90.0, 135.0)]
    return BellScenario.from_directions(singlet_state(), *dirs)


class TestBasicEntropies:
    def test_shannon_point_mass(self):
        assert shannon_entropy(ClassicalDistribution([1.0, 0.0, 0.0])) == 0.0

    def test_shannon_uniform(self):
        p = ClassicalDistribution(np.full(4, 0.25))
        assert shannon_entropy(p) == pytest.approx(math.log(4))
        assert shannon_entropy(p, base="2") == pytest.approx(2.0)

    def test_shannon_hand_value(self):
        p = ClassicalDistribution([0.5, 0.25, 0.25])
        assert shannon_entropy(p, base="2") == pytest.approx(1.5)

    def test_von_neumann_pure(self):
        assert von_neumann_entropy(random_pure(4, seed=1).density()) == pytest.approx(0.0, abs=1e-12)

    def test_von_neumann_maximally_mixed(self):
        assert von_neumann_entropy(DensityOperator(np.eye(2) / 2)) == pytest.approx(math.log(2), abs=1e-12)

    def test_singlet_reduced(self, singlet_density):
        r1 = partial_trace(singlet_density, (2, 2), keep=1)
        assert von_neumann_entropy(r1) == pytest.approx(math.log(2), abs=1e-12)

    def test_linear_entropies(self):
        assert linear_entropy_quantum(random_pure(3, seed=2).density()) == pytest.approx(0.0, abs=1e-12)
        assert linear_entropy_quantum(DensityOperator(np.eye(4) / 4)) == pytest.approx(0.75)
        assert linear_entropy_classical(ClassicalDistribution([1.0, 0.0])) == 0.0
        r1 = partial_trace(singlet_state(), (2, 2), keep=1)
        assert linear_entropy_quantum(r1) == pytest.approx(0.5)

    def test_all_kinds_vanish_on_pure_inputs(self):
        point = ClassicalDistribution([0.0, 1.0, 0.0, 0.0], dims=(2, 2))
        pure = random_pure(4, seed=3).density()
        assert shannon_entropy(point) == pytest.approx(0.0, abs=1e-12)
        assert linear_entropy_classical(point) == pytest.approx(0.0, abs=1e-12)
        assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
        assert linear_entropy_quantum(pure) == pytest.approx(0.0, abs=1e-12)

    def test_unitary_invariance(self):
        rho = random_density(4, seed=4)
        u = random_unitary(4, seed=5)
        rotated = DensityOperator(u @ rho.matrix @ dagger(u))
        assert von_neumann_entropy(rotated) == pytest.approx(von_neumann_entropy(rho), abs=1e-10)
        assert linear_entropy_quantum(rotated) == pytest.approx(linear_entropy_quantum(rho), abs=1e-10)


def _old_entropy_of_probs(p: np.ndarray, base: str) -> float:
    """The numpy expression the Python-float loop replaced: a masked vector log and numpy's sum."""
    positive = p[p >= linalg.PROB_TOL]
    return float(-(positive * np.log(positive)).sum() * (1.0 if base == "e" else 1.0 / math.log(2.0)))


class TestEntropyOfProbs:
    """-sum p log p is one loop over Python floats in index order, at every size."""

    def test_matches_the_numpy_expression(self):
        rng = np.random.default_rng(31)
        for size in range(1, 65):
            for trial in range(4):
                w = rng.exponential(size=size)
                if size > 1 and trial % 2:  # roundoff-sized entries on both sides of the mask, and zeros
                    w[rng.integers(size, size=max(1, size // 4))] = rng.choice([0.0, 1e-13, -1e-17, 2e-12])
                p = w / w.sum()
                for base in ("e", "2"):
                    s = _entropy_of_probs(p, base)
                    assert type(s) is float
                    assert abs(s - _old_entropy_of_probs(p, base)) <= 1e-15 * max(1.0, s), (size, trial, base)

    def test_pure_states_are_exactly_zero_through_the_mask(self):
        # Each reduction's closed-form spectrum may put lambda- at 0, at +-5.6e-17, or lambda+ at 1 - 2.2e-16;
        # the mask drops lambda- (a log of a negative entry would be NaN), and lambda+ = 1 gives exactly 0.
        for seed in range(30):
            rho = random_pure(2, seed=seed).density()
            lo, hi = rho.spectrum()
            s = von_neumann_entropy(rho)
            assert lo < linalg.PROB_TOL
            assert s == -(hi * math.log(hi)) and abs(s) <= 1e-15
            if hi == 1.0:
                assert s == 0.0
        assert von_neumann_entropy(DensityOperator(np.diag([1.0, 0.0]))) == 0.0

    def test_bad_base_raises_on_every_input(self):
        pure = DensityOperator(np.diag([1.0, 0.0]))
        for call in (lambda: von_neumann_entropy(pure, base="10"),
                     lambda: _entropy_of_probs(np.array([0.0, 1.0]), "10"),
                     lambda: _entropy_of_probs(np.zeros(3), "10")):  # an empty sum still checks its base
            with pytest.raises(ValueError, match="log base must be 'e' or '2'"):
                call()


class TestConcavity:
    def test_equal_inputs_zero_slack(self):
        rho = random_density(2, seed=6)
        assert check_concavity(rho, rho, LAMBDA_GRID, "von_neumann") == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states_midpoint(self):
        a = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
        b = DensityOperator(np.diag([0.0, 1.0]).astype(complex))
        assert check_concavity(a, b, [0.5], "von_neumann") == pytest.approx(math.log(2), abs=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_random_sweep(self, kind):
        for seed in range(50):
            if kind in ("shannon", "linear_classical"):
                a = random_classical(4, seed)
                b = random_classical(4, seed + 1000)
            else:
                a = random_density(4, seed=seed)
                b = random_density(4, seed=seed + 1000)
            assert check_concavity(a, b, LAMBDA_GRID, kind) >= -1e-10


class TestSubadditivity:
    def test_product_state_additivity(self):
        ra = random_density(2, seed=7)
        rb = random_density(2, seed=8)
        joint = DensityOperator(tensor_product(ra.matrix, rb.matrix))
        assert entropy_report(joint, "von_neumann", dims=(2, 2)).subadditivity == pytest.approx(0.0, abs=1e-10)

    def test_singlet(self, singlet_density):
        slack = entropy_report(singlet_density, "von_neumann", dims=(2, 2)).subadditivity
        assert slack == pytest.approx(2 * math.log(2), abs=1e-10)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_random_sweep(self, kind):
        for seed in range(50):
            if kind in ("shannon", "linear_classical"):
                obj = random_classical(6, seed, dims=(2, 3))
                assert entropy_report(obj, kind).subadditivity >= -1e-10
            else:
                obj = random_density(6, seed=seed)
                assert entropy_report(obj, kind, dims=(2, 3)).subadditivity >= -1e-10


class TestMonotonicityContrast:
    def test_classical_product_of_uniforms(self):
        p = ClassicalDistribution(np.full(4, 0.25), dims=(2, 2))
        # independent: joint entropy = sum of marginals, slack = min marginal entropy
        assert entropy_report(p, "shannon").monotonicity == pytest.approx(math.log(2), abs=1e-12)

    def test_classical_sweep(self):
        for seed in range(200):
            p = random_classical(6, seed, dims=(2, 3))
            assert entropy_report(p, "shannon").monotonicity >= -1e-10
            assert entropy_report(p, "linear_classical").monotonicity >= -1e-10

    def test_singlet_violates_quantum_analog(self, singlet_density):
        gap = entropy_report(singlet_density, "von_neumann", dims=(2, 2)).monotonicity
        assert gap == pytest.approx(-math.log(2), abs=1e-10)

    def test_singlet_saturates_triangle(self, singlet_density):
        assert entropy_report(singlet_density, "von_neumann", dims=(2, 2)).triangle == pytest.approx(0.0, abs=1e-10)

    def test_triangle_sweep(self):
        for seed in range(300):
            rho = random_density(4, seed=seed)
            assert entropy_report(rho, "von_neumann", dims=(2, 2)).triangle >= -1e-10


class TestLinearEntropyCriterion:
    def test_singlet_fails(self, singlet_density):
        v = linear_entropy_criterion(singlet_density, (2, 2))
        assert v.lhs == pytest.approx(0.0, abs=1e-10)
        assert v.rhs == pytest.approx(2.0, abs=1e-10)
        assert not v.holds
        assert not v.beta_bound_implied

    def test_pure_product_boundary(self):
        v = linear_entropy_criterion(product00_state(), (2, 2))
        assert v.lhs == pytest.approx(0.0, abs=1e-12)
        assert v.rhs == pytest.approx(0.0, abs=1e-12)
        assert v.holds

    def test_maximally_mixed(self):
        v = linear_entropy_criterion(DensityOperator(np.eye(4) / 4), (2, 2))
        assert v.lhs == pytest.approx(3.0, abs=1e-12)
        assert v.rhs == pytest.approx(2.0, abs=1e-12)
        assert v.holds and v.beta_bound_implied

    def test_purity_margin_matches_entropy_margin(self):
        for seed in range(50):
            rho = random_density(4, seed=seed)
            v = linear_entropy_criterion(rho, (2, 2))
            assert v.lhs - v.rhs == pytest.approx(v.purity_margin, abs=1e-10)
        for seed in range(20):
            rho = random_density(8, seed=seed)
            v = linear_entropy_criterion(rho, (2, 4))
            assert v.lhs - v.rhs == pytest.approx(v.purity_margin, abs=1e-10)

    def test_uncorrelated_broadcast_state(self):
        # rho1 (x) I/N makes the gap operator vanish, pinning the purity excess
        # at exactly -1 (so the beta-bound margin is +1, and the scenario-level
        # bound is tight: both sides equal -1 when beta = 0).
        rho1 = random_pure(2, seed=9).density()
        joint = DensityOperator(tensor_product(rho1.matrix, np.eye(4) / 4))
        v = linear_entropy_criterion(joint, (2, 4))
        assert v.beta_bound_margin == pytest.approx(1.0, abs=1e-10)
        q = correlation_gap_operator(joint, (2, 4))
        assert np.linalg.norm(q) < 1e-10
        s = BellScenario(
            a=random_dichotomic(2, True, 30), b=random_dichotomic(4, True, 31),
            c=random_dichotomic(2, True, 32), d=random_dichotomic(4, True, 33),
            state=joint,
        )
        assert bell_purity_bound(s) == pytest.approx(0.0, abs=1e-10)


class TestPurityBound:
    def test_singlet_canonical_slack(self):
        assert bell_purity_bound(canonical_singlet_scenario()) == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed_tight(self):
        s = canonical_singlet_scenario()
        mixed = BellScenario(a=s.a, b=s.b, c=s.c, d=s.d, state=DensityOperator(np.eye(4) / 4))
        assert bell_purity_bound(mixed) == pytest.approx(0.0, abs=1e-10)

    def test_random_traceless_sweep(self):
        for seed in range(300):
            s = BellScenario(
                a=random_dichotomic(2, True, seed), b=random_dichotomic(2, True, seed + 1),
                c=random_dichotomic(2, True, seed + 2), d=random_dichotomic(2, True, seed + 3),
                state=random_density(4, seed=seed + 4),
            )
            assert bell_purity_bound(s) >= -1e-9

    def test_identity_observables_break_the_bound(self):
        # The bound presumes traceless observables; a = b = c = d = I on the
        # maximally mixed state undershoots it by exactly 1.
        ident = np.eye(2, dtype=complex)
        s = BellScenario(a=ident, b=ident, c=ident, d=ident,
                         state=DensityOperator(np.eye(4) / 4))
        assert bell_purity_bound(s) == pytest.approx(-1.0, abs=1e-10)


class TestHorodecki:
    def test_product_of_mixed_states_holds(self):
        ra = random_density(2, seed=10)
        rb = random_density(2, seed=11)
        joint = DensityOperator(tensor_product(ra.matrix, rb.matrix))
        assert horodecki_criterion(joint, (2, 2)).condition_holds

    def test_singlet_fails(self, singlet_density):
        rep = horodecki_criterion(singlet_density, (2, 2))
        assert not rep.condition_holds
        assert rep.s12 == pytest.approx(0.0, abs=1e-10)
        assert rep.s1 == pytest.approx(math.log(2), abs=1e-10)

    def test_werner_point_three_cross_checked(self):
        state = werner_state(0.3)
        rep = horodecki_criterion(state, (2, 2))
        assert rep.condition_holds
        assert maximize_violation(state).beta_max <= 2.0 + 1e-6


class TestSufficiencyByRandomDraws:
    def test_passing_states_resist_random_observables(self):
        # Complementary to the optimizer route: states that satisfy the
        # linear-entropy condition stay classical under random traceless
        # observable quadruples too.
        found = 0
        attempts = 0
        from bellkit.scenario import beta

        while found < 40 and attempts < 2000:
            state = random_density(4, seed=600_000 + attempts)
            attempts += 1
            if not linear_entropy_criterion(state, (2, 2)).holds:
                continue
            found += 1
            for j in range(25):
                s = BellScenario(
                    a=random_dichotomic(2, True, 700_000 + 100 * attempts + j),
                    b=random_dichotomic(2, True, 710_000 + 100 * attempts + j),
                    c=random_dichotomic(2, True, 720_000 + 100 * attempts + j),
                    d=random_dichotomic(2, True, 730_000 + 100 * attempts + j),
                    state=state,
                )
                assert abs(beta(s)) <= 2.0 + 1e-6
        assert found == 40


class TestReports:
    def test_classical_bipartite_report(self):
        p = ClassicalDistribution(np.full(4, 0.25), dims=(2, 2))
        rep = entropy_report(p, "shannon", base="2")
        assert (rep.s12, rep.s1, rep.s2) == pytest.approx((2.0, 1.0, 1.0))
        assert rep.kind == "shannon" and rep.log_base == "2"

    def test_type_errors(self):
        with pytest.raises(TypeError):
            entropy_report(ClassicalDistribution([1.0]), "von_neumann", dims=(1, 1))
        with pytest.raises(TypeError):
            entropy_report(DensityOperator(np.eye(2) / 2), "shannon")
        with pytest.raises(ValueError):
            entropy_report(DensityOperator(np.eye(2) / 2), "von_neumann")

    def test_report_slacks_equal_the_checker_expressions_bit_for_bit(self):
        # Each report slack against its expression in entropies evaluated
        # here one by one.
        for seed in range(200):
            base = "e" if seed % 2 else "2"
            rho = random_density(4, seed=seed)
            vn = [von_neumann_entropy(r, base) for r in
                  (rho, partial_trace(rho, (2, 2), keep=1), partial_trace(rho, (2, 2), keep=2))]
            p = random_classical(6, seed, dims=(2, 3))
            sh = [shannon_entropy(q, base) for q in (p, p.marginal(1), p.marginal(2))]
            lq = [linear_entropy_quantum(r) for r in
                  (rho, partial_trace(rho, (2, 2), keep=1), partial_trace(rho, (2, 2), keep=2))]
            cases = [
                (entropy_report(rho, "von_neumann", dims=(2, 2), base=base), vn),
                (entropy_report(p, "shannon", base=base), sh),
                (entropy_report(rho, "linear_quantum", dims=(2, 2)), lq),
            ]
            for rep, (s12, s1, s2) in cases:
                assert rep.subadditivity == s1 + s2 - s12
                assert rep.monotonicity == s12 - max(s1, s2)
                assert rep.triangle == s12 - abs(s1 - s2)
            s12, s1, s2 = vn
            assert horodecki_criterion(rho, (2, 2), base=base).condition_holds == (s12 >= max(s1, s2) - 1e-10)


#: States the public constructor accepts whose reductions it rejects on their own.
#: I/4 with 4.5e-10 at (0, 2) and (1, 3): Hermitian residual 0.9e-9, which the
#: side-1 trace scales to 1.27e-9.
HERMITIAN_RESIDUAL = np.eye(4, dtype=complex) / 4 + 4.5e-10 * np.eye(4, k=2)
#: Negativity -1.5e-9 on two eigenvalues, which the side-1 trace adds to -3e-9.
NEGATIVITY = np.diag([-1.5e-9, -1.5e-9, 0.5 + 1.5e-9, 0.5 + 1.5e-9]).astype(complex)


class TestDerivedStatesKeepTheirParentsCheck:
    @pytest.mark.parametrize("matrix, rejection", [
        (HERMITIAN_RESIDUAL, "not Hermitian within tolerance"),
        (NEGATIVITY, "eigenvalues below -tol"),
    ], ids=["hermitian-residual", "negativity"])
    def test_accepted_state_is_not_rejected_through_its_reductions(self, matrix, rejection):
        rho = DensityOperator(matrix)
        r1 = partial_trace(rho, (2, 2), keep=1)
        for kind in ("von_neumann", "linear_quantum"):
            entropy_report(rho, kind, dims=(2, 2))
        linear_entropy_criterion(rho, (2, 2))
        horodecki_criterion(rho, (2, 2))
        # The public constructor still judges the same reduction on its own.
        with pytest.raises(ValueError, match=rejection):
            DensityOperator(r1.matrix)

    def test_one_factorization_and_no_hermiticity_recheck(self, monkeypatch):
        matrix = werner_state(0.5).matrix
        calls = {"cholesky": 0, "is_hermitian": 0}
        cholesky, is_hermitian = np.linalg.cholesky, linalg.is_hermitian

        def counting_cholesky(m):
            calls["cholesky"] += 1
            return cholesky(m)

        def counting_is_hermitian(m):
            calls["is_hermitian"] += 1
            return is_hermitian(m)

        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        monkeypatch.setattr(linalg, "is_hermitian", counting_is_hermitian)
        rho = DensityOperator(matrix)
        entropy_report(rho, "von_neumann", dims=(2, 2))
        linear_entropy_criterion(rho, (2, 2))
        assert calls == {"cholesky": 1, "is_hermitian": 0}
