import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import logic
from bellkit.errors import CommutationError
from bellkit.feasibility import fine_criterion, marginals_from_scenario
from bellkit.linalg import (
    COMMUTE_TOL,
    DensityOperator,
    PureState,
    dagger,
    frobenius_norm,
    random_unitary,
    tensor_product,
)
from bellkit.logic import (
    Proposition,
    TruthValue,
    distance,
    join,
    meet,
    negate,
    quad_check,
    state_prob,
    triangle_check,
    truth_value,
)
from bellkit.scenario import CHSH_LABELS, chsh_value, correlations, positive_projector
from bellkit.sweeps import random_traceless_scenario

P0 = np.array([[1, 0], [0, 0]], dtype=complex)  # |0><0|
P1 = np.array([[0, 0], [0, 1]], dtype=complex)  # |1><1|
PPLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)  # |+><+|


def spin_up(theta_deg: float) -> np.ndarray:
    """Projector onto spin-up along a direction in the x-z plane."""
    t = math.radians(theta_deg)
    n = np.array([math.sin(t), 0.0, math.cos(t)])
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return (np.eye(2) + n[0] * sx + n[1] * sy + n[2] * sz) / 2


def near_commuting_pair() -> tuple[Proposition, Proposition]:
    """A = diag(1, 0, 1, 0) and B = |v><v| (+) diag(1, 0), v = (cos t, sin t), t = 3e-9.

    ||[A, B]|| is about 4e-9: the pair commutes within COMMUTE_TOL, while the
    product AB misses the DEFAULT_TOL projector test.
    """
    t = 3e-9
    v = np.array([math.cos(t), math.sin(t)])
    b = np.zeros((4, 4), dtype=complex)
    b[:2, :2] = np.outer(v, v)
    b[2, 2] = 1.0
    return Proposition("A", np.diag([1.0, 0.0, 1.0, 0.0])), Proposition("B", b)


def side1(p):
    return Proposition("s1", tensor_product(p, np.eye(2)))


def side2(p):
    return Proposition("s2", tensor_product(np.eye(2), p))


class TestTruthValue:
    def test_eigenvector(self):
        assert truth_value(Proposition("P0", P0), PureState([1, 0])) is TruthValue.TRUE

    def test_orthogonal(self):
        assert truth_value(Proposition("P0", P0), PureState([0, 1])) is TruthValue.FALSE

    def test_superposition_undefined(self):
        psi = PureState(np.array([1, 1]) / np.sqrt(2))
        assert truth_value(Proposition("P0", P0), psi) is TruthValue.UNDEFINED

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            truth_value(Proposition("P0", P0), PureState([1, 0, 0, 0]))


class TestLatticeOps:
    def test_idempotent_meet_and_complement_join(self):
        a = Proposition("A", P0)
        assert np.allclose(meet(a, a).projector, P0)
        assert np.allclose(join(a, negate(a)).projector, np.eye(2))

    def test_product_projectors(self):
        a = side1(P0)
        b = side2(P0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1  # |00><00|
        assert np.allclose(meet(a, b).projector, expected)

    def test_non_commuting_rejected(self):
        with pytest.raises(CommutationError) as exc:
            meet(Proposition("A", P0), Proposition("B", PPLUS))
        assert exc.value.commutator_norm > 0.1

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_distributivity_on_commuting_triples(self, seed):
        rng = np.random.default_rng(seed)
        u = random_unitary(4, seed=seed)
        props = []
        for name in "ABC":
            diag = np.diag(rng.integers(0, 2, size=4).astype(complex))
            props.append(Proposition(name, u @ diag @ u.conj().T))
        a, b, c = props
        lhs = meet(a, join(b, c)).projector
        rhs = join(meet(a, b), meet(a, c)).projector
        assert np.linalg.norm(lhs - rhs) < 1e-10


class TestStateProb:
    def test_axiom_bounds(self):
        rho = DensityOperator(np.eye(2) / 2)
        assert state_prob(Proposition("0", np.zeros((2, 2))), rho) == 0.0
        assert state_prob(Proposition("I", np.eye(2)), rho) == 1.0
        assert state_prob(Proposition("P0", P0), rho) == pytest.approx(0.5)

    def test_additivity_on_orthogonal(self):
        rho = DensityOperator(np.diag([0.7, 0.2, 0.1, 0.0]).astype(complex))
        a = Proposition("A", np.diag([1, 0, 0, 0]).astype(complex))
        b = Proposition("B", np.diag([0, 0, 1, 0]).astype(complex))
        together = state_prob(join(a, b), rho)
        assert state_prob(a, rho) + state_prob(b, rho) == pytest.approx(together, abs=1e-10)


class TestDistance:
    def test_self_distance_zero(self):
        a = Proposition("A", P0)
        rho = DensityOperator(np.diag([0.3, 0.7]).astype(complex))
        assert distance(a, a, rho).d == pytest.approx(0.0, abs=1e-12)

    def test_negation_distance_one(self):
        a = Proposition("A", P0)
        rho = DensityOperator(np.diag([0.3, 0.7]).astype(complex))
        assert distance(a, negate(a), rho).d == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 30.0, 45.0, 90.0, 120.0, 180.0])
    def test_singlet_angle_law(self, theta, singlet_density):
        a = side1(spin_up(0.0))
        b = side2(spin_up(theta))
        rep = distance(a, b, singlet_density)
        assert rep.d == pytest.approx((1 + math.cos(math.radians(theta))) / 2, abs=1e-10)
        assert rep.d == pytest.approx(rep.p_join - rep.p_meet, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_dichotomic_bridge(self, seed):
        # For commuting +-1 observables x = 2A - 1, y = 2B - 1:
        # d(A, B) = (1 - <xy>) / 2.
        rng = np.random.default_rng(seed)
        t1, t2 = rng.uniform(0, 360, size=2)
        a = side1(spin_up(t1))
        b = side2(spin_up(t2))
        w = rng.exponential(size=4)
        rho = DensityOperator(np.diag(w / w.sum()).astype(complex))
        x = 2 * a.projector - np.eye(4)
        y = 2 * b.projector - np.eye(4)
        exy = rho.expectation(x @ y)
        assert distance(a, b, rho).d == pytest.approx((1 - exy) / 2, abs=1e-10)

    def test_bounds_on_random_commuting_pairs(self, singlet_density):
        rng = np.random.default_rng(31)
        for trial in range(200):
            a = side1(spin_up(rng.uniform(0, 360)))
            b = side2(spin_up(rng.uniform(0, 360)))  # cross-side pairs always commute
            if trial % 2:
                rho = singlet_density
            else:
                w = rng.exponential(size=4)
                u = random_unitary(4, seed=trial)
                rho = DensityOperator(u @ np.diag(w / w.sum()).astype(complex) @ u.conj().T)
            rep = distance(a, b, rho)
            assert -1e-12 <= rep.d <= 1 + 1e-12
            assert distance(a, a, rho).d <= 1e-12
            assert distance(a, negate(a), rho).d >= 1 - 1e-12

    def test_zero_distance_distinct_probe(self):
        # Distinct projectors can sit at distance zero when the state never
        # separates them: the distance is a pseudometric, not a metric.
        a = Proposition("A", np.diag([1, 0, 0]).astype(complex))
        b = Proposition("B", np.diag([1, 0, 1]).astype(complex))
        rho = DensityOperator(np.diag([0.5, 0.5, 0.0]).astype(complex))
        assert distance(a, b, rho).d == 0.0
        assert frobenius_norm(a.projector - b.projector) == 1.0
        full = DensityOperator(np.diag([0.4, 0.3, 0.3]).astype(complex))
        assert distance(a, b, full).d == pytest.approx(0.3, abs=1e-15)


class TestTriangle:
    def test_degenerate_triple(self):
        a = Proposition("A", P0)
        rho = DensityOperator(np.diag([0.4, 0.6]).astype(complex))
        rep = triangle_check(a, a, a, rho)
        assert rep.holds and rep.slack == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_sweep_always_holds(self):
        # Classical (Boolean) case: random diagonal projectors and states.
        rng = np.random.default_rng(123)
        for _ in range(1000):
            dim = int(rng.integers(2, 6))
            props = [
                Proposition(n, np.diag(rng.integers(0, 2, size=dim).astype(complex)))
                for n in "ABC"
            ]
            w = rng.exponential(size=dim)
            rho = DensityOperator(np.diag(w / w.sum()).astype(complex))
            assert triangle_check(*props, rho).slack >= -1e-10

    def test_requires_commutation(self):
        with pytest.raises(CommutationError):
            triangle_check(
                Proposition("A", P0), Proposition("B", PPLUS), Proposition("C", P1),
                DensityOperator(np.eye(2) / 2),
            )


class TestOneCommutatorPerPair:
    """Each checker decides a pair's commutation once, inside its distance,
    and a non-commuting pair's error still names the checker."""

    @staticmethod
    def counting(monkeypatch) -> list:
        calls = []

        def commutator(x, y):
            calls.append(1)
            return x @ y - y @ x

        monkeypatch.setattr(logic, "commutator", commutator)
        return calls

    def test_commutators_per_call(self, monkeypatch):
        calls = self.counting(monkeypatch)
        a = Proposition("A", P0)
        rho = DensityOperator(np.diag([0.4, 0.6]).astype(complex))
        triangle_check(a, a, a, rho)
        assert len(calls) == 3
        calls.clear()
        quad_check(a, a, a, a, rho)
        assert len(calls) == 4

    def test_non_commuting_texts(self):
        rho = DensityOperator(np.eye(2) / 2)
        a, b, c = Proposition("A", P0), Proposition("B", P1), Proposition("C", PPLUS)
        with pytest.raises(CommutationError) as err:
            triangle_check(a, b, c, rho)
        assert str(err.value) == "triangle_check requires commuting projectors 'A', 'C' (||[A,B]|| = 7.071e-01)"
        with pytest.raises(CommutationError) as err:
            quad_check(a, b, c, Proposition("D", P1), rho)
        assert str(err.value) == "quad_check requires commuting projectors 'B', 'C' (||[A,B]|| = 7.071e-01)"
        with pytest.raises(CommutationError) as err:
            distance(a, c, rho)
        assert str(err.value) == "meet requires commuting projectors 'A', 'C' (||[A,B]|| = 7.071e-01)"


class TestQuad:
    def test_all_equal_slack_zero(self):
        a = Proposition("A", P0)
        rho = DensityOperator(np.diag([0.4, 0.6]).astype(complex))
        rep = quad_check(a, a, a, a, rho)
        assert rep.holds
        assert rep.slack == pytest.approx(0.0, abs=1e-12)

    def test_singlet_canonical_violation(self, singlet_density):
        a = side1(spin_up(0))
        c = side1(spin_up(90))
        b = side2(spin_up(45))
        d = side2(spin_up(135))
        rep = quad_check(a, b, c, d, singlet_density)
        assert not rep.holds
        assert rep.slack == pytest.approx(-(2 * math.sqrt(2) - 2) / 2, abs=1e-10)
        assert rep.worst_permutation == "abcd"

    def test_classical_configurations_hold(self):
        # Any diagonal quadruple is a single Boolean context. Distances are
        # linear in the state weights, so checking every basis point mass
        # proves the inequality for all diagonal states.
        rng = np.random.default_rng(7)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            props = [
                Proposition(n, np.diag(rng.integers(0, 2, size=dim).astype(complex)))
                for n in "ABCD"
            ]
            for k in range(dim):
                w = np.zeros(dim)
                w[k] = 1.0
                rho = DensityOperator(np.diag(w).astype(complex))
                assert quad_check(*props, rho).slack >= -1e-10
            w = rng.exponential(size=dim)
            rho = DensityOperator(np.diag(w / w.sum()).astype(complex))
            assert quad_check(*props, rho).slack >= -1e-10

    def test_boolean_atom_cross_check(self):
        # Fully commuting quadruple: enumerate the <=16 atoms of the generated
        # Boolean algebra and recompute every distance from atom weights.
        rng = np.random.default_rng(99)
        for trial in range(20):
            u = random_unitary(4, seed=1000 + trial)
            diags = [rng.integers(0, 2, size=4) for _ in range(4)]
            props = [
                Proposition(n, u @ np.diag(d).astype(complex) @ u.conj().T)
                for n, d in zip("ABCD", diags)
            ]
            w = rng.exponential(size=4)
            w /= w.sum()
            rho = DensityOperator(u @ np.diag(w).astype(complex) @ u.conj().T)
            rep = quad_check(*props, rho)
            assert rep.holds

            # independent oracle: distances from the Boolean atom decomposition
            def atom_distance(i, j):
                total = 0.0
                for k in range(4):  # basis atoms
                    if diags[i][k] != diags[j][k]:
                        total += w[k]
                return total

            d_ab = atom_distance(0, 1)
            d_bc = atom_distance(1, 2)
            d_cd = atom_distance(2, 3)
            d_ad = atom_distance(0, 3)
            assert distance(props[0], props[1], rho).d == pytest.approx(d_ab, abs=1e-10)
            slack_direct = d_ab + d_bc + d_cd - d_ad
            assert slack_direct >= -1e-10

    def test_commutation_only_required_on_adjacent_pairs(self, singlet_density):
        # a, c on side 1 do not commute with each other; the checker must accept.
        a = side1(spin_up(0))
        c = side1(spin_up(90))
        b = side2(spin_up(45))
        d = side2(spin_up(135))
        quad_check(a, b, c, d, singlet_density)  # no exception

    def test_each_relabelling_reads_fines_value_of_the_same_relabelling(self):
        # The quad check, Fine's criterion and beta read one CHSH form. For +1 projectors of +-1 observables
        # d(X, Y) = (1 - <xy>)/2, so relabelling k's quad slack is (2 - |CHSH_k|)/2 with Fine's k-th value.
        worst = 0.0
        for seed in range(300):
            s = random_traceless_scenario(2, 2, seed)
            i2 = np.eye(2)
            props = [Proposition(x, tensor_product(positive_projector(obs), i2) if x in "ac"
                                 else tensor_product(i2, positive_projector(obs)))
                     for x, obs in zip("abcd", (s.a, s.b, s.c, s.d))]
            per = quad_check(*props, s.state).per_permutation
            values = fine_criterion(marginals_from_scenario(s)).chsh_values
            assert list(per) == list(CHSH_LABELS)
            for label, v in zip(CHSH_LABELS, values):
                worst = max(worst, abs(per[label] - (2.0 - abs(v)) / 2.0))
            assert chsh_value(correlations(s)) == pytest.approx(values[0], abs=1e-12)
        assert worst <= 1e-12

    def test_rejects_non_commuting_adjacent_pair(self):
        rho = DensityOperator(np.eye(2) / 2)
        with pytest.raises(CommutationError):
            quad_check(
                Proposition("A", P0), Proposition("B", PPLUS),
                Proposition("C", P0), Proposition("D", P1), rho,
            )


def test_near_commuting_pair_is_accepted_once_commuting(singlet_density):
    # The pair passes the commutation check, so no later check on its meet or
    # join may reject it; each of these once failed with "proposition '(A&B)':
    # matrix is not a projector within tolerance".
    a, b = near_commuting_pair()
    assert distance(a, b, singlet_density).d == 0.0
    assert triangle_check(a, b, a, singlet_density).holds
    assert quad_check(a, b, a, b, singlet_density).holds


def test_lattice_operations_on_a_near_commuting_pair(singlet_density):
    # The pair passes the commutation check once; meet, join and negation build
    # on it without a projector re-check, and agree with distance bit for bit.
    a, b = near_commuting_pair()
    m, j = meet(a, b), join(a, b)
    assert (m.label, j.label, negate(m).label) == ("(A&B)", "(A|B)", "~(A&B)")
    rep = distance(a, b, singlet_density)
    assert state_prob(m, singlet_density) == rep.p_meet
    assert state_prob(j, singlet_density) == rep.p_join
    assert not m.projector.flags.writeable
    # The public constructor still judges the same matrix on its own.
    with pytest.raises(ValueError, match="not a projector within tolerance"):
        Proposition("m", m.projector)


def test_commuting_pair_check_implies_the_projector_test():
    # For exact projectors A and B, the Hermitian residual of AB is ||[A, B]||
    # and its idempotency residual is smaller: a pair accepted at COMMUTE_TOL
    # builds a meet, a join and their negations within that same bound.
    a = Proposition("A", np.diag([1.0, 0.0, 1.0, 0.0]))
    norms = []
    for t in np.linspace(1e-9, 7.5e-9, 14):
        v = np.array([np.cos(t), np.sin(t)])
        pb = np.zeros((4, 4), dtype=complex)
        pb[:2, :2] = np.outer(v, v)
        pb[2, 2] = 1.0
        b = Proposition("B", pb)
        norm = frobenius_norm(a.projector @ b.projector - b.projector @ a.projector)
        if norm > COMMUTE_TOL:
            continue
        norms.append(norm)
        for p in (meet(a, b), join(a, b), negate(meet(a, b)), negate(join(a, b))):
            x = p.projector
            assert frobenius_norm(x - dagger(x)) <= norm + 1e-15
            assert frobenius_norm(x @ x - x) <= norm + 1e-15
    assert max(norms) > 0.9 * COMMUTE_TOL


def test_dimension_errors_name_the_operation_called():
    a2, e4 = Proposition("A", P0), Proposition("E", np.diag([1.0, 0.0, 1.0, 0.0]))
    rho2, rho4 = DensityOperator(np.eye(2) / 2), DensityOperator(np.eye(4) / 4)
    cases = [
        (lambda: triangle_check(a2, e4, a2, rho2), "triangle_check: dimension mismatch (2 vs 4)"),
        (lambda: triangle_check(a2, a2, a2, rho4), "triangle_check: dimension mismatch (2 vs 4)"),
        (lambda: quad_check(a2, a2, a2, e4, rho2), "quad_check: dimension mismatch (2 vs 4)"),
        (lambda: quad_check(a2, a2, a2, a2, rho4), "quad_check: dimension mismatch (2 vs 4)"),
        # distance's own texts: the state check names distance, the pair check meet.
        (lambda: distance(a2, e4, rho2), "meet: dimension mismatch (2 vs 4)"),
        (lambda: distance(a2, a2, rho4), "distance: dimension mismatch (2 vs 4)"),
        (lambda: meet(a2, e4), "meet: dimension mismatch (2 vs 4)"),
        (lambda: join(a2, e4), "join: dimension mismatch (2 vs 4)"),
    ]
    for call, text in cases:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == text
