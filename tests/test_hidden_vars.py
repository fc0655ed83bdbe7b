import numpy as np
import pytest
from scipy.linalg import expm

from bellkit import hidden_vars, linalg
from bellkit.errors import CommutationError
from bellkit.hidden_vars import (
    HVModel,
    build_hv_model,
    hv_expectation,
    joint_eigenbasis,
    verify_model,
)
from bellkit.linalg import (
    DensityOperator,
    PAULI_X,
    PAULI_Z,
    PureState,
    dagger,
    random_density,
    random_unitary,
    tensor_product,
)

ZI = tensor_product(PAULI_Z, np.eye(2))
IZ = tensor_product(np.eye(2), PAULI_Z)


def random_commuting_family(dim, n_ops, seed, value_alphabet=(-1.0, 0.5, 2.0)):
    """Commuting Hermitians sharing a random eigenbasis, with degeneracies."""
    rng = np.random.default_rng(seed)
    u = random_unitary(dim, seed=seed)
    ops = {}
    for k in range(n_ops):
        diag = rng.choice(value_alphabet, size=dim)
        ops[f"O{k}"] = u @ np.diag(diag).astype(complex) @ dagger(u)
    return ops


class TestJointEigenbasis:
    def test_already_diagonal(self):
        eb = joint_eigenbasis([ZI, IZ])
        # values are the (+-1, +-1) sign patterns, ordered lexicographically
        assert np.allclose(eb.values.T, [[-1, -1], [-1, 1], [1, -1], [1, 1]])
        for m in (ZI, IZ):
            d = dagger(eb.basis) @ m @ eb.basis
            assert np.linalg.norm(d - np.diag(np.diag(d))) < 1e-9

    def test_operator_and_its_square(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = (g + dagger(g)) / 2
        eb = joint_eigenbasis([a, a @ a])
        for m in (a, a @ a):
            d = dagger(eb.basis) @ m @ eb.basis
            assert np.linalg.norm(d - np.diag(np.diag(d))) < 1e-9
        assert np.linalg.norm(dagger(eb.basis) @ eb.basis - np.eye(4)) < 1e-10

    def test_non_commuting_rejected(self):
        with pytest.raises(CommutationError):
            joint_eigenbasis([PAULI_Z, PAULI_X])

    def test_completeness(self):
        ops = random_commuting_family(8, 3, seed=17)
        eb = joint_eigenbasis(list(ops.values()))
        resolution = sum(np.outer(eb.basis[:, i], np.conj(eb.basis[:, i])) for i in range(8))
        assert np.linalg.norm(resolution - np.eye(8)) < 1e-10


    def test_each_operator_checked_hermitian_once(self, monkeypatch):
        # Three degenerate +-1 operators at dim 8 split into clusters of four, then
        # two, then one; the restricted blocks B^dagger A B are solved unchecked.
        checked = []
        is_hermitian = linalg.is_hermitian

        def counting(m, tol=linalg.DEFAULT_TOL):
            checked.append(m.shape)
            return is_hermitian(m, tol)

        monkeypatch.setattr(linalg, "is_hermitian", counting)
        monkeypatch.setattr(hidden_vars, "is_hermitian", counting)
        u = random_unitary(8, seed=21)
        signs = np.array([[(-1.0) ** (i >> k & 1) for i in range(8)] for k in (2, 1, 0)])
        family = {f"o{k}": (u * p) @ dagger(u) for k, p in enumerate(signs)}
        state = random_density(8, seed=22)
        model = build_hv_model(state, family)
        assert checked == [(8, 8)] * 3
        assert len(set(model.atoms)) == 8
        assert verify_model(model, state, family).max_error < 1e-9


class TestBuildModel:
    def test_pure_eigenstate(self):
        model = build_hv_model(PureState([1, 0]).density(), {"z": PAULI_Z})
        got = dict(zip(map(tuple, np.round([model.value_tables["z"]], 6).T.tolist()), model.weights))
        assert got[(-1.0,)] == pytest.approx(0.0, abs=1e-12)
        assert got[(1.0,)] == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        model = build_hv_model(DensityOperator(np.eye(2) / 2), {"z": PAULI_Z})
        assert np.allclose(model.weights, [0.5, 0.5])

    def test_singlet_two_sided(self, singlet_density):
        model = build_hv_model(singlet_density, {"z1": ZI, "z2": IZ})
        assert len(model.atoms) == 4
        assert np.allclose(model.weights, [0.0, 0.5, 0.5, 0.0], atol=1e-12)
        prod = model.value_tables["z1"] * model.value_tables["z2"]
        for w, p in zip(model.weights, prod):
            if w > 1e-9:
                assert p == pytest.approx(-1.0, abs=1e-9)

    def test_weights_are_state_diagonal(self):
        state = random_density(8, seed=2)
        ops = random_commuting_family(8, 2, seed=3)
        model = build_hv_model(state, ops)
        eb = joint_eigenbasis(list(ops.values()))
        diag = np.real(np.diag(dagger(eb.basis) @ state.matrix @ eb.basis))
        assert np.allclose(np.sort(model.weights), np.sort(diag), atol=1e-10)
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_repeated_operator_consistent(self):
        state = random_density(4, seed=9)
        rng = np.random.default_rng(9)
        u = random_unitary(4, seed=4)
        a = u @ np.diag(rng.choice([-1.0, 1.0], size=4)).astype(complex) @ dagger(u)
        model = build_hv_model(state, {"a1": a, "a2": a, "a3": a})
        assert np.allclose(model.value_tables["a1"], model.value_tables["a2"], atol=1e-9)
        assert np.allclose(model.value_tables["a1"], model.value_tables["a3"], atol=1e-9)

    def test_values_are_operator_eigenvalues(self):
        state = random_density(8, seed=13)
        ops = random_commuting_family(8, 3, seed=14)
        model = build_hv_model(state, ops)
        for label, op in ops.items():
            eigs = np.linalg.eigvalsh(op)
            for v in model.value_tables[label]:
                assert np.min(np.abs(eigs - v)) < 1e-9

    def test_near_degenerate_cluster_is_merged(self):
        # Eigenvalues of the first operator split by far less than the cluster
        # threshold: the refinement must treat them as one block so the second
        # operator still comes out diagonal.
        u = random_unitary(4, seed=15)
        rng = np.random.default_rng(15)
        base = np.array([1.0, 1.0 + 1e-9, -1.0, -1.0 - 1e-9])
        a = u @ np.diag(base).astype(complex) @ dagger(u)
        b = u @ np.diag(rng.choice([-2.0, 3.0], size=4)).astype(complex) @ dagger(u)
        eb = joint_eigenbasis([a, b])
        for m in (a, b):
            d = dagger(eb.basis) @ m @ eb.basis
            assert np.linalg.norm(d - np.diag(np.diag(d))) < 1e-8


class TestExpectationAndVerify:
    def test_empty_subset_is_normalization(self):
        model = build_hv_model(DensityOperator(np.eye(2) / 2), {"z": PAULI_Z})
        assert hv_expectation(model, []) == pytest.approx(1.0, abs=1e-12)

    def test_single_observable_on_eigenstate(self):
        model = build_hv_model(PureState([0, 1]).density(), {"z": PAULI_Z})
        assert hv_expectation(model, ["z"]) == pytest.approx(-1.0, abs=1e-10)

    def test_unknown_label(self):
        model = build_hv_model(DensityOperator(np.eye(2) / 2), {"z": PAULI_Z})
        with pytest.raises(KeyError):
            hv_expectation(model, ["nope"])

    def test_matches_quantum_correlations(self):
        state = random_density(4, seed=21)
        ops = random_commuting_family(4, 3, seed=22)
        model = build_hv_model(state, ops)
        mats = list(ops.values())
        quantum = state.expectation(mats[0] @ mats[1])
        assert hv_expectation(model, ["O0", "O1"]) == pytest.approx(quantum, abs=1e-10)

    def test_randomized_suite(self):
        count = 0
        for seed in range(60):
            dim = [2, 4, 8][seed % 3]
            n_ops = 1 + seed % 4
            state = random_density(dim, seed=1000 + seed)
            ops = random_commuting_family(dim, n_ops, seed=2000 + seed)
            model = build_hv_model(state, ops)
            rep = verify_model(model, state, ops)
            assert rep.max_error < 1e-9
            assert rep.linearity_error < 1e-9
            count += 1
        assert count == 60

    def test_characteristic_function_equality(self):
        # E[exp(i xi a + i eta b)] from atoms must equal
        # Tr(rho exp(i xi A) exp(i eta B)) for commuting A, B.
        state = random_density(4, seed=31)
        ops = random_commuting_family(4, 2, seed=32)
        model = build_hv_model(state, ops)
        a, b = ops["O0"], ops["O1"]
        for xi in (-1.0, -0.3, 0.7, 2.0):
            for eta in (-1.0, -0.3, 0.7, 2.0):
                quantum = np.trace(state.matrix @ expm(1j * xi * a) @ expm(1j * eta * b))
                hv = np.sum(
                    model.weights
                    * np.exp(1j * xi * model.value_tables["O0"] + 1j * eta * model.value_tables["O1"])
                )
                assert abs(quantum - hv) < 1e-8


class TestModelType:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            HVModel(["a", "b"], [0.6, 0.6], {"x": [1.0, -1.0]})
        with pytest.raises(ValueError):
            HVModel(["a", "b"], [1.5, -0.5], {"x": [1.0, -1.0]})

    def test_weight_sum_is_checked_at_the_state_tolerance(self):
        # Weights read off a state's diagonal sum to its trace, which the state
        # check bounds at DEFAULT_TOL; the model accepts what the state accepted.
        state = DensityOperator(np.diag([0.2500000001, 0.2500000001, 0.2500000001, 0.2500000002]).astype(complex))
        model = build_hv_model(state, {"z1": ZI})
        assert abs(model.weights.sum() - 1.0) > 1e-10
        HVModel(["a", "b"], [0.5, 0.5 + 9e-10], {"x": [1.0, -1.0]})
        with pytest.raises(ValueError, match="weights sum to"):
            HVModel(["a", "b"], [0.5, 0.5 + 2e-9], {"x": [1.0, -1.0]})

    def test_csv_rows(self, singlet_density):
        model = build_hv_model(singlet_density, {"z1": ZI, "z2": IZ})
        rows = model.to_rows()
        assert rows[0] == ["atom", "weight", "z1", "z2"]
        assert len(rows) == 5
        assert sum(r[1] for r in rows[1:]) == pytest.approx(1.0, abs=1e-10)

    def test_atom_labels_comparable_across_runs(self, singlet_density):
        m1 = build_hv_model(singlet_density, {"z1": ZI, "z2": IZ})
        m2 = build_hv_model(singlet_density, {"z1": ZI, "z2": IZ})
        assert m1.atoms == m2.atoms
