from itertools import combinations, permutations

import numpy as np
import pytest
from scipy.linalg import expm

from bellkit import hidden_vars, linalg
from bellkit.errors import CommutationError
from bellkit.hidden_vars import (
    HVModel,
    ModelVerification,
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
    random_dichotomic,
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


# The spectra sign patterns: three +-1 operators at dim 8 whose joint eigenbasis
# splits into blocks of widths 4, then 2, then 1.
SIGN_PATTERNS = np.array([[(-1.0) ** (i >> k & 1) for i in range(8)] for k in (2, 1, 0)])


# References: the joint eigenbasis as a depth-first recursion with one solve per
# block, the verification one subset at a time and the labels one column at a
# time. The stacked module must give their bytes exactly.
def reference_refine(block, remaining):
    if not remaining or block.shape[1] == 1:
        return block
    a = np.conj(block).T @ remaining[0] @ block
    w, u = np.linalg.eigh((a + np.conj(a).T) / 2.0)
    rotated = block @ u
    out = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > linalg.CLUSTER_TOL:
            out.append(reference_refine(rotated[:, start:i], remaining[1:]))
            start = i
    return np.hstack(out)


def reference_joint_eigenbasis(mats):
    basis = reference_refine(np.eye(mats[0].shape[0], dtype=complex), mats)
    values = np.array([np.real(np.diag(np.conj(basis).T @ m @ basis)) for m in mats])
    order = np.lexsort(np.round(values, 6)[::-1])
    return basis[:, order], values[:, order]


def reference_atom_labels(values):
    labels = []
    seen = {}
    for col in values.T:
        base = "(" + ",".join(f"{v:+g}" for v in np.round(col, 6) + 0.0) + ")"
        n = seen.get(base, 0)
        seen[base] = n + 1
        labels.append(base if n == 0 else f"{base}#{n}")
    return labels


def reference_verify_model(model, state, ops):
    labels = list(ops)
    max_error = 0.0
    for size in range(1, min(3, len(labels)) + 1):
        for subset in combinations(labels, size):
            prod = np.eye(state.dim, dtype=complex)
            for label in subset:
                prod = prod @ ops[label]
            quantum = state.expectation(prod)
            max_error = max(max_error, abs(quantum - hv_expectation(model, subset)))
    linearity_error = 0.0
    for x, y in combinations(labels, 2):
        quantum = state.expectation(ops[x] + ops[y])
        model_side = float(np.dot(model.weights, model.value_tables[x] + model.value_tables[y]))
        linearity_error = max(linearity_error, abs(quantum - model_side))
    return ModelVerification(max_error=max_error, linearity_error=linearity_error)


def assert_matches_reference(state, ops):
    mats = [linalg.as_matrix(m) for m in ops.values()]
    basis, values = reference_joint_eigenbasis(mats)
    eb = joint_eigenbasis(mats)
    assert np.array_equal(eb.basis, basis)
    assert np.array_equal(eb.values, values)
    model = build_hv_model(state, ops)
    weights = np.maximum(np.real(np.diag(np.conj(basis).T @ state.matrix @ basis)), 0.0)
    assert np.array_equal(model.weights, weights)
    assert model.atoms == tuple(reference_atom_labels(values))
    assert verify_model(model, state, ops) == reference_verify_model(model, state, ops)


def lifted_family(obs, sides):
    m, n = sides
    return {
        "a": tensor_product(obs[0], np.eye(n)),
        "b": tensor_product(np.eye(m), obs[1]),
        "c": tensor_product(obs[2], np.eye(n)),
        "d": tensor_product(np.eye(m), obs[3]),
    }


class TestSameBytesAsTheRecursion:
    @pytest.mark.parametrize("dim", range(1, 65))
    def test_random_families_at_every_dimension(self, dim):
        alphabets = [(2.0,), (-1.0, 1.0), (-1.0, 0.0, 2.0), (-1.0, 0.5, 2.0, 3.0)]
        for k, alphabet in enumerate(alphabets):
            if dim > 16 and k != dim % 4:
                continue
            seed = 100 * dim + k
            ops = random_commuting_family(dim, 1 + (dim + k) % 4, seed, alphabet)
            assert_matches_reference(random_density(dim, seed), ops)

    def test_spectra_sign_patterns(self):
        rng = np.random.default_rng(8)
        for k, order in enumerate(permutations(range(3))):
            u = random_unitary(8, seed=30 + k)
            perm = rng.permutation(8)
            family = {f"o{j}": (u * SIGN_PATTERNS[p][perm]) @ dagger(u) for j, p in enumerate(order)}
            assert_matches_reference(random_density(8, seed=40 + k), family)
            diagonal = {f"o{j}": np.diag(SIGN_PATTERNS[p]).astype(complex) for j, p in enumerate(order)}
            assert_matches_reference(DensityOperator(np.eye(8) / 8), diagonal)

    @pytest.mark.parametrize("sides", [(2, 2), (2, 4), (4, 2), (4, 4)])
    def test_contextuality_lifts(self, sides):
        m, n = sides
        for seed in range(4):
            obs = [random_dichotomic((m, n)[k % 2], True, 10 * seed + k) for k in range(4)]
            ops = lifted_family(obs, sides)
            state = random_density(m * n, seed)
            for labels in ("ab", "ad"):
                assert_matches_reference(state, {k: ops[k] for k in labels})
            # Diagonal observables commute, so all four have one model.
            signs = np.random.default_rng(seed)
            diag = [np.diag(signs.choice([-1.0, 1.0], size=(m, n)[k % 2])).astype(complex) for k in range(4)]
            assert_matches_reference(state, lifted_family(diag, sides))

    def test_three_identical_operators(self):
        for dim in (2, 4, 8):
            a = random_commuting_family(dim, 1, seed=dim, value_alphabet=(-1.0, 1.0))["O0"]
            assert_matches_reference(random_density(dim, seed=dim), {"a1": a, "a2": a, "a3": a})

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_gaps_either_side_of_the_cluster_tolerance(self, factor):
        gap = factor * linalg.CLUSTER_TOL
        for seed in range(4):
            u = random_unitary(6, seed=seed)
            base = np.array([1.0, 1.0 + gap, -1.0, -1.0 - gap, 2.0, 2.0 + gap])
            other = np.random.default_rng(seed).choice([-2.0, 3.0], size=6)
            ops = {"a": (u * base) @ dagger(u), "b": (u * other) @ dagger(u)}
            assert_matches_reference(random_density(6, seed), ops)


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

        def counting(m):
            checked.append(m.shape)
            return is_hermitian(m)

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


    def test_one_solve_per_level_and_width(self, monkeypatch):
        # The spectra family needs a block of width 8, two of width 4 and four of
        # width 2 solved: one stacked solve per level, not one per block.
        solved = []
        solve = hidden_vars._symmetrized_eigh

        def counting(a):
            solved.append(a.shape)
            return solve(a)

        monkeypatch.setattr(hidden_vars, "_symmetrized_eigh", counting)
        u = random_unitary(8, seed=23)
        joint_eigenbasis([(u * p) @ dagger(u) for p in SIGN_PATTERNS])
        assert solved == [(1, 8, 8), (2, 4, 4), (4, 2, 2)]

    def test_dimension_limit(self):
        with pytest.raises(ValueError, match="dimension 65 exceeds the supported maximum 64"):
            joint_eigenbasis([np.eye(65)])
        with pytest.raises(ValueError, match="dimension 65 exceeds the supported maximum 64"):
            build_hv_model(DensityOperator(np.eye(65) / 65), {"a": np.eye(65)})


class TestBuildModel:
    def test_pure_eigenstate(self):
        model = build_hv_model(PureState([1, 0]).density(), {"z": PAULI_Z})
        got = dict(zip(map(tuple, np.round([model.value_tables["z"]], 6).T.tolist()), model.weights))
        assert got[(-1.0,)] == pytest.approx(0.0, abs=1e-12)
        assert got[(1.0,)] == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        model = build_hv_model(DensityOperator(np.eye(2) / 2), {"z": PAULI_Z})
        assert np.allclose(model.weights, [0.5, 0.5])

    def test_keys_that_render_to_one_label_are_rejected(self):
        with pytest.raises(ValueError, match="observable labels must be unique"):
            build_hv_model(DensityOperator(np.eye(2) / 2), {1: PAULI_Z, "1": PAULI_Z})

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

    def test_empty_family_verifies_with_no_error(self):
        state = random_density(4, seed=5)
        model = build_hv_model(state, {"z1": ZI})
        assert verify_model(model, state, {}) == ModelVerification(0.0, 0.0)

    def test_one_operator_has_no_pairs(self):
        state = random_density(4, seed=6)
        ops = {"z1": ZI}
        model = build_hv_model(state, ops)
        rep = verify_model(model, state, ops)
        assert rep.linearity_error == 0.0
        assert rep.max_error == abs(state.expectation(ZI) - hv_expectation(model, ["z1"]))
        assert rep == reference_verify_model(model, state, ops)

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

    def test_value_tables_are_copies(self):
        # The model once froze the caller's float64 array in place instead of copying it.
        v = np.array([1.0, -1.0])
        model = HVModel(["a", "b"], [0.5, 0.5], {"z": v})
        assert v.flags.writeable
        assert not model.value_tables["z"].flags.writeable
        v[0] = 7.0
        assert model.value_tables["z"].tolist() == [1.0, -1.0]

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
