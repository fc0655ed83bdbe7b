import hashlib
import inspect
import math
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import entropy, feasibility, hidden_vars, linalg, logic, scenario
from bellkit.linalg import (
    DensityOperator,
    PAULI_X,
    PAULI_Z,
    PureState,
    dagger,
    hermitian_eigensystem,
    is_hermitian,
    is_projector,
    matrix_from_lists,
    partial_trace,
    random_density,
    random_dichotomic,
    random_pure,
    random_unitary,
    tensor_product,
)
from bellkit.sweeps import SWEEP_TOLERANCES, run_sweep


def naive_kron(a, b):
    """Independent Kronecker-product oracle: explicit block layout."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            out[i * rb:(i + 1) * rb, j * cb:(j + 1) * cb] = a[i, j] * b
    return out


class TestTensorProduct:
    def test_identity_case(self):
        assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_singlet_zz_expectation(self, singlet_density):
        zz = tensor_product(PAULI_Z, PAULI_Z)
        assert singlet_density.expectation(zz) == pytest.approx(-1.0, abs=1e-12)

    def test_block_layout(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        got = tensor_product(a, b)
        assert got.shape == (6, 6)
        assert np.allclose(got, naive_kron(a, b))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_mixed_product_law(self, seed):
        rng = np.random.default_rng(seed)
        a, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2))
        b, d = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
        lhs = tensor_product(a, b) @ tensor_product(c, d)
        rhs = tensor_product(a @ c, b @ d)
        assert np.linalg.norm(lhs - rhs) < 1e-10 * max(1.0, np.linalg.norm(lhs))


class TestPartialTrace:
    def test_product_state_factorizes(self):
        ra = random_density(2, seed=1)
        rb = random_density(3, seed=2)
        joint = DensityOperator(tensor_product(ra.matrix, rb.matrix))
        assert np.allclose(partial_trace(joint, (2, 3), keep=1).matrix, ra.matrix, atol=1e-12)
        assert np.allclose(partial_trace(joint, (2, 3), keep=2).matrix, rb.matrix, atol=1e-12)

    def test_singlet_reduces_to_maximally_mixed(self, singlet_density):
        r1 = partial_trace(singlet_density, (2, 2), keep=1)
        assert np.allclose(r1.matrix, np.eye(2) / 2, atol=1e-12)

    def test_maximally_mixed(self):
        joint = DensityOperator(np.eye(4) / 4)
        assert np.allclose(partial_trace(joint, (2, 2), keep=2).matrix, np.eye(2) / 2)

    def test_trace_preserving_and_consistent(self):
        rho = random_density(6, seed=5)
        r1 = partial_trace(rho, (2, 3), keep=1)
        assert np.trace(r1.matrix).real == pytest.approx(1.0, abs=1e-10)
        # Tr(rho_1 X) must equal Tr(rho_12 (X x I)) for any test observable X.
        rng = np.random.default_rng(9)
        for _ in range(5):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            x = g + dagger(g)
            lhs = np.trace(r1.matrix @ x)
            rhs = np.trace(rho.matrix @ tensor_product(x, np.eye(3)))
            assert abs(lhs - rhs) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(random_density(4, seed=0), (2, 3), keep=1)

    def test_invalid_keep(self):
        with pytest.raises(ValueError):
            partial_trace(random_density(4, seed=0), (2, 2), keep=3)


class TestEigensystem:
    def test_diagonal_input(self):
        w, _ = hermitian_eigensystem(PAULI_Z)
        assert np.allclose(w, [-1.0, 1.0])

    def test_pauli_x(self):
        w, v = hermitian_eigensystem(PAULI_X)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-12)
        minus = np.array([1, -1]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(np.vdot(minus, v[:, 0])) == pytest.approx(1.0, abs=1e-10)
        assert abs(np.vdot(plus, v[:, 1])) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("dim", [3, 8, 17, 64])
    def test_reconstruction(self, dim):
        rng = np.random.default_rng(dim)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (g + dagger(g)) / 2
        w, v = hermitian_eigensystem(h)
        assert np.linalg.norm(v @ np.diag(w) @ dagger(v) - h) < 1e-10 * dim
        assert np.linalg.norm(v @ dagger(v) - np.eye(dim)) < 1e-10
        assert np.all(np.diff(w) >= 0)
        # independent oracle (SciPy's LAPACK binding, not numpy's)
        assert np.allclose(w, scipy.linalg.eigh(h, eigvals_only=True), atol=1e-10)

    def test_degenerate_spectrum(self):
        u = random_unitary(6, seed=3)
        h = u @ np.diag([2.0, 2.0, 2.0, -1.0, -1.0, 5.0]).astype(complex) @ dagger(u)
        w, v = hermitian_eigensystem(h)
        assert np.allclose(sorted(w), [-1, -1, 2, 2, 2, 5], atol=1e-12)
        assert np.linalg.norm(v @ np.diag(w) @ dagger(v) - h) < 1e-11

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigensystem(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            hermitian_eigensystem(np.eye(65))

    @pytest.mark.parametrize("dim", [2, 3, 8, 16])
    def test_stacked_solve_is_each_solve(self, dim):
        # The joint eigenbasis solves the blocks of one width as one stack; each
        # matrix of the stack must come out as its own solve would give it.
        rng = np.random.default_rng(100 + dim)
        g = rng.standard_normal((5, dim, dim)) + 1j * rng.standard_normal((5, dim, dim))
        h = g + dagger(g)
        assert all(np.array_equal(dagger(h)[k], dagger(h[k])) for k in range(5))
        assert np.array_equal(dagger(h[0]), np.conj(h[0]).T)
        w, v = linalg._symmetrized_eigh(h)
        for k in range(5):
            wk, vk = linalg._symmetrized_eigh(h[k])
            assert np.array_equal(w[k], wk) and np.array_equal(v[k], vk)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
    def test_stacked_eigenvalue_only_solve_is_each_solve(self, dim):
        # A batch of states may solve its spectra as one stack only if each slice is the bytes
        # its own eigenvalue-only solve gives.
        rng = np.random.default_rng(200 + dim)
        g = rng.standard_normal((5, dim, dim)) + 1j * rng.standard_normal((5, dim, dim))
        h = g + dagger(g)
        w = np.linalg.eigvalsh(linalg._symmetrized(h))
        for k in range(5):
            assert np.array_equal(w[k], np.linalg.eigvalsh(linalg._symmetrized(h[k])))

    def test_stacked_solve_keeps_the_dimension_limit(self):
        with pytest.raises(ValueError, match="dimension 65 exceeds the supported maximum 64"):
            linalg._symmetrized_eigh(np.array([np.eye(65)] * 2))


class TestRandomDensity:
    def test_dim_one(self):
        assert np.allclose(random_density(1, seed=0).matrix, [[1.0]])

    def test_valid_and_deterministic(self):
        a = random_density(4, seed=42)
        b = random_density(4, seed=42)
        assert np.array_equal(a.matrix, b.matrix)
        w, _ = hermitian_eigensystem(a.matrix)
        assert np.all(w >= -1e-12)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-10)

    def test_purity_sweep(self):
        for seed in range(10_000):
            rho = random_density(4, seed=seed)
            assert 0.25 - 1e-12 <= rho.purity() <= 1.0 + 1e-12


def _haar_reference(rng, dim):
    """The Haar construction written out: QR of a complex Gaussian, phases fixed."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _digest(arrays) -> str:
    # Rounded to 1e-9 (and -0.0 folded into 0.0) so the pin survives last-bit
    # differences between LAPACK builds.
    h = hashlib.sha256()
    for a in arrays:
        h.update((np.round(a, 9) + 0.0).tobytes())
    return h.hexdigest()


class TestSeededDraws:
    def test_random_unitary_matches_reference_bit_for_bit(self):
        for seed in range(50):
            for dim in (1, 2, 3, 4):
                expected = _haar_reference(np.random.default_rng(seed), dim)
                assert np.array_equal(random_unitary(dim, seed), expected)

    def test_random_dichotomic_matches_reference_bit_for_bit(self):
        for seed in range(50):
            for dim, traceless in ((2, True), (4, True), (3, False), (4, False)):
                rng = np.random.default_rng(seed)
                if traceless:
                    signs = np.array([1.0] * (dim // 2) + [-1.0] * (dim // 2))
                    rng.shuffle(signs)
                else:
                    signs = rng.choice([-1.0, 1.0], size=dim)
                u = _haar_reference(rng, dim)
                expected = u @ np.diag(signs).astype(complex) @ dagger(u)
                assert np.array_equal(random_dichotomic(dim, traceless, seed), expected)

    def test_pinned_digests(self):
        assert _digest(
            random_unitary(dim, seed) for seed in range(50) for dim in (1, 2, 3, 4)
        ) == "11d229b0462db5ac85e2dcef542c9febb0b0770b50382b30a53299f6358014d0"
        assert _digest(
            random_dichotomic(dim, traceless, seed)
            for seed in range(50)
            for dim, traceless in ((2, True), (4, True), (3, False), (4, False))
        ) == "f623954282fe218a4fa71b61a2d868929a52969c442e39cb0b4ba94afbb6c0cf"


def qubit_spectrum(m: np.ndarray) -> np.ndarray:
    """The 2x2 closed form: (a + d)/2 -+ hypot((a - d)/2, |b|) on the symmetrized entries
    a = Re m00, d = Re m11 and b = (m01 + conj m10)/2."""
    (a, b), (c, d) = m.tolist()
    a, d, b = a.real, d.real, (b + c.conjugate()) / 2.0
    mean, h = (a + d) / 2.0, math.hypot((a - d) / 2.0, abs(b))
    return np.array([mean - h, mean + h])


def qubit_purity(m: np.ndarray) -> float:
    """Re(m00^2 + 2 m01 m10 + m11^2), the trace of the raw 2x2 matrix's square."""
    (a, b), (c, d) = m.tolist()
    return (a * a + 2.0 * b * c + d * d).real


class TestQubitClosedForms:
    """A 2x2 state's spectrum and purity are closed forms, not LAPACK solves or a matrix product; each
    must agree with the solver and with Tr(m @ m) on the edge cases, and be kept read-only."""

    @staticmethod
    def cases() -> dict[str, DensityOperator]:
        residual = 0.99 * linalg.DEFAULT_TOL / math.sqrt(2.0)  # |m - m†| just under DEFAULT_TOL
        rho6 = random_density(6, seed=21)
        return {
            "maximally-mixed": DensityOperator(np.eye(2) / 2),
            "pure-basis": DensityOperator(np.diag([1.0, 0.0])),
            "pure-plus": DensityOperator(np.full((2, 2), 0.5)),
            **{f"pure-{seed}": random_pure(2, seed=seed).density() for seed in range(8)},
            "diagonal": DensityOperator(np.diag([0.3, 0.7])),
            "off-diagonal-only": DensityOperator(np.array([[0.5, 0.3 - 0.2j], [0.3 + 0.2j, 0.5]])),
            "hermitian-residual": DensityOperator(np.array([[0.4, 0.1 + residual], [0.1, 0.6]])),
            "split-2x3-side-1": partial_trace(rho6, (2, 3), keep=1),
            "split-3x2-side-2": partial_trace(rho6, (3, 2), keep=2),
            **{f"split-2x2-side-{k}": partial_trace(random_density(4, seed=22), (2, 2), keep=k) for k in (1, 2)},
            **{f"random-{seed}": random_density(2, seed=seed) for seed in range(8)},
        }

    def test_spectrum_agrees_with_the_solvers(self):
        for name, rho in self.cases().items():
            m = rho.matrix
            w = rho.spectrum()
            assert w.dtype == np.float64 and w.shape == (2,), name
            assert w[0] <= w[1], name
            assert np.max(np.abs(w - np.linalg.eigvalsh(linalg._symmetrized(m)))) <= 1e-14, name
            assert np.max(np.abs(w - hermitian_eigensystem(m)[0])) <= 1e-14, name
            assert not w.flags.writeable and rho.spectrum() is w, name

    def test_purity_agrees_with_the_trace_of_the_square(self):
        for name, rho in self.cases().items():
            m = rho.matrix
            assert type(rho.purity()) is float, name
            assert abs(rho.purity() - float(np.trace(m @ m).real)) <= 1e-15, name

    def test_degenerate_and_pure_edges(self):
        cases = self.cases()
        assert np.array_equal(cases["maximally-mixed"].spectrum(), [0.5, 0.5])  # h = 0
        assert np.array_equal(cases["pure-basis"].spectrum(), [0.0, 1.0])
        assert np.array_equal(cases["pure-plus"].spectrum(), [0.0, 1.0])
        for seed in range(8):
            lo, hi = cases[f"pure-{seed}"].spectrum()
            assert abs(lo) <= 1e-15 and abs(hi - 1.0) <= 1e-15
        off = cases["off-diagonal-only"].spectrum()  # a = d: 1/2 -+ |b|
        assert np.max(np.abs(off - (0.5 + np.array([-1.0, 1.0]) * abs(0.3 + 0.2j)))) <= 1e-16


class TestReducedStateStore:
    def test_repeat_call_returns_the_stored_object(self):
        rho = random_density(6, seed=3)
        r1 = partial_trace(rho, (2, 3), keep=1)
        assert partial_trace(rho, (2, 3), keep=1) is r1
        assert partial_trace(rho, (2, 3), keep=2) is not r1
        assert not r1.matrix.flags.writeable

    def test_splits_are_keyed_by_dims(self):
        rho = random_density(8, seed=4)
        r24 = partial_trace(rho, (2, 4), keep=1)
        r42 = partial_trace(rho, (4, 2), keep=1)
        assert (r24.dim, r42.dim) == (2, 4)
        assert partial_trace(rho, (2, 4), keep=2).dim == 4
        assert not np.array_equal(partial_trace(rho, (2, 4), keep=2).matrix, r42.matrix)

    def test_bad_arguments_raise_on_every_call(self):
        rho = random_density(4, seed=5)
        partial_trace(rho, (2, 2), keep=1)
        for _ in range(2):
            with pytest.raises(ValueError):
                partial_trace(rho, (2, 2), keep=3)
            with pytest.raises(ValueError):
                partial_trace(rho, (2, 3), keep=1)
            with pytest.raises(ValueError):
                partial_trace(rho, (0, 2), keep=1)

    def test_purity_is_the_trace_of_the_square(self):
        # Bit for bit at every dimension but 2, where it is the closed form, within 1e-15 of the product's trace.
        for seed in range(20):
            rho = random_density(1 + seed % 6, seed=seed)
            m = rho.matrix
            if rho.dim == 2:
                assert rho.purity() == qubit_purity(m)
                assert abs(rho.purity() - float(np.trace(m @ m).real)) <= 1e-15
            else:
                assert rho.purity() == float(np.trace(m @ m).real)

    def test_sweep_rows_pinned(self):
        rows = [
            row
            for name in ("purity-bound", "product-beta", "bell-traces", "subadditivity", "araki-lieb")
            for row in run_sweep(name, 40, seed=0)[0]
        ]
        h = hashlib.sha256()
        for row in rows:
            h.update(f"{row.seed},{row.kind},".encode())
        h.update(_digest([np.array([row.slack for row in rows])]).encode())
        assert h.hexdigest() == "fb3933a44a03e01654689134601dc617cdc80c4d931aced59bdabc50a3f32242"

    def test_other_sweep_rows_pinned(self):
        # The sweeps the digest above leaves out, at two seeds.
        names = ("concavity", "classical-monotonicity", "tsirelson", "fine-equivalence", "sufficiency")
        rows = [row for name in names for seed in (0, 7) for row in run_sweep(name, 40, seed=seed)[0]]
        h = hashlib.sha256()
        for row in rows:
            h.update(f"{row.seed},{row.kind},".encode())
        h.update(_digest([np.array([row.slack for row in rows])]).encode())
        assert h.hexdigest() == "42df53b1ed6d1f16199d9fb27af6194560d915b3a408c45a59db4abd77aafe4d"


class TestKeptSpectrum:
    def test_spectrum_is_the_eigensolver_s_and_kept_read_only(self):
        # The eigenvalue-only solve of the symmetrized matrix, bit for bit, at every dimension but 2,
        # where it is the closed form; hermitian_eigensystem's values may differ from it in the last bits.
        for seed in range(10):
            rho = random_density(1 + seed % 8, seed=seed)
            w = rho.spectrum()
            m = rho.matrix
            if rho.dim == 2:
                assert np.array_equal(w, qubit_spectrum(m))
                assert np.max(np.abs(w - np.linalg.eigvalsh((m + dagger(m)) / 2.0))) <= 1e-14
            else:
                assert np.array_equal(w, np.linalg.eigvalsh((m + dagger(m)) / 2.0))
            assert np.max(np.abs(w - hermitian_eigensystem(m)[0])) <= 1e-14
            assert not w.flags.writeable
            assert rho.spectrum() is w

    def test_reduced_states_keep_their_own_spectrum(self):
        rho = random_density(6, seed=8)
        r1 = partial_trace(rho, (2, 3), keep=1)
        assert r1.spectrum().shape == (2,)
        assert partial_trace(rho, (2, 3), keep=1).spectrum() is r1.spectrum()


class TestSplitPair:
    """A state keeps its two reduced states as one pair per split (M, N), and each reduced state
    solves its own spectrum once."""

    def test_partial_trace_returns_the_pair_s_members(self):
        rho = random_density(6, seed=11)
        r1, r2 = linalg._reduced_pair(rho, (2, 3))
        assert partial_trace(rho, (2, 3), keep=1) is r1
        assert partial_trace(rho, (2, 3), keep=2) is r2
        assert linalg._reduced_pair(rho, (2, 3)) is linalg._reduced_pair(rho, (2, 3))
        assert (r1.dim, r2.dim) == (2, 3)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (2, 2), (3, 3), (4, 4)])
    def test_report_spectra_are_each_reduction_s_own_solve(self, dims):
        for seed in range(10):
            rho = random_density(dims[0] * dims[1], seed=seed)
            entropy.entropy_report(rho, "von_neumann", dims=dims)
            for r in (rho, *linalg._reduced_pair(rho, dims)):
                assert r._spectrum is not None and not r._spectrum.flags.writeable
                solved = np.linalg.eigvalsh(linalg._symmetrized(r.matrix))
                if r.dim == 2:  # the closed form, not a solve
                    assert np.array_equal(r.spectrum(), qubit_spectrum(r.matrix))
                    assert np.max(np.abs(r.spectrum() - solved)) <= 1e-14
                else:
                    assert np.array_equal(r.spectrum(), solved)

    def test_kept_spectrum_is_not_solved_again(self):
        rho = random_density(4, seed=13)
        r1, r2 = linalg._reduced_pair(rho, (2, 2))
        w1 = r1.spectrum()
        entropy.entropy_report(rho, "von_neumann", dims=(2, 2))
        assert r1.spectrum() is w1
        w2 = r2.spectrum()
        entropy.entropy_report(rho, "von_neumann", dims=(2, 2))
        assert r1.spectrum() is w1 and r2.spectrum() is w2


class TestDerivedStates:
    """States derived from checked parents keep their check: the purity and
    spectrum the public constructor gives, read-only, without a re-check."""

    def test_derived_states_equal_the_checked_ones(self):
        for seed in range(20):
            dim = 1 + seed % 8
            rho = random_density(dim, seed=seed)
            derived = [rho, random_pure(dim, seed=seed).density()]
            if dim % 2 == 0:
                derived += [partial_trace(rho, (2, dim // 2), keep=keep) for keep in (1, 2)]
            for d in derived:
                checked = DensityOperator(d.matrix)
                assert d.purity() == checked.purity()
                assert np.array_equal(d.spectrum(), checked.spectrum())
                assert not d.matrix.flags.writeable

    def test_spectrum_keeps_the_dimension_limit(self):
        rho = DensityOperator(np.eye(65) / 65)
        with pytest.raises(ValueError, match="dimension 65 exceeds the supported maximum 64"):
            rho.spectrum()
        # The eigensolver decides the limit before Hermiticity, as before.
        with pytest.raises(ValueError, match="dimension 65 exceeds the supported maximum 64"):
            hermitian_eigensystem(np.triu(np.ones((65, 65))))


class TestRandomDichotomic:
    @pytest.mark.parametrize("dim,traceless", [(2, True), (4, True), (4, False), (3, False)])
    def test_squares_to_identity(self, dim, traceless):
        m = random_dichotomic(dim, traceless=traceless, seed=7)
        assert linalg.frobenius_norm(m - dagger(m)) <= 1e-10
        assert np.linalg.norm(m @ m - np.eye(dim)) < 1e-10

    def test_traceless(self):
        for seed in range(20):
            m = random_dichotomic(4, traceless=True, seed=seed)
            assert abs(np.trace(m)) < 1e-10

    def test_dim2_traceless_spectrum(self):
        w, _ = hermitian_eigensystem(random_dichotomic(2, traceless=True, seed=11))
        assert np.allclose(w, [-1.0, 1.0], atol=1e-10)

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            random_dichotomic(3, traceless=True, seed=0)


class TestStates:
    def test_density_validation(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue
        with pytest.raises(ValueError):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian

    def test_pure_state_validation(self):
        with pytest.raises(ValueError):
            PureState([1.0, 1.0])
        psi = PureState.normalized([1.0, 1.0])
        assert psi.density().purity() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("amplitudes", [[np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0]])
    def test_pure_state_rejects_non_finite_amplitudes(self, amplitudes):
        with pytest.raises(ValueError, match="squared norm"):
            PureState(amplitudes)

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [0.5, np.nan, 0.5], [np.inf, 1.0]])
    def test_probability_vector_rejects_non_finite_weights(self, weights):
        with pytest.raises(ValueError, match="weights sum to"):
            linalg.probability_vector(weights)

    def test_random_pure(self):
        psi = random_pure(5, seed=1)
        assert np.vdot(psi.amplitudes, psi.amplitudes).real == pytest.approx(1.0, abs=1e-12)


def _layouts(m: np.ndarray) -> list[np.ndarray]:
    """``m`` C-ordered, F-ordered, transposed, conjugate-transposed and strided."""
    padded = np.zeros((2 * m.shape[0], 3 * m.shape[1]), dtype=m.dtype)
    padded[::2, ::3] = m
    return [m, np.asfortranarray(m), m.T, m.conj().T, padded[::2, ::3]]


def _old_probability_vector(weights, sum_tol: float = linalg.PROB_TOL) -> np.ndarray:
    """``linalg.probability_vector`` as first written, through ``np.any`` and ``np.clip``."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < -linalg.PROB_TOL):
        raise ValueError("weights must be nonnegative")
    if not abs(w.sum() - 1.0) <= sum_tol:
        raise ValueError(f"weights sum to {w.sum()}, expected 1")
    w = np.clip(w, 0.0, None)
    w.setflags(write=False)
    return w


def _outcome(fn, *args):
    try:
        w = fn(*args)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", w.dtype, w.shape, w.tobytes(), w.flags.writeable


class TestNumpyContracts:
    """The checks read numpy's own results without its wrappers' overhead."""

    def test_frobenius_norm_is_numpys_norm_bit_for_bit(self):
        rng = np.random.default_rng(14)
        count = 0
        for dim in range(1, 65):
            for _ in range(3):
                scale = 10.0 ** rng.uniform(-14, 2)
                real = rng.standard_normal((dim, dim)) * scale
                kinds = [real + 1j * rng.standard_normal((dim, dim)) * scale, real,
                         rng.integers(-3, 4, size=(dim, dim))]
                for m in kinds:
                    for x in _layouts(m) + [m[0], m[:, 0], m.ravel()[::2]]:
                        assert linalg.frobenius_norm(x) == float(np.linalg.norm(x)), (dim, x.dtype)
                        count += 1
        assert count == 64 * 3 * 3 * 8

    def test_frobenius_norm_of_residuals_is_numpys(self):
        # The shapes the checks pass: m - m^dagger, x^2 - I and commutators.
        for dim in (2, 4, 8, 16, 64):
            for seed in range(5):
                x = random_dichotomic(dim, False, seed)
                rho = random_density(dim, seed).matrix
                for r in (x - dagger(x), x @ x - np.eye(dim), rho - rho.conj().T, x @ rho - rho @ x):
                    assert linalg.frobenius_norm(r) == float(np.linalg.norm(r))

    def test_frobenius_norms_is_each_slices_frobenius_norm(self):
        # The +-1 rule norms a (K, d, d) stack of residuals in one reduction; each entry keeps its slice's bits.
        rng = np.random.default_rng(24)
        count = 0
        for dim in range(1, 65):
            for k in range(1, 9):
                scale = 10.0 ** rng.uniform(-14, 2)
                real = rng.standard_normal((k, dim, dim)) * scale
                x = real + 1j * rng.standard_normal((k, dim, dim)) * scale
                padded = np.zeros((2 * k, dim, 3 * dim), dtype=complex)
                padded[::2, :, ::3] = x
                stacks = [x, real, x - dagger(x), x @ x - np.eye(dim), real @ real - np.eye(dim),
                          np.ascontiguousarray(padded[::2, :, ::3]), np.ascontiguousarray(dagger(x))]
                for stack in stacks:
                    assert linalg.frobenius_norms(stack).tolist() == [linalg.frobenius_norm(s) for s in stack]
                    count += k
        assert count == 7 * 64 * 36

    def test_probability_vector_keeps_the_bytes_of_np_any_and_np_clip(self):
        rng = np.random.default_rng(14)
        clipped = 0
        for _ in range(400):
            q = rng.exponential(size=16)
            q[rng.random(16) < 0.3] = 0.0
            q[0] += 1.0
            w = q / q.sum()
            zeros = np.flatnonzero(w == 0.0)
            if zeros.size:
                w[rng.choice(zeros, size=(zeros.size + 1) // 2, replace=False)] = -0.0
                w[zeros[0]] = -rng.uniform(0.0, 1.0) * linalg.PROB_TOL
            for sum_tol in (linalg.PROB_TOL, linalg.DEFAULT_TOL):
                new = _outcome(linalg.probability_vector, w, sum_tol)
                assert new == _outcome(_old_probability_vector, w, sum_tol)
                if new[0] == "ok":
                    assert not np.signbit(linalg.probability_vector(w, sum_tol)).any()
                    clipped += bool(np.signbit(w).any())
        assert clipped > 100

    @pytest.mark.parametrize("weights, text", [
        ([1.0 + 2e-12, -2e-12] + [0.0] * 14, "weights must be nonnegative"),
        ([0.5, np.nan, 0.5] + [0.0] * 13, "weights sum to nan, expected 1"),
        ([0.5, 0.25] + [0.0] * 14, "weights sum to 0.75, expected 1"),
    ])
    def test_probability_vector_keeps_its_error_texts(self, weights, text):
        assert _outcome(linalg.probability_vector, weights) == ("error", text)
        assert _outcome(_old_probability_vector, weights) == ("error", text)


class TestPredicatesAndLiterals:
    def test_predicates(self):
        assert is_hermitian(PAULI_X)
        assert not is_hermitian([[0, 1], [0, 0]])
        assert is_projector(np.diag([1.0, 0.0]).astype(complex))
        assert not is_projector(PAULI_X)  # hermitian but not idempotent

    def test_matrix_literal_accepts_bare_reals(self):
        assert np.array_equal(matrix_from_lists([[1, 0], [0, 1]]), np.eye(2))

    def test_matrix_literal_rejects_garbage(self):
        with pytest.raises(ValueError):
            matrix_from_lists([[[1, 2, 3]]])
        with pytest.raises(ValueError):
            matrix_from_lists([[1, 0], [1]])

    @pytest.mark.parametrize("rows, where", [
        ([1, 2], "[0]"),
        ([[1, 0], "01"], "[1]"),
        ([[[1, None], 0], [0, 1]], "[0][0]"),
        ([[1, 0], [0, True]], "[1][1]"),
        ([[1, [False, 0]], [0, 1]], "[0][1]"),
        ([[["1", "0"], 0], [0, 1]], "[0][0]"),
        ([[1, "0"], [0, 1]], "[0][1]"),
    ])
    def test_matrix_literal_names_the_malformed_row_or_entry(self, rows, where):
        with pytest.raises(ValueError, match=re.escape(where)):
            matrix_from_lists(rows)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_trace_cyclicity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert abs(np.trace(a @ b) - np.trace(b @ a)) < 1e-10 * max(1.0, abs(np.trace(a @ b)))


#: The tolerance table in linalg, as source literals. Each value is the one
#: the same tolerance had before the table gathered them.
TOLERANCE_TABLE = {
    "DEFAULT_TOL": "1e-9", "COMMUTE_TOL": "1e-8", "CLUSTER_TOL": "1e-7",
    "PROB_TOL": "1e-12", "MARGINAL_TOL": "1e-9", "LP_FEASIBILITY_TOL": "1e-9",
    "CHSH_TOL": "1e-9", "SLACK_TOL": "1e-10", "RATIO_TIE": "1e-15",
}


class TestToleranceModel:
    def test_named_values_unchanged(self):
        for name, literal in TOLERANCE_TABLE.items():
            assert getattr(linalg, name) == float(literal), name
        assert SWEEP_TOLERANCES == {
            "concavity": 1e-10, "subadditivity": 1e-10, "classical-monotonicity": 1e-10,
            "araki-lieb": 1e-10, "purity-bound": 1e-9, "bell-traces": 1e-8, "tsirelson": 1e-9,
            "product-beta": 1e-9, "fine-equivalence": 0.0, "sufficiency": 1e-6,
        }

    def test_no_tolerance_literal_outside_the_table(self):
        # Every e-N number in the package's code is a table entry in linalg or
        # one of the three sweep-specific thresholds; docstrings do not count.
        found = set()
        for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
            with open(path) as fh:
                for tok in tokenize.generate_tokens(fh.readline):
                    if tok.type == tokenize.NUMBER and re.search(r"e-\d", tok.string, re.IGNORECASE):
                        found.add((path.name, tok.line.strip()))
        table = {("linalg.py", f"{name} = {literal}") for name, literal in TOLERANCE_TABLE.items()}
        sweeps = {("sweeps.py", '"purity-bound": 1e-9,'), ("sweeps.py", '"bell-traces": 1e-8,'),
                  ("sweeps.py", '"sufficiency": 1e-6,')}
        assert found == table | sweeps

    def test_defaults_read_the_table(self):
        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        assert default(linalg.probability_vector, "sum_tol") == linalg.PROB_TOL

    def test_tolerance_knobs_no_caller_set_are_gone(self):
        knobs = [
            (linalg.DensityOperator, "tol"), (linalg.PureState, "tol"),
            (linalg.hermitian_eigensystem, "tol"), (logic.Proposition, "tol"),
            (logic.truth_value, "tol"),
            (logic.triangle_check, "tol"), (logic.quad_check, "tol"),
            (hidden_vars.joint_eigenbasis, "tol"), (feasibility.MarginalSet.validate, "tol"),
            (scenario.BellScenario, "tol"),
            (feasibility.fine_criterion, "tol"), (feasibility.contextuality_demo, "tol"),
            (feasibility._phase1_simplex, "pivot_tol"), (feasibility.joint_feasible, "tol"),
            (linalg.is_hermitian, "tol"), (linalg.is_projector, "tol"),
        ]
        for fn, name in knobs:
            assert name not in inspect.signature(fn).parameters, fn
        for module, name in ((scenario, "OBSERVABLE_TOL"), (entropy, "EIGENVALUE_CLAMP"),
                             (linalg, "IDENTITY_TOL"), (linalg, "PIVOT_TOL"), (linalg, "MODEL_SUM_TOL"),
                             (linalg, "PROJECTOR_TOL")):
            assert not hasattr(module, name)
