import math

import numpy as np
import pytest

from bellkit import scenario
from bellkit.feasibility import MarginalSet, fine_criterion, marginals_from_scenario
from bellkit.linalg import (
    CHSH_TOL,
    DEFAULT_TOL,
    DensityOperator,
    PureState,
    dagger,
    frobenius_norm,
    frobenius_norms,
    hermitian_eigensystem,
    identity,
    is_projector,
    random_density,
    random_dichotomic,
    random_pure,
    tensor_product,
)
from bellkit.scenario import (
    SPEED_OF_LIGHT,
    TSIRELSON_BOUND,
    BellScenario,
    CorrelationSet,
    bell_operator,
    beta,
    chsh_value,
    correlation_matrix,
    correlations,
    direction_vector,
    epr_min_separation,
    maximally_mixed_state,
    maximize_violation,
    positive_projector,
    preset_state,
    product00_state,
    singlet_state,
    spin_observable,
    werner_state,
)
from bellkit.sweeps import random_traceless_scenario

CANONICAL = [direction_vector(t) for t in (0.0, 45.0, 90.0, 135.0)]  # a, b, c, d


def canonical_singlet_scenario() -> BellScenario:
    return BellScenario.from_directions(singlet_state(), *CANONICAL)


def random_scenario(m, n, seed, traceless=True) -> BellScenario:
    return BellScenario(
        a=random_dichotomic(m, traceless=traceless, seed=seed),
        b=random_dichotomic(n, traceless=traceless, seed=seed + 10_000),
        c=random_dichotomic(m, traceless=traceless, seed=seed + 20_000),
        d=random_dichotomic(n, traceless=traceless, seed=seed + 30_000),
        state=random_density(m * n, seed=seed + 40_000),
    )


class TestSpinObservable:
    """The projector onto spin-up along n is positive_projector(spin_observable(n)) = (I + n.sigma)/2."""

    def test_z_axis(self):
        assert np.allclose(positive_projector(spin_observable([0.0, 0.0, 1.0])), [[1, 0], [0, 0]])

    def test_x_axis(self):
        assert np.allclose(positive_projector(spin_observable([1.0, 0.0, 0.0])), [[0.5, 0.5], [0.5, 0.5]])

    def test_rank_one(self):
        w, _ = hermitian_eigensystem(positive_projector(spin_observable(direction_vector(63.0, 21.0))))
        assert np.allclose(w, [0.0, 1.0], atol=1e-10)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            spin_observable([0.0, 0.0, 2.0])

    @pytest.mark.parametrize("direction", [[np.nan, 0.0, 0.0], [0.0, 0.0, np.nan], [np.inf, 0.0, 0.0]])
    def test_non_finite_direction_rejected(self, direction):
        with pytest.raises(ValueError, match="unit 3-vector"):
            spin_observable(direction)


class TestSpinStack:
    def test_the_stack_is_each_observable_bit_for_bit(self):
        rng = np.random.default_rng(19)
        directions = rng.normal(size=(1000, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        directions[:4] = [[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.6, -0.8, -0.0]]
        stack = scenario._spin_stack(directions)
        assert stack.shape == (1000, 2, 2)
        for n, x in zip(directions, stack):
            single = n[0] * scenario.PAULI_X + n[1] * scenario.PAULI_Y + n[2] * scenario.PAULI_Z
            assert x.tobytes() == single.tobytes() == spin_observable(n).tobytes()

    def test_from_directions_names_the_first_bad_direction(self):
        state = singlet_state()
        a, b, c, d = CANONICAL
        long_c, short_b = np.append(c, 0.0), 0.5 * b
        with pytest.raises(ValueError) as info:
            BellScenario.from_directions(state, a, short_b, long_c, d)
        assert str(info.value) == f"direction must be a unit 3-vector, got {short_b!r}"
        with pytest.raises(ValueError) as info:
            BellScenario.from_directions(state, a, b, long_c, d)
        assert str(info.value) == f"direction must be a unit 3-vector, got {long_c!r}"


class TestPositiveProjector:
    def test_round_trip(self):
        p = positive_projector(spin_observable(direction_vector(77.0, 12.0)))
        assert np.allclose(positive_projector(2.0 * p - np.eye(2)), p, atol=1e-12)

    def test_rejects_non_dichotomic(self):
        with pytest.raises(ValueError):
            positive_projector(np.diag([2.0, -1.0]).astype(complex))


class TestChAndChsh:
    def test_uniform_independent(self):
        m = MarginalSet(p_a=0.5, p_b=0.5, p_c=0.5, p_d=0.5,
                        p_ab=0.25, p_ad=0.25, p_bc=0.25, p_cd=0.25)
        c = CorrelationSet(ab=0.0, bc=0.0, cd=0.0, ad=0.0)
        assert chsh_value(c) == pytest.approx(0.0)
        assert chsh_value(c) == pytest.approx(fine_criterion(m).chsh_values[0])

    def test_deterministic_boundary(self):
        c = CorrelationSet(ab=1.0, bc=1.0, cd=1.0, ad=1.0)
        assert chsh_value(c) == pytest.approx(2.0)

    def test_singlet_canonical_saturation(self):
        s = canonical_singlet_scenario()
        assert abs(chsh_value(correlations(s))) == pytest.approx(TSIRELSON_BOUND, abs=1e-10)

    def test_bridge_on_random_scenarios(self):
        for seed in range(25):
            for dims in ((2, 2), (2, 4), (4, 4)):
                s = random_scenario(*dims, seed=seed)
                m = marginals_from_scenario(s)
                assert chsh_value(correlations(s)) == pytest.approx(fine_criterion(m).chsh_values[0], abs=1e-10)

    def test_trivial_side_dimension(self):
        # M = 1 degenerates gracefully: side 1 carries the scalar +-1 "observable".
        one = np.array([[1.0]], dtype=complex)
        b = random_dichotomic(2, traceless=True, seed=4)
        d = random_dichotomic(2, traceless=True, seed=5)
        s = BellScenario(a=one, b=b, c=-one, d=d, state=random_density(2, seed=6))
        assert s.dims == (1, 2)
        assert beta(s) == pytest.approx(chsh_value(correlations(s)), abs=1e-10)
        bm = bell_operator(s).matrix
        assert np.trace(bm @ bm).real == pytest.approx(8.0, abs=1e-9)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CorrelationSet(ab=1.2, bc=0.0, cd=0.0, ad=0.0)


class TestBellOperator:
    def test_collapsed_form(self):
        a = random_dichotomic(2, traceless=True, seed=1)
        b = random_dichotomic(2, traceless=True, seed=2)
        s = BellScenario(a=a, b=b, c=a, d=b, state=singlet_state())
        assert np.allclose(bell_operator(s).matrix, 2 * tensor_product(a, b), atol=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 4), (4, 4)])
    def test_trace_identities(self, dims):
        m, n = dims
        for seed in range(10):
            s = random_scenario(m, n, seed=seed)
            bm = bell_operator(s).matrix
            assert abs(np.trace(bm)) < 1e-9
            assert np.trace(bm @ bm).real == pytest.approx(4 * m * n, abs=1e-8)

    def test_trace_not_zero_without_tracelessness(self):
        # a = c = I makes B = 2 I (x) b; the zero-trace identity needs
        # traceless observables, the squared-trace identity does not.
        b = random_dichotomic(2, traceless=False, seed=3)
        ident = np.eye(2, dtype=complex)
        s = BellScenario(a=ident, b=b, c=ident, d=b, state=singlet_state())
        bm = bell_operator(s).matrix
        assert np.trace(bm @ bm).real == pytest.approx(16.0, abs=1e-8)

    def test_square_identity(self):
        # B^2 = 4 I + [a, c] (x) [b, d], derivable from the definition.
        for seed in range(10):
            s = random_scenario(2, 2, seed=100 + seed)
            bm = bell_operator(s).matrix
            comm = tensor_product(s.a @ s.c - s.c @ s.a, s.b @ s.d - s.d @ s.b)
            assert np.linalg.norm(bm @ bm - 4 * np.eye(4) - comm) < 1e-9

    def test_tsirelson_by_spectrum(self):
        for seed in range(30):
            s = random_scenario(2, 2, seed=200 + seed)
            w, _ = hermitian_eigensystem(bell_operator(s).matrix)
            assert w[-1] <= TSIRELSON_BOUND + 1e-9
            assert w[0] >= -TSIRELSON_BOUND - 1e-9

    @pytest.mark.parametrize("dims", [(2, 2), (2, 4), (4, 2), (4, 4)])
    def test_products_equal_the_kron_formulas_bit_for_bit(self, dims):
        for seed in range(8):
            s = random_traceless_scenario(*dims, seed=10 * seed)
            ab, cb, cd, ad = (np.kron(s.a, s.b), np.kron(s.c, s.b),
                              np.kron(s.c, s.d), np.kron(s.a, s.d))
            assert np.array_equal(bell_operator(s).matrix, ab + cb + cd - ad)
            c = correlations(s)
            expected = [float(np.trace(s.state.matrix @ k).real) for k in (ab, cb, cd, ad)]
            assert np.array_equal([c.ab, c.bc, c.cd, c.ad], expected)


class TestValidatedOnceScenario:
    def test_caller_mutation_changes_nothing(self):
        obs = [random_dichotomic(2, True, seed) for seed in range(4)]
        s = BellScenario(*obs, state=random_density(4, seed=9))
        kept = [x.copy() for x in (s.a, s.b, s.c, s.d)]
        value, products = beta(s), bell_operator(s).matrix.copy()
        for x in obs:
            x[:] = np.eye(2)
        assert all(np.array_equal(x, y) for x, y in zip((s.a, s.b, s.c, s.d), kept))
        assert beta(s) == value
        assert np.array_equal(bell_operator(s).matrix, products)
        fresh = BellScenario(*kept, state=s.state)
        assert beta(fresh) == value

    def test_fields_and_arrays_are_read_only(self):
        s = canonical_singlet_scenario()
        for name in ("a", "b", "c", "d", "state", "dims"):
            with pytest.raises(AttributeError):
                setattr(s, name, None)
        for x in (s.a, s.b, s.c, s.d, bell_operator(s).matrix):
            assert not x.flags.writeable

    def test_derived_values_are_kept(self):
        s = canonical_singlet_scenario()
        assert bell_operator(s) is bell_operator(s)
        assert beta(s) == beta(s) == s.state.expectation(bell_operator(s).matrix)


def near_dichotomic(dim: int, share: float, hermitian_share: float = 0.99) -> np.ndarray:
    """diag(+-1) with its +-1 residuals at the given shares of the rule's bounds: |x^2 - I|
    all on the first eigenvalue, |x - x^dagger| on the entry x[0, 1]."""
    x = np.diag(np.resize([1.0, -1.0], dim)).astype(complex)
    x[0, 0] = math.sqrt(1.0 + share * CHSH_TOL / 4)
    x[0, 1] = hermitian_share * DEFAULT_TOL / math.sqrt(2.0)
    return x


Z2, X2 = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
NOT_HERMITIAN = np.array([[1.0, 1e-3], [0.0, -1.0]])
NOT_SQUARING = np.diag([1.1, -1.0])


class TestDichotomicRule:
    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 32, 64])
    def test_residuals_at_the_bounds_keep_separable_states_classical(self, dim):
        x, y = near_dichotomic(dim, 0.99), near_dichotomic(2, 0.99)
        for z in (x, y):
            assert 0.98 * DEFAULT_TOL < frobenius_norm(z - z.conj().T) <= DEFAULT_TOL
            assert 0.98 * CHSH_TOL / 4 < frobenius_norm(z @ z - np.eye(len(z))) <= CHSH_TOL / 4
            assert is_projector(positive_projector(z))
        first = [np.eye(dim)[0]] + [random_pure(dim, seed).amplitudes for seed in range(6)]
        second = [np.eye(2)[0]] + [random_pure(2, 10 + seed).amplitudes for seed in range(6)]
        for u, v in zip(first, second):
            s = BellScenario(x, y, x, y, PureState(np.kron(u, v)).density())
            c = correlations(s)
            assert max(abs(c.ab), abs(c.bc), abs(c.cd), abs(c.ad)) <= 1.0 + CHSH_TOL / 4
            assert abs(beta(s)) <= 2.0 + CHSH_TOL / 2
        # The basis state reaches both bounds to within a hundredth of CHSH_TOL.
        s = BellScenario(x, y, x, y, PureState(np.kron(first[0], second[0])).density())
        assert beta(s) > 2.0 + 0.49 * CHSH_TOL

    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 32, 64])
    def test_residuals_past_the_bounds_are_rejected(self, dim):
        state = DensityOperator(np.eye(2 * dim) / (2 * dim))
        z = np.diag([1.0, -1.0]).astype(complex)
        for x, message in ((near_dichotomic(dim, 1.01), "does not square to the identity"),
                           (near_dichotomic(dim, 0.5, hermitian_share=1.01), "is not Hermitian")):
            with pytest.raises(ValueError, match=f"observable a {message}"):
                BellScenario(x, z, x, z, state)
            with pytest.raises(ValueError, match=f"observable x {message}"):
                positive_projector(x)

    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (4, 4), (8, 8), (16, 16), (2, 3), (8, 2)])
    def test_stacked_rule_is_each_rule(self, dims, monkeypatch):
        # A scenario checks its observables as one stack per dimension; each slice's residuals must
        # be the norms of that observable's own differences, bit for bit.
        m, n = dims
        rng = np.random.default_rng(500 + 20 * m + n)
        obs = []
        for seed, k in enumerate((m, n, m, n)):
            noise = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            obs.append(random_dichotomic(k, traceless=False, seed=600 + seed) + 1e-13 * noise)
        calls = []

        def recorded(stack):
            norms = frobenius_norms(stack)
            calls.append(norms.tolist())
            return norms

        monkeypatch.setattr(scenario, "frobenius_norms", recorded)
        s = BellScenario(*obs, state=random_density(m * n, seed=7))
        monkeypatch.undo()
        # One stack of x - x† norms, then one of x² - I norms: once for all four when M = N, else per observable.
        assert len(calls) == (2 if m == n else 8)
        residuals = [r for h, q in zip(calls[::2], calls[1::2]) for pair in zip(h, q) for r in pair]
        order = [0, 1, 2, 3]
        expected = [frobenius_norm(r) for x in (obs[i] for i in order)
                    for r in (x - dagger(x), x @ x - identity(len(x)))]
        assert residuals == expected
        kept = [x.copy() for x in obs]
        for x in obs:
            x[:] = np.eye(len(x))
        assert all(np.array_equal(getattr(s, name), x) for name, x in zip("abcd", kept))
        for x in (s.a, s.b, s.c, s.d, *s._sides):
            assert not x.flags.writeable
        assert (s._sides[0].base is s._sides[1].base is not None) == (m == n)  # one (4, M, M) copy when M = N

    @pytest.mark.parametrize("a, b, c, d, dim, error", [
        (NOT_HERMITIAN, NOT_SQUARING, X2, Z2, 4, "observable a is not Hermitian within tolerance"),
        (NOT_SQUARING, NOT_HERMITIAN, X2, Z2, 4, "observable a does not square to the identity within tolerance"),
        (Z2, Z2, np.diag([1.0, -1.0, 1.0, -1.0]), NOT_HERMITIAN, 4, "observable d is not Hermitian within tolerance"),
        (Z2, np.ones((2, 3)), X2, Z2, 4, "observable b must be square"),
        (Z2, Z2, NOT_HERMITIAN, np.ones((2, 3)), 4, "observable c is not Hermitian within tolerance"),
        (Z2, Z2, X2, X2, 6, "state dimension 6 != M*N = 4"),
        (Z2, np.diag([1.1, -1.0, 1.0]), NOT_HERMITIAN, np.diag([-1.0, 1.0, 1.0]), 6,
         "observable b does not square to the identity within tolerance"),
        (Z2, np.diag([1.0, -1.0, 1.0]), X2, np.diag([-1.0, 1.01, 1.0]), 6,
         "observable d does not square to the identity within tolerance"),
        (Z2, Z2, np.diag([1.0, -1.0, 1.0]), X2, 6, "observables a and c must share the first subsystem's dimension"),
        (Z2, Z2, X2, np.diag([1.0, -1.0, 1.0]), 6, "observables b and d must share the second subsystem's dimension"),
    ])
    def test_multi_fault_errors_keep_their_text(self, a, b, c, d, dim, error):
        # The first failure is named in a, b, c, d order, each +-1 failure before any shape error.
        with pytest.raises(ValueError) as info:
            BellScenario(a, b, c, d, DensityOperator(np.eye(dim) / dim))
        assert str(info.value) == error


class TestBeta:
    def test_matches_correlations(self):
        for seed in range(20):
            s = random_scenario(2, 2, seed=300 + seed)
            assert beta(s) == pytest.approx(chsh_value(correlations(s)), abs=1e-10)

    def test_product_states_classical(self):
        for seed in range(200):
            ra = random_density(2, seed=seed)
            rb = random_density(2, seed=seed + 50_000)
            joint = DensityOperator(tensor_product(ra.matrix, rb.matrix))
            s = BellScenario(
                a=random_dichotomic(2, True, seed), b=random_dichotomic(2, True, seed + 1),
                c=random_dichotomic(2, True, seed + 2), d=random_dichotomic(2, True, seed + 3),
                state=joint,
            )
            assert abs(beta(s)) <= 2.0 + 1e-9

    def test_singlet_canonical(self):
        assert abs(beta(canonical_singlet_scenario())) == pytest.approx(TSIRELSON_BOUND, abs=1e-10)

    def test_maximally_mixed_traceless(self):
        s = random_scenario(2, 2, seed=7)
        s = BellScenario(a=s.a, b=s.b, c=s.c, d=s.d, state=preset_state("mixed"))
        assert beta(s) == pytest.approx(0.0, abs=1e-10)


class TestMaximizeViolation:
    def test_singlet(self):
        r = maximize_violation(singlet_state())
        assert r.beta_max == pytest.approx(TSIRELSON_BOUND, abs=1e-6)

    def test_product00(self):
        r = maximize_violation(product00_state())
        assert r.beta_max == pytest.approx(2.0, abs=1e-6)

    def test_werner_scaling(self):
        full = maximize_violation(singlet_state()).beta_max
        half = maximize_violation(werner_state(0.5)).beta_max
        assert half == pytest.approx(0.5 * full, abs=1e-6)

    def test_against_singular_value_oracle(self):
        # |beta|_max = 2 sqrt(s1^2 + s2^2) over the correlation matrix's two
        # largest singular values.
        for seed in range(15):
            state = random_density(4, seed=seed)
            sv = np.linalg.svd(correlation_matrix(state), compute_uv=False)
            oracle = 2.0 * math.sqrt(sv[0] ** 2 + sv[1] ** 2)
            assert maximize_violation(state).beta_max == pytest.approx(oracle, abs=1e-6)

    def test_directions_reproduce_value_through_trace(self):
        r = maximize_violation(werner_state(0.9))
        s = BellScenario.from_directions(werner_state(0.9), *(r.directions[k] for k in "abcd"))
        assert abs(beta(s)) == pytest.approx(r.beta_max, abs=1e-9)


class TestClosedFormOptimizer:
    @staticmethod
    def _check(state):
        r = maximize_violation(state)
        for k in "abcd":
            assert np.linalg.norm(r.directions[k]) == pytest.approx(1.0, abs=1e-12)
        s = BellScenario.from_directions(state, *(r.directions[k] for k in "abcd"))
        assert abs(beta(s)) == pytest.approx(r.beta_max, abs=1e-9)
        assert r.beta_max <= TSIRELSON_BOUND + 1e-12
        return r

    def test_full_rank(self):
        for seed in range(20):
            self._check(random_density(4, seed=seed))

    def test_rank_one(self):
        for seed in range(20):
            self._check(random_pure(4, seed=seed).density())

    def test_rank_two(self):
        for seed in range(20):
            p1 = random_pure(4, seed=2 * seed).density().matrix
            p2 = random_pure(4, seed=2 * seed + 1).density().matrix
            w = 0.1 + 0.8 * seed / 19
            state = DensityOperator(w * p1 + (1.0 - w) * p2)
            assert np.linalg.matrix_rank(state.matrix, tol=1e-10) == 2
            self._check(state)

    def test_maximally_mixed(self):
        r = self._check(maximally_mixed_state(4))
        assert r.beta_max == 0.0
        assert all(np.all(np.isfinite(v)) for v in r.directions.values())

    def test_correlation_matrix_against_kron_traces(self):
        paulis = [np.array(m, dtype=complex) for m in
                  ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]
        for seed in range(10):
            state = random_density(4, seed=seed)
            expected = np.array([[np.trace(state.matrix @ np.kron(si, sj)).real
                                  for sj in paulis] for si in paulis])
            assert np.allclose(correlation_matrix(state), expected, atol=1e-15)


class TestPresets:
    def test_named(self):
        assert preset_state("singlet").purity() == pytest.approx(1.0, abs=1e-12)
        assert preset_state("product00").matrix[0, 0] == 1.0
        assert preset_state("mixed").purity() == pytest.approx(0.25, abs=1e-12)
        w = preset_state("werner:0.5")
        assert np.allclose(w.matrix, 0.5 * singlet_state().matrix + 0.125 * np.eye(4))

    def test_unknown(self):
        with pytest.raises(ValueError):
            preset_state("ghz")
        with pytest.raises(ValueError):
            preset_state("werner:1.5")


class TestPresetMatrices:
    def test_werner_equals_the_mixture_formula_bit_for_bit(self):
        v = np.zeros(4, dtype=complex)
        v[1] = 1.0 / math.sqrt(2.0)
        v[2] = -1.0 / math.sqrt(2.0)
        singlet = np.outer(v, np.conj(v))
        assert singlet_state().matrix.tobytes() == singlet.tobytes()
        for w in np.linspace(0.0, 1.0, 41).tolist() + [0.3, 1.0 / 3.0, 0.7071]:
            expected = w * singlet + (1.0 - w) * np.eye(4) / 4.0
            assert werner_state(w).matrix.tobytes() == expected.tobytes()

    def test_named_presets_are_shared_read_only_states(self):
        for name, build in (("singlet", singlet_state), ("product00", product00_state),
                            ("mixed", lambda: maximally_mixed_state(4))):
            state = preset_state(name)
            assert state is build() is preset_state(name)
            assert not state.matrix.flags.writeable
            checked = DensityOperator(state.matrix)
            assert (checked.matrix.tobytes(), checked.purity()) == (state.matrix.tobytes(), state.purity())
        assert product00_state().matrix.tobytes() == np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex).tobytes()

    def test_a_werner_state_passes_the_check_it_skips(self):
        edges = [0.0, 5e-324, math.nextafter(0.0, 1.0), 0.5, math.nextafter(1.0, 0.0), 1.0]
        for w in edges + np.random.default_rng(16).uniform(0.0, 1.0, 10_000).tolist():
            rho = werner_state(w)
            checked = DensityOperator(rho.matrix)
            assert checked.matrix.tobytes() == rho.matrix.tobytes(), w
            assert checked.purity() == rho.purity(), w

    @pytest.mark.parametrize("build, error", [
        (lambda: preset_state("werner:-0.1"), "werner weight must be in [0, 1], got -0.1"),
        (lambda: preset_state("werner:nan"), "werner weight must be in [0, 1], got nan"),
        (lambda: preset_state("werner:1.0000001"), "werner weight must be in [0, 1], got 1.0000001"),
        (lambda: maximally_mixed_state(0), "density operator trace is 0.0, expected 1"),
    ])
    def test_rejected_presets_keep_their_errors(self, build, error):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == error


class TestSeparationEstimate:
    def test_sodium_estimate(self):
        d = epr_min_separation(0.05, 2.9e3)
        assert d == pytest.approx(2 * 0.05 * SPEED_OF_LIGHT / 2.9e3)
        assert 1e3 < d < 1e5  # kilometers scale

    def test_limit_v_to_c(self):
        assert epr_min_separation(1.0, SPEED_OF_LIGHT * (1 - 1e-12)) == pytest.approx(2.0, rel=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            epr_min_separation(0.0, 1e3)
        with pytest.raises(ValueError):
            epr_min_separation(0.05, SPEED_OF_LIGHT)
        with pytest.raises(ValueError):
            epr_min_separation(0.05, -5.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            epr_min_separation(bad, 1e3)
        with pytest.raises(ValueError):
            epr_min_separation(0.05, bad)

    @pytest.mark.parametrize("length, velocity", [(1.0, 5e-324), (1e300, 1.0)])
    def test_rejects_an_overflowing_separation(self, length, velocity):
        with pytest.raises(ValueError, match=r"^separation 2 L c / v exceeds the float range$"):
            epr_min_separation(length, velocity)
