"""Quantum states: projectors, densities, mixtures, and their laws."""

import numpy as np
import pytest

from entanglekit.linalg import Tolerance, rank
from entanglekit.quantum import (
    DensityOperator,
    MixedEnsemble,
    PureState,
    _HandedOver,
    is_density,
    mix,
    projector,
)
from entanglekit.verify import _mixture_vs_superposition, _suite_traceless_commutators

E1 = PureState(np.array([1.0, 0.0], dtype=complex))
E2 = PureState(np.array([0.0, 1.0], dtype=complex))


def _rand_unit(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _rand_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def _expectation(a, rho):
    """Tr(A rho), as the mixture-density-laws suite computes it."""
    return complex(np.trace(a @ rho.mat)).real


class TestPureState:
    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError, match="unit norm"):
            PureState(np.array([1.0, 1.0]))

    def test_rejects_rather_than_renormalizes(self):
        # 4-digit approximations of 1/sqrt(2) are off by ~1e-5: too far
        with pytest.raises(ValueError, match="unit norm"):
            PureState(np.array([0.7071, 0.7071]))

    def test_custom_tolerance_is_honored(self):
        PureState(np.array([0.7071, 0.7071]), Tolerance(1e-2))


class TestProjector:
    def test_basis_vector(self):
        np.testing.assert_array_equal(projector(E1).mat, np.diag([1.0, 0.0]).astype(complex))

    def test_equal_superposition(self):
        x = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
        np.testing.assert_allclose(projector(x).mat, np.full((2, 2), 0.5), atol=1e-12)

    def test_projector_laws_random(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            p = projector(PureState(_rand_unit(rng, d))).mat
            np.testing.assert_allclose(p, p.conj().T, atol=1e-12)
            assert float(np.abs(p @ p - p).max()) <= 1e-9
            assert rank(p) == 1
            assert abs(np.trace(p) - 1.0) <= 1e-12


class TestExpectation:
    def test_identity_observable(self):
        rho = mix(MixedEnsemble(((0.5, E1), (0.5, E2))))
        assert abs(_expectation(np.eye(2), rho) - 1.0) <= 1e-12

    def test_matches_quadratic_form_on_pure_states(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            x = PureState(_rand_unit(rng, d))
            a = _rand_hermitian(rng, d)
            direct = complex(np.vdot(x.vec, a @ x.vec)).real
            assert abs(_expectation(a, projector(x)) - direct) <= 1e-9

    def test_weighted_sum_over_ensembles(self):
        rng = np.random.default_rng(42)
        d = 4
        states = [PureState(_rand_unit(rng, d)) for _ in range(3)]
        weights = [0.2, 0.5, 0.3]
        ens = MixedEnsemble(tuple(zip(weights, states)))
        a = _rand_hermitian(rng, d)
        direct = sum(w * complex(np.vdot(x.vec, a @ x.vec)).real for w, x in zip(weights, states))
        assert abs(_expectation(a, mix(ens)) - direct) <= 1e-9

    def test_state_hermitian_within_eps_gives_a_real_value(self):
        # rho passes the density check, yet Tr(A rho) = 9e-9j: A and rho are
        # Hermitian to eps only, so the imaginary part is rounding, not a bug
        e01_e10 = np.zeros((4, 4), dtype=complex)
        e01_e10[0, 1] = e01_e10[1, 0] = 1.0
        rho = DensityOperator(np.eye(4) / 4 + 0.45e-9j * e01_e10)
        assert _expectation(10 * e01_e10, rho) == 0.0


class TestMix:
    def test_single_term_is_the_projector(self):
        np.testing.assert_array_equal(mix(MixedEnsemble(((1.0, E1),))).mat, projector(E1).mat)

    def test_uniform_two_state_mixture(self):
        rho = mix(MixedEnsemble(((0.5, E1), (0.5, E2))))
        np.testing.assert_allclose(rho.mat, np.eye(2) / 2, atol=1e-12)

    def test_random_ensembles_are_densities(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            k = int(rng.integers(1, 5))
            weights = rng.dirichlet(np.ones(k))
            ens = MixedEnsemble(
                tuple((float(w), PureState(_rand_unit(rng, d))) for w in weights)
            )
            assert is_density(mix(ens).mat)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MixedEnsemble(((0.5, E1), (0.4, E2)))
        with pytest.raises(ValueError, match=">= 0"):
            MixedEnsemble(((1.5, E1), (-0.5, E2)))


class TestDensityOperatorArray:
    def test_a_callers_writable_array_is_copied(self):
        m = np.eye(2, dtype=complex) / 2
        rho = DensityOperator(m)
        m[0, 0] = 7.0
        assert rho.mat.tolist() == [[0.5, 0], [0, 0.5]]
        assert not rho.mat.flags.writeable

    def test_a_callers_read_only_array_is_copied(self):
        m = np.eye(2, dtype=complex) / 2
        m.flags.writeable = False
        rho = DensityOperator(m)
        assert not np.shares_memory(rho.mat, m)
        m.flags.writeable = True  # m owns its memory, so its caller may
        m[0, 0] = 7.0
        assert rho.mat.tolist() == [[0.5, 0], [0, 0.5]]

    def test_a_handed_over_array_is_kept_and_checked(self):
        m = np.eye(2, dtype=complex) / 2
        assert DensityOperator(_HandedOver(m)).mat is m
        assert not m.flags.writeable
        with pytest.raises(ValueError, match="positive"):
            DensityOperator(_HandedOver(np.diag([1.5, -0.5]).astype(complex)))
        with pytest.raises(ValueError, match="finite"):
            DensityOperator(_HandedOver(np.array([[np.nan]], dtype=complex)))

    @pytest.mark.parametrize(
        "entry", [complex(1e308, 1.7976931348623157e308), complex(1.4938877491736455e308, 1e308)]
    )
    def test_a_trace_whose_modulus_overflows_is_not_unit(self, entry):
        for mat in (np.array([[entry]]), _HandedOver(np.array([[entry]]))):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError) as exc:
                    DensityOperator(mat)
            assert str(exc.value) == f"density operator must have unit trace, got {entry!r}"


class TestIsDensity:
    def test_maximally_mixed(self):
        assert is_density(np.eye(2) / 2)

    def test_non_hermitian_fails(self):
        assert not is_density(np.array([[1.0, 2.0], [0.0, 1.0]]) / 2)

    def test_negative_eigenvalue_fails_despite_unit_trace(self):
        assert not is_density(np.diag([1.5, -0.5]))

    def test_wrong_trace_fails(self):
        assert not is_density(np.eye(2))

    def test_non_square_fails(self):
        assert not is_density(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "m", [np.array([[np.nan]]), np.zeros((0, 0)), np.ones(4)], ids=["nan", "empty", "1-d"]
    )
    def test_malformed_input_raises(self, m):
        with pytest.raises(ValueError):
            is_density(m)


def _is_pure(rho):
    return rank(rho.mat) == 1


class TestIsPureDensity:
    """A density is pure when its rank, at the tolerance, is one."""

    def test_projector_is_pure(self):
        rng = np.random.default_rng(44)
        assert _is_pure(projector(PureState(_rand_unit(rng, 5))))

    def test_maximally_mixed_is_not(self):
        assert not _is_pure(DensityOperator(np.eye(2) / 2))

    def test_slightly_mixed_is_not(self):
        rho = DensityOperator(np.diag([0.99, 0.01]))
        assert not _is_pure(rho)

    def test_rank_decides_near_the_threshold(self):
        # a second eigenvalue between eps/2 and eps is below the rank cut but
        # puts Tr(rho^2) outside 1 +- eps: a valid state, decided by its rank
        eps = Tolerance().eps
        for second, pure in ((0.8 * eps, True), (7e-10, True), (2 * eps, False)):
            rho = DensityOperator(np.diag([1.0 - second, second]))
            assert _is_pure(rho) is pure, second


class TestMixtureVsSuperposition:
    def test_identical_states_agree(self):
        rng = np.random.default_rng(45)
        a = _rand_hermitian(rng, 2)
        m, naive = _mixture_vs_superposition(a, E1, E1, 0.3)
        assert abs(m - naive) <= 1e-12

    def test_degenerate_weight_agrees(self):
        rng = np.random.default_rng(46)
        a = _rand_hermitian(rng, 2)
        m, naive = _mixture_vs_superposition(a, E1, E2, 1.0)
        assert abs(m - naive) <= 1e-12

    def test_canonical_discrepancy_in_the_raw_quadratic_form(self):
        # A projects onto the first state: the mixture sees it half the
        # time (0.5), while the summed vector's raw quadratic form keeps
        # only the p1^2 term (0.25)
        a = np.diag([1.0, 0.0]).astype(complex)
        m, raw = _mixture_vs_superposition(a, E1, E2, 0.5, normalize=False)
        assert abs(m - 0.5) <= 1e-12
        assert abs(raw - 0.25) <= 1e-12

    def test_discrepancy_exists_over_random_observables(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            x1, x2 = PureState(q[:, 0]), PureState(q[:, 1])
            p1 = float(rng.uniform(0.1, 0.9))
            assert any(
                abs(np.subtract(*_mixture_vs_superposition(_rand_hermitian(rng, d), x1, x2, p1)))
                > 1e-9
                for _ in range(20)
            )


class TestCcrTraceObstruction:
    """Tr(XP - PX) = 0 for finite matrices, so XP - PX = i hbar I has no finite solution."""

    def test_random_pairs_are_traceless(self):
        rng = np.random.default_rng(48)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            xm = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            pm = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            assert abs(np.trace(xm @ pm - pm @ xm)) <= 1e-9
        assert _suite_traceless_commutators(rng, 100, Tolerance()) == 100

    def test_equal_operators_give_exact_zero(self):
        rng = np.random.default_rng(49)
        xm = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.trace(xm @ xm - xm @ xm) == 0j


# constructor refusals no other test reaches: (case, build, message)
REFUSALS = [
    ("ensemble-without-terms", lambda: MixedEnsemble(()), "ensemble needs at least one term"),
    ("ensemble-of-mixed-dims",
     lambda: MixedEnsemble(((0.5, E1), (0.5, PureState(np.array([1.0, 0.0, 0.0]))))),
     "ensemble states must share one dimension, got [2, 3]"),
    # the weights are checked before the states' dimensions
    ("ensemble-of-mixed-dims-and-bad-weights",
     lambda: MixedEnsemble(((0.5, E1), (0.4, PureState(np.array([1.0, 0.0, 0.0]))))),
     "ensemble weights must sum to 1, got 0.9"),
]


@pytest.mark.parametrize("build, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_refusal_names_its_cause(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
