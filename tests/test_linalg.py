"""Core linear algebra: the inner-product, adjoint and trace conventions, rank, positivity."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entanglekit.bipartite import BipartiteDims
from entanglekit.classical import (
    ClassicalSeparableCert,
    ClassicalState,
    CompositeClassicalState,
    PhaseSpace,
    classical_pure,
)
from entanglekit.linalg import (
    _HERMITIAN_BLOCK,
    _LOW_RANK_STEPS,
    DEFAULT_EPS,
    Tolerance,
    as_matrix,
    as_vector,
    check_weights,
    count_above,
    is_hermitian,
    _low_rank_factor,
    is_positive,
    rank,
)
from entanglekit.quantum import DensityOperator, MixedEnsemble, PureState, projector
from entanglekit.separability import SeparableDecomposition, range_basis
from entanglekit.verify import _factor_positive

TOL = Tolerance()


def _rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _exact_rank_over_rationals(int_matrix):
    """Independent oracle: Gaussian elimination with exact arithmetic."""
    a = [[Fraction(int(v)) for v in row] for row in int_matrix]
    rows, cols = len(a), len(a[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        r += 1
    return r


_coords = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


@st.composite
def _vector_pairs(draw, max_dim=6):
    d = draw(st.integers(min_value=1, max_value=max_dim))
    def vec():
        re = draw(st.lists(_coords, min_size=d, max_size=d))
        im = draw(st.lists(_coords, min_size=d, max_size=d))
        return np.array(re) + 1j * np.array(im)
    return vec(), vec()


class TestInner:
    """``np.vdot``, the package's inner product: conjugate-linear in the first argument."""

    def test_orthogonal_basis_vectors(self):
        assert np.vdot([1, 0], [0, 1]) == 0

    def test_conjugate_linear_in_first_argument(self):
        assert np.vdot([1j, 0], [1, 0]) == -1j
        assert np.vdot([1, 0], [1j, 0]) == 1j

    def test_matches_componentwise_summation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(1, 8))
            u, v = _rand_complex(rng, d), _rand_complex(rng, d)
            direct = sum(complex(u[k]).conjugate() * complex(v[k]) for k in range(d))
            assert abs(np.vdot(u, v) - direct) <= 1e-12

    def test_self_inner_is_real_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            u = _rand_complex(rng, 5)
            val = np.vdot(u, u)
            assert val.imag == 0.0
            assert val.real >= 0.0

    @settings(max_examples=200, deadline=None)
    @given(_vector_pairs())
    def test_conjugate_symmetry(self, pair):
        u, v = pair
        assert abs(np.vdot(u, v) - np.conj(np.vdot(v, u))) <= 1e-9


def _adjoint(m):
    return np.asarray(m, dtype=complex).conj().T


class TestAdjoint:
    """The adjoint is the conjugate transpose, as ``is_hermitian`` and the suites take it."""

    def test_identity(self):
        np.testing.assert_array_equal(_adjoint(np.eye(2)), np.eye(2))

    def test_real_matrix_transposes(self):
        np.testing.assert_array_equal(_adjoint([[0, 1], [0, 0]]), [[0, 0], [1, 0]])

    def test_one_by_one_conjugates(self):
        np.testing.assert_array_equal(_adjoint([[2 + 3j]]), [[2 - 3j]])

    def test_involution(self):
        rng = np.random.default_rng(9)
        m = _rand_complex(rng, 4, 3)
        np.testing.assert_array_equal(_adjoint(_adjoint(m)), m)


class TestTrace:
    def test_identity(self):
        assert np.trace(np.eye(2)) == 2

    def test_linearity(self):
        rng = np.random.default_rng(10)
        a, b = _rand_complex(rng, 4, 4), _rand_complex(rng, 4, 4)
        alpha = 0.3 - 1.7j
        assert abs(np.trace(a + b) - (np.trace(a) + np.trace(b))) <= 1e-12
        assert abs(np.trace(alpha * a) - alpha * np.trace(a)) <= 1e-12

    def test_equals_basis_sum_in_any_orthonormal_basis(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d = int(rng.integers(2, 7))
            m = _rand_complex(rng, d, d)
            q, _ = np.linalg.qr(_rand_complex(rng, d, d))
            basis_sum = sum(complex(np.vdot(q[:, i], m @ q[:, i])) for i in range(d))
            assert abs(basis_sum - np.trace(m)) <= 1e-9


class TestRank:
    def test_zero_matrix(self):
        assert rank(np.zeros((3, 3))) == 0

    def test_identical_rows(self):
        assert rank([[1, 1], [1, 1]]) == 1

    def test_projector_is_rank_one(self):
        rng = np.random.default_rng(12)
        x = _rand_complex(rng, 5)
        x /= np.linalg.norm(x)
        assert rank(np.outer(x, x.conj())) == 1

    def test_agrees_with_exact_elimination_on_integer_matrices(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            m = rng.integers(-3, 4, (rows, cols))
            assert rank(m.astype(complex)) == _exact_rank_over_rationals(m)


class TestCountAbove:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(min_value=0, max_value=1e3), min_size=4, max_size=4),
            min_size=1,
            max_size=5,
        ),
        st.sampled_from([1e-15, 1e-9, 1e-3, 0.5]),
    )
    def test_matches_the_threshold_rule_row_by_row(self, rows, eps):
        # the formula rank, schmidt, range_basis and the span each used to inline
        tol = Tolerance(eps)
        stack = -np.sort(-np.array(rows), axis=-1)
        expected = [int(np.count_nonzero(s > eps * max(1.0, float(s[0])))) for s in stack]
        assert count_above(stack, tol).tolist() == expected
        assert [int(count_above(s, tol)) for s in stack] == expected

    def test_floor_at_one_strict_cut_and_empty_stack(self):
        assert count_above([0.5, 0.4, 0.0], Tolerance(0.45)) == 1
        assert count_above([1.0, 1e-9, 0.0], Tolerance(1e-9)) == 1
        assert count_above(np.zeros((0, 3))).shape == (0,)


class TestHermitian:
    def test_identity_is_hermitian(self):
        assert is_hermitian(np.eye(3))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            is_hermitian(np.ones((2, 3)))

    def test_real_triangular_counterexample(self):
        # real for every real vector, yet not self-adjoint: the quadratic
        # form criterion needs a genuinely complex witness
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert not is_hermitian(a)
        rng = np.random.default_rng(14)
        for _ in range(200):
            x = rng.standard_normal(2)
            assert complex(np.vdot(x, a @ x)).imag == 0.0
        witness = complex(np.vdot(np.array([1.0, 1j]), a.astype(complex) @ np.array([1.0, 1j])))
        assert witness == 2 + 2j

    def test_hermitian_quadratic_forms_are_real(self):
        rng = np.random.default_rng(15)
        a = _rand_complex(rng, 4, 4)
        m = (a + a.conj().T) / 2
        assert is_hermitian(m)
        for _ in range(50):
            x = _rand_complex(rng, 4)
            assert abs(complex(np.vdot(x, m @ x)).imag) <= 1e-9 * np.linalg.norm(x) ** 2

    @pytest.mark.parametrize(
        "m",
        [
            np.array([[1e308 + 1.7976931348623157e308j]]),
            np.array([[0.5, 1.3e308 + 1.3e308j], [0.0, 0.5]]),
        ],
        ids=["1x1-imaginary", "2x2-off-diagonal"],
    )
    def test_an_asymmetry_that_overflows_is_refused(self, m):
        # max|m| overflows too, so the full-matrix rule would read inf <= inf
        with np.errstate(over="ignore"):
            assert not is_hermitian(m)

    def test_a_finite_asymmetry_is_judged_when_the_modulus_overflows(self):
        m = np.array([[0.5, 1.3e308 + 1.3e308j], [1.3e308 - 1.3e308j, 0.5]])
        with np.errstate(over="ignore"):
            assert is_hermitian(m)


def _full_matrix_rule(m, tol):
    """``_is_hermitian`` before the one-triangle sweep, kept as the reference."""
    scale = max(1.0, float(np.abs(m).max()))
    return bool(np.abs(m - m.conj().T).max() <= tol.eps * scale)


@st.composite
def _one_entry_off_hermitian(draw):
    """A Hermitian matrix with ``max|m| > 1``, signed zeros, and one planted asymmetry.

    The asymmetry sits in the lower triangle, in the upper triangle, or on
    the diagonal as an imaginary part; its size lies at, just inside or just
    outside ``eps`` or ``eps * max|m|``.  It is planted against a signed
    zero, so the difference is its size exactly.
    """
    n = draw(st.integers(1, 300))
    eps = draw(st.sampled_from([1e-13, 1e-9, 1e-6, 1e-3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = _rand_complex(rng, n, n)
    m = (a + a.conj().T) / 2  # Hermitian bit for bit
    k = draw(st.integers(0, n - 1))
    m[k, k] = draw(st.floats(1.5, 1e3))
    signed_zeros = rng.choice([0.0, -0.0], size=(n, n, 2)).view(complex)[..., 0]
    zeros = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.1, 1.0]))
    zeros &= ~np.eye(n, dtype=bool)
    m[zeros] = signed_zeros[zeros]
    # anywhere, within the sweep's last block of rows, or either side of a block edge
    edges = [e for b in range(_HERMITIAN_BLOCK, n, _HERMITIAN_BLOCK) for e in (b - 1, b)]
    index = draw(st.sampled_from([
        st.integers(0, n - 1),
        st.integers((n - 1) // _HERMITIAN_BLOCK * _HERMITIAN_BLOCK, n - 1),
        st.sampled_from(edges or [0]),
    ]))
    i, j = sorted((draw(index), draw(index)))
    where = draw(st.sampled_from(["lower", "upper", "diagonal"]))
    if where != "diagonal" and i == j:
        where = "diagonal"
    threshold = eps * draw(st.sampled_from([1.0, float(np.abs(m).max())]))
    factor = draw(st.sampled_from([0.5, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 2.0]))
    size = draw(st.sampled_from([1.0, -1.0])) * threshold * factor
    if where == "diagonal":
        m[i, i] = m[i, i].real + 0.5j * size
    else:
        if where == "lower":
            i, j = j, i
        m[j, i] = complex(*rng.choice([0.0, -0.0], size=2))
        m[i, j] = size if draw(st.booleans()) else 1j * size
    m.flags.writeable = False
    return m, Tolerance(eps)


class TestHermitianSweep:
    """The one-triangle sweep decides as the full-matrix rule, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(_one_entry_off_hermitian())
    def test_same_answer_as_the_full_matrix_rule(self, planted):
        m, tol = planted
        assert is_hermitian(m, tol) == _full_matrix_rule(m, tol)


def _rand_full_rank_density(rng, d):
    b = _rand_complex(rng, d, d)
    t = b.conj().T @ b + 0.1 * np.eye(d)
    return DensityOperator(t / np.trace(t).real)


class TestEigHermitian:
    """``range_basis``, the one Hermitian eigendecomposition of a state: descending, orthonormal."""

    def test_diagonal(self):
        basis = range_basis(DensityOperator(np.diag([0.25, 0.75])))
        np.testing.assert_allclose(np.abs(np.column_stack(basis)), [[0, 1], [1, 0]], atol=1e-12)

    def test_descending_order_and_orthonormal(self):
        rng = np.random.default_rng(16)
        rho = _rand_full_rank_density(rng, 6)
        vectors = np.column_stack(range_basis(rho))
        values = [np.vdot(v, rho.mat @ v).real for v in vectors.T]
        assert len(values) == 6
        assert all(values[k] >= values[k + 1] for k in range(len(values) - 1))
        np.testing.assert_allclose(vectors.conj().T @ vectors, np.eye(6), atol=1e-10)

    def test_reconstruction(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            rho = _rand_full_rank_density(rng, d)
            basis = range_basis(rho)
            rebuilt = sum(np.vdot(v, rho.mat @ v).real * np.outer(v, v.conj()) for v in basis)
            assert float(np.abs(rebuilt - rho.mat).max()) <= 1e-9

    def test_projector_spectrum(self):
        rng = np.random.default_rng(18)
        x = _rand_complex(rng, 4)
        x /= np.linalg.norm(x)
        basis = range_basis(projector(PureState(x)))
        assert len(basis) == 1
        assert abs(abs(np.vdot(basis[0], x)) - 1.0) <= 1e-12


class TestPositive:
    def test_projector_is_positive(self):
        rng = np.random.default_rng(19)
        x = _rand_complex(rng, 3)
        x /= np.linalg.norm(x)
        assert is_positive(np.outer(x, x.conj()))

    def test_negative_identity_is_not(self):
        assert not is_positive(-np.eye(2))

    def test_gram_matrices_are_positive(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            d = int(rng.integers(2, 7))
            b = _rand_complex(rng, d, d)
            assert is_positive(b.conj().T @ b)

    def test_non_square_is_not_positive(self):
        assert not is_positive(np.ones((2, 3)))


def _eigvalsh_rule(m, tol):
    """``is_positive`` before the Cholesky screen, kept as the reference."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1] or not is_hermitian(m, tol):
        return False
    w = np.linalg.eigvalsh(m)
    return bool(w[0] >= -tol.eps * max(1.0, float(w[-1])))


@st.composite
def _planted_spectra(draw):
    """A Hermitian matrix with its extreme eigenvalues planted at and around the rule's floor."""
    n = draw(st.integers(1, 48))
    eps = draw(st.sampled_from([1e-13, 1e-9, 1e-6, 1e-3]))
    top = draw(st.floats(0.0, 10.0))
    floor = eps * max(1.0, top)
    low = draw(st.sampled_from([0.0, -eps / 4, -eps / 2, -0.9 * floor, -1.1 * floor]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spectrum = [low] if n == 1 else [low, *rng.uniform(max(low, 0.0), top, n - 2), top]
    q, _ = np.linalg.qr(_rand_complex(rng, n, n))
    m = (q * spectrum) @ q.conj().T
    return (m + m.conj().T) / 2, Tolerance(eps)


@st.composite
def _low_rank_spectra(draw):
    """A Hermitian matrix of rank up to the cap, with its lowest eigenvalue planted as above.

    Half the draws of n are at least four times the cap, where the
    low-rank screen runs.
    """
    n = draw(st.integers(16, 96) | st.integers(4 * _LOW_RANK_STEPS, 96))
    r = min(draw(st.integers(1, _LOW_RANK_STEPS)), n - 1)
    eps = draw(st.sampled_from([1e-13, 1e-9, 1e-6, 1e-3]))
    top = draw(st.floats(0.0, 10.0))
    floor = eps * max(1.0, top)
    low = draw(st.sampled_from([0.0, -eps / 4, -eps / 2, -0.9 * floor, -1.1 * floor]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spectrum = np.zeros(n)
    spectrum[0] = low
    spectrum[n - r :] = [*rng.uniform(0.0, top, r - 1), top]
    q, _ = np.linalg.qr(_rand_complex(rng, n, n))
    m = (q * spectrum) @ q.conj().T
    return (m + m.conj().T) / 2, Tolerance(eps)


def _low_rank_density(rng, n, weights):
    q, _ = np.linalg.qr(_rand_complex(rng, n, len(weights)))
    m = (q * weights) @ q.conj().T
    return (m + m.conj().T) / 2


class TestLowRankFactor:
    """``_low_rank_factor``: a bound on the residual of the matrix its lower triangle defines."""

    @settings(max_examples=100, deadline=None)
    @given(_low_rank_spectra())
    def test_beta_bounds_the_residual(self, planted):
        m, tol = planted
        rng = np.random.default_rng(int(m.shape[0]))
        # the factor reads the lower triangle and the real diagonal alone
        m = np.tril(m) + np.triu(_rand_complex(rng, *m.shape), 1) + 1j * np.diag(rng.standard_normal(m.shape[0]))
        factor = _low_rank_factor(m, tol)
        if factor is None:
            return
        l, s, beta = factor
        h = np.tril(m, -1)
        h = h + h.conj().T + np.diag(m.diagonal().real)
        assert float(np.linalg.norm(h - l @ l.conj().T, 2)) <= beta
        assert abs(s - float(np.linalg.norm(l) ** 2)) <= 1e-12 * max(1.0, s)

    @pytest.mark.parametrize("scale", [1e-180, 1e-300])
    def test_beta_holds_where_the_squares_underflow(self, scale):
        m = scale * _low_rank_density(np.random.default_rng(33), 64, [0.4, 0.3, 0.2, 0.1])
        l, _, beta = _low_rank_factor(m, Tolerance(1e-13))
        assert float(np.linalg.norm(m - l @ l.conj().T, 2)) <= beta

    def test_small_or_high_rank_is_declined(self):
        rng = np.random.default_rng(30)
        assert _low_rank_factor(_low_rank_density(rng, 4 * _LOW_RANK_STEPS - 1, [1.0]), TOL) is None
        weights = np.full(_LOW_RANK_STEPS + 1, 1.0 / (_LOW_RANK_STEPS + 1))
        assert _low_rank_factor(_low_rank_density(rng, 64, weights), TOL) is None

    def test_exact_low_rank_is_factored_at_rounding_level(self):
        m = _low_rank_density(np.random.default_rng(31), 64, [0.4, 0.3, 0.2, 0.1])
        l, s, beta = _low_rank_factor(m, TOL)
        assert l.shape == (64, 4)
        assert beta <= 1e3 * 64 * np.finfo(float).eps


class TestPositiveScreen:
    """The low-rank and Cholesky screens accept only what the ``eigvalsh`` rule accepts."""

    @settings(max_examples=400, deadline=None)
    @given(_low_rank_spectra())
    def test_low_rank_same_answer_as_the_eigvalsh_rule(self, planted):
        m, tol = planted
        assert is_positive(m, tol) == _eigvalsh_rule(m, tol)

    def test_low_rank_screen_decides_a_density_alone(self, decompositions):
        m = _low_rank_density(np.random.default_rng(32), 64, [0.4, 0.3, 0.2, 0.1])
        assert is_positive(m, TOL)
        assert decompositions == {}

    @settings(max_examples=400, deadline=None)
    @given(_planted_spectra())
    def test_same_answer_as_the_eigvalsh_rule(self, planted):
        m, tol = planted
        assert is_positive(m, tol) == _eigvalsh_rule(m, tol)

    def test_screen_decides_a_density_alone(self, decompositions):
        assert is_positive(np.eye(48) / 48, Tolerance(1e-9))
        assert decompositions == {"cholesky": 1}

    def test_thin_margin_goes_to_eigvalsh(self, decompositions):
        # the factorization completes, but n^2 u (2 s) = 5e-13 exceeds eps/2 = 5e-14
        assert is_positive(np.eye(48) / 48, Tolerance(1e-13))
        assert decompositions == {"cholesky": 1, "eigvalsh": 1}

    def test_failed_factorization_goes_to_eigvalsh(self, decompositions):
        assert is_positive(np.diag([1.0, -0.9e-9]), Tolerance(1e-9))
        assert not is_positive(np.diag([1.0, -1.1e-9]), Tolerance(1e-9))
        assert decompositions == {"cholesky": 2, "eigvalsh": 2}


class TestFactorPositive:
    """The positive-factorization suite's helper: B* B for positive input, rejection otherwise."""

    def test_diagonal(self):
        b = _factor_positive(np.diag([4.0, 1.0]), TOL)
        np.testing.assert_allclose(b.conj().T @ b, np.diag([4.0, 1.0]), atol=1e-12)

    def test_identity(self):
        b = _factor_positive(np.eye(3), TOL)
        np.testing.assert_allclose(b.conj().T @ b, np.eye(3), atol=1e-12)

    def test_random_positive_reconstructs(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            c = _rand_complex(rng, d, d)
            t = c.conj().T @ c
            b = _factor_positive(t, TOL)
            bound = 1e-8 * max(1.0, float(np.abs(t).max()))
            assert float(np.abs(b.conj().T @ b - t).max()) <= bound

    def test_clamps_roundoff_band_only(self):
        # an eigenvalue of -eps/2 (relative) is clamped, not rejected
        t = np.diag([1.0, -TOL.eps / 2])
        b = _factor_positive(t, TOL)
        np.testing.assert_allclose(b.conj().T @ b, np.diag([1.0, 0.0]), atol=1e-9)

    def test_rejects_genuinely_negative(self):
        with pytest.raises(ValueError, match="positive"):
            _factor_positive(np.diag([1.0, -0.5]), TOL)

    @pytest.mark.parametrize("low", [-2.5, -3.5])
    def test_floor_scales_with_the_largest_eigenvalue(self, low):
        # the floor is -eps * max(1, largest) = -3 eps here, as in is_positive
        t = np.diag([3.0, low * TOL.eps])
        assert is_positive(t) == (low > -3.0)
        if low > -3.0:
            _factor_positive(t, TOL)
        else:
            with pytest.raises(ValueError, match="positive"):
                _factor_positive(t, TOL)

    @pytest.mark.parametrize(
        "t", [np.ones((2, 3)), np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1.0, -0.5])],
        ids=["non-square", "non-hermitian", "non-positive"],
    )
    def test_rejection_message(self, t):
        with pytest.raises(ValueError) as exc:
            _factor_positive(t, TOL)
        assert str(exc.value) == "factor_positive requires a positive operator"


_E1 = PureState(np.array([1.0, 0.0]))
_E2 = PureState(np.array([0.0, 1.0]))
_AB, _A, _CD = PhaseSpace(("a", "b")), PhaseSpace(("a",)), PhaseSpace(("c", "d"))

# name -> (build a two-weight state, message for a bad first weight, what a bad sum names)
_WEIGHTED = {
    "ClassicalState": (
        lambda w0, w1: ClassicalState(_AB, {"a": w0, "b": w1}),
        "probability of 'a' must be finite and >= 0, got {}",
        "probabilities",
    ),
    "CompositeClassicalState": (
        lambda w0, w1: CompositeClassicalState(_A, _CD, {("a", "c"): w0, ("a", "d"): w1}),
        "probability of ('a', 'c') must be finite and >= 0, got {}",
        "probabilities",
    ),
    "ClassicalSeparableCert": (
        lambda w0, w1: ClassicalSeparableCert(
            (
                (w0, classical_pure(_AB, "a"), classical_pure(_CD, "c")),
                (w1, classical_pure(_AB, "b"), classical_pure(_CD, "d")),
            )
        ),
        "certificate weight must be finite and >= 0, got {}",
        "certificate weights",
    ),
    "MixedEnsemble": (
        lambda w0, w1: MixedEnsemble(((w0, _E1), (w1, _E2))),
        "ensemble weight must be finite and >= 0, got {}",
        "ensemble weights",
    ),
    "SeparableDecomposition": (
        lambda w0, w1: SeparableDecomposition(BipartiteDims(2, 2), ((w0, _E1, _E1), (w1, _E2, _E2))),
        "weights must be finite and >= 0, got {}",
        "weights",
    ),
}


class TestCheckWeights:
    @pytest.mark.parametrize("name", list(_WEIGHTED))
    @pytest.mark.parametrize(
        "weights, bad",
        [((-0.5, 1.5), "-0.5"), ((float("nan"), 1.0), "nan"), ((0.5, 0.5 + 2e-9), None)],
        ids=["negative", "nan", "sum-1+2e-9"],
    )
    def test_constructors_keep_their_messages(self, name, weights, bad):
        build, bad_weight, what = _WEIGHTED[name]
        expected = bad_weight.format(bad) if bad else f"{what} must sum to 1, got {sum(weights)!r}"
        with pytest.raises(ValueError) as exc:
            build(*weights)
        assert str(exc.value) == expected

    @pytest.mark.parametrize("name", list(_WEIGHTED))
    def test_sum_within_default_eps_is_accepted(self, name):
        build, _, _ = _WEIGHTED[name]
        build(0.5, 0.5 + 0.5 * DEFAULT_EPS)

    def test_returns_floats_in_order(self):
        assert check_weights([1, np.float64(0.0)], "w", lambda k: "w") == [1.0, 0.0]


class TestValueConstruction:
    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            Tolerance(0.0)
        with pytest.raises(ValueError):
            Tolerance(-1e-9)
        with pytest.raises(ValueError):
            Tolerance(float("nan"))

    def test_vectors_reject_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            as_vector([1.0, float("nan")])
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[1.0, float("inf")], [0.0, 1.0]])

    def test_vectors_reject_empty_and_wrong_rank(self):
        with pytest.raises(ValueError):
            as_vector([])
        with pytest.raises(ValueError):
            as_vector([[1.0, 0.0]])

    def test_values_are_read_only(self):
        v = as_vector([1.0, 2.0])
        with pytest.raises(ValueError):
            v[0] = 5.0
