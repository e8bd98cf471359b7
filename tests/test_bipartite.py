"""Tensor products, Schmidt analysis, and partial traces."""

import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entanglekit import linalg
from entanglekit.bipartite import (
    BipartiteDims,
    BipartiteVector,
    SchmidtDecomposition,
    coefficient_matrix,
    kron_op,
    kron_vec,
    partial_trace,
    schmidt,
)
from entanglekit.classical import (
    CompositeClassicalState,
    PhaseSpace,
    classify_classical,
    is_product_composite,
)
from entanglekit.errors import ZeroVectorError
from entanglekit.linalg import rank
from entanglekit.quantum import DensityOperator, PureState, projector

D22 = BipartiteDims(2, 2)


def _rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rand_unit(rng, d):
    v = _rand_complex(rng, d)
    return v / np.linalg.norm(v)


def _bell():
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    return BipartiteVector(vec, D22)


_coords = st.floats(min_value=-5, max_value=5, allow_nan=False, allow_infinity=False)


@st.composite
def _tensor_inputs(draw):
    d1 = draw(st.integers(min_value=1, max_value=4))
    d2 = draw(st.integers(min_value=1, max_value=4))
    def vec(d):
        re = draw(st.lists(_coords, min_size=d, max_size=d))
        im = draw(st.lists(_coords, min_size=d, max_size=d))
        return np.array(re) + 1j * np.array(im)
    alpha = complex(draw(_coords), draw(_coords))
    return vec(d1), vec(d1), vec(d2), vec(d2), alpha


class TestKronVec:
    def test_basis_tensor_lands_on_the_flat_index(self):
        t = kron_vec([1, 0], [0, 1])
        np.testing.assert_array_equal(t.vec, [0, 1, 0, 0])
        assert t.dims == D22

    def test_index_convention_first_factor_slow(self):
        x, y = np.array([1.0, 2.0]), np.array([10.0, 20.0, 30.0])
        t = kron_vec(x, y)
        for i in range(2):
            for j in range(3):
                assert t.vec[i * 3 + j] == x[i] * y[j]

    @settings(max_examples=150, deadline=None)
    @given(_tensor_inputs())
    def test_bilinearity_identities(self, inputs):
        x1, x2, y1, y2, alpha = inputs
        additive = kron_vec(x1 + x2, y1).vec - kron_vec(x1, y1).vec - kron_vec(x2, y1).vec
        assert float(np.abs(additive).max()) <= 1e-9
        additive_right = kron_vec(x1, y1 + y2).vec - kron_vec(x1, y1).vec - kron_vec(x1, y2).vec
        assert float(np.abs(additive_right).max()) <= 1e-9
        scaled = kron_vec(alpha * x1, y1).vec
        assert float(np.abs(scaled - alpha * kron_vec(x1, y1).vec).max()) <= 1e-9
        assert float(np.abs(scaled - kron_vec(x1, alpha * y1).vec).max()) <= 1e-9

    def test_null_vector_identity(self):
        y = np.array([1.0, 2.0, 3.0])
        assert float(np.abs(kron_vec(np.zeros(2), y).vec).max()) == 0.0
        assert float(np.abs(kron_vec(y, np.zeros(2)).vec).max()) == 0.0


class TestKronOp:
    def test_identity(self):
        np.testing.assert_array_equal(kron_op(np.eye(2), np.eye(3)), np.eye(6))

    def test_acts_factorwise_on_elementary_tensors(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            a, b = _rand_complex(rng, d1, d1), _rand_complex(rng, d2, d2)
            x, y = _rand_complex(rng, d1), _rand_complex(rng, d2)
            lhs = kron_op(a, b) @ kron_vec(x, y).vec
            rhs = kron_vec(a @ x, b @ y).vec
            assert float(np.abs(lhs - rhs).max()) <= 1e-9 * max(1.0, float(np.abs(rhs).max()))

    def test_trace_multiplies(self):
        rng = np.random.default_rng(51)
        a, b = _rand_complex(rng, 3, 3), _rand_complex(rng, 4, 4)
        assert abs(np.trace(kron_op(a, b)) - np.trace(a) * np.trace(b)) <= 1e-9

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            kron_op(np.ones((2, 3)), np.eye(2))


class TestInnerBipartite:
    """The inner product of flat tensors factorizes over the factors."""

    def test_normalized_elementary_tensor(self):
        t = kron_vec([1, 0], [1, 0])
        assert np.vdot(t.vec, t.vec) == 1

    def test_orthogonal_first_factors(self):
        s = kron_vec([1, 0], [1, 0])
        t = kron_vec([0, 1], [1, 0])
        assert np.vdot(s.vec, t.vec) == 0

    def test_factorizes_on_elementary_tensors(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            u1, u2 = _rand_complex(rng, d1), _rand_complex(rng, d2)
            v1, v2 = _rand_complex(rng, d1), _rand_complex(rng, d2)
            lhs = np.vdot(kron_vec(u1, u2).vec, kron_vec(v1, v2).vec)
            rhs = complex(np.vdot(u1, v1)) * complex(np.vdot(u2, v2))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


class TestCoefficientMatrix:
    def test_elementary_tensor_gives_outer_product(self):
        rng = np.random.default_rng(53)
        x, y = _rand_complex(rng, 3), _rand_complex(rng, 4)
        np.testing.assert_allclose(coefficient_matrix(kron_vec(x, y)), np.outer(x, y), atol=1e-12)

    def test_diagonal_for_the_matched_basis_sum(self):
        np.testing.assert_allclose(
            coefficient_matrix(_bell()), np.eye(2) / np.sqrt(2), atol=1e-12
        )

    def test_zero_vector_gives_zero_matrix(self):
        t = BipartiteVector(np.zeros(6), BipartiteDims(2, 3))
        assert float(np.abs(coefficient_matrix(t)).max()) == 0.0

    def test_reconstruction_from_entries(self):
        rng = np.random.default_rng(54)
        t = BipartiteVector(_rand_complex(rng, 12), BipartiteDims(3, 4))
        m = coefficient_matrix(t)
        rebuilt = np.zeros(12, dtype=complex)
        for i in range(3):
            for j in range(4):
                basis = kron_vec(np.eye(3)[i], np.eye(4)[j]).vec
                rebuilt += m[i, j] * basis
        np.testing.assert_array_equal(rebuilt, t.vec)


class TestSchmidt:
    def test_elementary_tensor_is_rank_one(self):
        rng = np.random.default_rng(55)
        t = kron_vec(_rand_unit(rng, 3), _rand_unit(rng, 2))
        dec = schmidt(t)
        assert dec.rank == 1
        np.testing.assert_allclose(dec.coeffs[0], 1.0, atol=1e-12)

    def test_bell_coefficients(self):
        dec = schmidt(_bell())
        assert dec.rank == 2
        np.testing.assert_allclose(dec.coeffs, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_independent_pairs_have_rank_two(self):
        rng = np.random.default_rng(56)
        for _ in range(100):
            d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            u1, u2 = np.eye(d1)[0], np.eye(d1)[1]
            v1, v2 = _rand_unit(rng, d2), _rand_unit(rng, d2)
            while abs(np.vdot(v1, v2)) > 0.9:
                v2 = _rand_unit(rng, d2)
            t = BipartiteVector(
                kron_vec(u1, v1).vec + kron_vec(u2, v2).vec, BipartiteDims(d1, d2)
            )
            dec = schmidt(t)
            assert dec.rank == 2
            assert rank(coefficient_matrix(t)) == 2

    def test_dependent_pairs_reduce_to_elementary(self):
        rng = np.random.default_rng(57)
        for _ in range(100):
            d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            x = _rand_complex(rng, d1)
            alpha, beta = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
            y1, y2 = _rand_complex(rng, d2), _rand_complex(rng, d2)
            t = BipartiteVector(
                kron_vec(alpha * x, y1).vec + kron_vec(beta * x, y2).vec,
                BipartiteDims(d1, d2),
            )
            if t.norm < 0.1:
                continue
            assert schmidt(t).rank == 1

    def test_reconstruction_and_norm_identity(self):
        rng = np.random.default_rng(58)
        for _ in range(50):
            d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            t = BipartiteVector(_rand_complex(rng, d1 * d2), BipartiteDims(d1, d2))
            dec = schmidt(t)
            assert float(np.linalg.norm(dec.reconstruct().vec - t.vec)) <= 1e-9
            assert abs(float(np.sum(dec.coeffs**2)) - t.norm**2) <= 1e-9

    def test_factors_are_orthonormal(self):
        rng = np.random.default_rng(59)
        t = BipartiteVector(_rand_complex(rng, 9), BipartiteDims(3, 3))
        dec = schmidt(t)
        for vs in (dec.left, dec.right):
            gram = np.array([[np.vdot(a, b) for b in vs] for a in vs])
            np.testing.assert_allclose(gram, np.eye(len(vs)), atol=1e-10)

    def test_phase_convention_anchors_left_vectors(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            t = BipartiteVector(_rand_complex(rng, 6), BipartiteDims(2, 3))
            dec = schmidt(t)
            for l in dec.left:
                anchor = l[np.abs(l) > 1e-12][0]
                assert abs(anchor.imag) <= 1e-12
                assert anchor.real > 0

    def test_zero_vector_rejected(self):
        t = BipartiteVector(np.zeros(4), D22)
        with pytest.raises(ZeroVectorError):
            schmidt(t)

    def test_arrays_are_read_only(self):
        t = BipartiteVector(_rand_complex(np.random.default_rng(61), 6), BipartiteDims(2, 3))
        dec = schmidt(t)
        for arr in (dec.coeffs, *dec.left, *dec.right):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


class TestPartialTrace:
    def test_product_state_reduces_to_factors(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            x, y = PureState(_rand_unit(rng, d1)), PureState(_rand_unit(rng, d2))
            rho = DensityOperator(np.kron(projector(x).mat, projector(y).mat))
            dims = BipartiteDims(d1, d2)
            first = partial_trace(rho, dims, "first")
            second = partial_trace(rho, dims, "second")
            assert float(np.abs(first.mat - projector(x).mat).max()) <= 1e-12
            assert float(np.abs(second.mat - projector(y).mat).max()) <= 1e-12

    def test_bell_reduces_to_maximally_mixed(self):
        rho = projector(PureState(_bell().vec))
        for keep in ("first", "second"):
            reduced = partial_trace(rho, D22, keep)
            np.testing.assert_allclose(reduced.mat, np.eye(2) / 2, atol=1e-10)
            assert rank(reduced.mat) == 2

    def test_maximally_mixed_factorizes(self):
        rho = DensityOperator(np.eye(4) / 4)
        np.testing.assert_allclose(
            partial_trace(rho, D22, "second").mat, np.eye(2) / 2, atol=1e-12
        )

    def test_trace_is_preserved(self):
        rng = np.random.default_rng(62)
        for _ in range(50):
            d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            k = d1 * d2
            b = _rand_complex(rng, k, k)
            g = b.conj().T @ b
            rho = DensityOperator(g / np.trace(g))
            reduced = partial_trace(rho, BipartiteDims(d1, d2), "first")
            assert abs(np.trace(reduced.mat) - 1.0) <= 1e-9

    def test_purity_tracks_schmidt_rank(self):
        rng = np.random.default_rng(63)
        for _ in range(30):
            d = int(rng.integers(2, 4))
            dims = BipartiteDims(d, d)
            # elementary: reductions stay pure
            t = kron_vec(_rand_unit(rng, d), _rand_unit(rng, d))
            rho = projector(PureState(t.vec))
            assert rank(partial_trace(rho, dims, "first").mat) == 1
            # two independent terms: reductions are mixed
            q1, _ = np.linalg.qr(_rand_complex(rng, d, d))
            q2, _ = np.linalg.qr(_rand_complex(rng, d, d))
            vec = 0.8 * kron_vec(q1[:, 0], q2[:, 0]).vec + 0.6 * kron_vec(q1[:, 1], q2[:, 1]).vec
            rho = projector(PureState(vec))
            assert rank(partial_trace(rho, dims, "first").mat) == 2

    def test_rejects_incompatible_dims(self):
        rho = DensityOperator(np.eye(4) / 4)
        with pytest.raises(ValueError, match="factor"):
            partial_trace(rho, BipartiteDims(3, 2), "first")

    def test_rejects_unknown_side(self):
        rho = DensityOperator(np.eye(4) / 4)
        with pytest.raises(ValueError, match="keep"):
            partial_trace(rho, D22, "both")


class TestBipartiteVector:
    def test_length_must_match_dims(self):
        with pytest.raises(ValueError, match="state dimension 5 does not factor as 2x2"):
            BipartiteVector(np.zeros(5), D22)

    def test_zero_vector_is_a_legal_value(self):
        assert BipartiteVector(np.zeros(4), D22).norm == 0.0


class TestTrustedResults:
    """kron_vec checks its two factors; what the library builds from checked values is trusted."""

    def test_calls_to_the_weight_and_vector_checks(self, monkeypatch):
        x, y = np.array([0.6, 0.8j]), np.array([1.0, 0.0, 1j]) / np.sqrt(2)
        dec = schmidt(_bell())
        probs = {("a", "c"): 0.2, ("a", "d"): 0.3, ("b", "c"): 0.2, ("b", "d"): 0.3}
        h = CompositeClassicalState(PhaseSpace(("a", "b")), PhaseSpace(("c", "d")), probs)
        cert = classify_classical(h)
        calls = []
        for name in ("check_weights", "as_vector"):
            original = getattr(linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            for mod_name, module in list(sys.modules.items()):
                if mod_name.startswith("entanglekit") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)

        kron_vec(x, y)
        assert calls == ["as_vector", "as_vector"]
        calls.clear()
        dec.reconstruct()
        assert is_product_composite(h) is not None
        cert.recombine()
        assert calls == []

    def test_a_product_that_overflows_is_refused(self):
        # refused with no RuntimeWarning, which -W error would raise in the ValueError's place
        for x, y in [([1e200, 1.0], [1e200]), ([1e200 + 1e200j], [1e200 - 1e200j])]:
            with warnings.catch_warnings(), pytest.raises(ValueError) as info:
                warnings.simplefilter("error")
                kron_vec(x, y)
            assert str(info.value) == "vector entries must be finite"

    def test_a_reconstruction_that_overflows_is_refused(self):
        big = np.array([1e200 + 1e200j, 0.0])
        dec = SchmidtDecomposition(np.array([1e200, 1e200]), (big, big[::-1]), (big, big[::-1]), 2, D22)
        with warnings.catch_warnings(), pytest.raises(ValueError) as info:
            warnings.simplefilter("error")
            dec.reconstruct()
        assert str(info.value) == "vector entries must be finite"

    def test_reconstruction_is_read_only(self):
        vec = schmidt(_bell()).reconstruct().vec
        assert not vec.flags.writeable
        with pytest.raises(ValueError):
            vec[0] = 0.0


# constructor refusals no other test reaches: (case, build, message)
REFUSALS = [
    ("nan-entry", lambda: BipartiteVector(np.array([1.0, np.nan, 0.0, 0.0]), D22),
     "vector entries must be finite"),
    ("inf-entry", lambda: BipartiteVector(np.array([1.0, 0.0, 0.0, 1j * np.inf]), D22),
     "vector entries must be finite"),
]


@pytest.mark.parametrize("build, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_refusal_names_its_cause(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
