"""Separable mixtures, the range criterion, and the classifier."""

import numpy as np
import pytest

from entanglekit import quantum, separability
from entanglekit.bipartite import BipartiteDims, BipartiteVector, kron_vec, partial_trace, schmidt
from entanglekit.classical import ClassicalSeparableCert, CompositeClassicalState, PhaseSpace
from entanglekit.linalg import Tolerance, rank
from entanglekit.quantum import DensityOperator, MixedEnsemble, PureState, mix, projector
from entanglekit.separability import (
    EntangledCertificate,
    ProductCertificate,
    RangeReport,
    SeparableCertificate,
    SeparableDecomposition,
    Verdict,
    check_range_criterion,
    classify,
    product_pure,
    range_basis,
    separable_density,
)
from entanglekit.verify import rand_separable_decomposition

D22 = BipartiteDims(2, 2)
E = np.eye(2, dtype=complex)


def _rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rand_pure(rng, d):
    v = _rand_complex(rng, d)
    return PureState(v / np.linalg.norm(v))


def _rand_decomposition(rng, dims, terms):
    weights = rng.dirichlet(np.ones(terms))
    return SeparableDecomposition(
        dims,
        tuple((float(w), _rand_pure(rng, dims.d1), _rand_pure(rng, dims.d2)) for w in weights),
    )


def _bell():
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    return BipartiteVector(vec, D22)


def _row_reduction_rank(m, eps=1e-9):
    """Independent oracle: complex row reduction with partial pivoting."""
    a = np.array(m, dtype=complex)
    rows, cols = a.shape
    scale = max(1.0, float(np.abs(a).max()))
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        piv = r + int(np.argmax(np.abs(a[r:, c])))
        if abs(a[piv, c]) <= eps * scale:
            continue
        a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] / a[r, c]
        for i in range(rows):
            if i != r:
                a[i] = a[i] - a[i, c] * a[r]
        r += 1
    return r


class TestProductPure:
    def test_basis_product(self):
        rho = product_pure(PureState(E[0]), PureState(E[0]))
        np.testing.assert_array_equal(rho.mat, np.diag([1.0, 0, 0, 0]).astype(complex))

    def test_both_construction_paths_agree(self):
        rng = np.random.default_rng(70)
        for _ in range(200):
            d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            x, y = _rand_pure(rng, d1), _rand_pure(rng, d2)
            joint = product_pure(x, y).mat
            split = np.kron(projector(x).mat, projector(y).mat)
            assert float(np.abs(joint - split).max()) <= 1e-10

    def test_partial_trace_recovers_factor(self):
        rng = np.random.default_rng(71)
        x, y = _rand_pure(rng, 3), _rand_pure(rng, 2)
        rho = product_pure(x, y)
        reduced = partial_trace(rho, BipartiteDims(3, 2), "first")
        assert float(np.abs(reduced.mat - projector(x).mat).max()) <= 1e-12


class TestSeparableDensity:
    def test_single_term_is_a_product_state(self):
        rng = np.random.default_rng(72)
        x, y = _rand_pure(rng, 2), _rand_pure(rng, 3)
        dec = SeparableDecomposition(BipartiteDims(2, 3), ((1.0, x, y),))
        np.testing.assert_allclose(
            separable_density(dec).mat, product_pure(x, y).mat, atol=1e-12
        )

    def test_matched_basis_mixture(self):
        dec = SeparableDecomposition(
            D22,
            ((0.5, PureState(E[0]), PureState(E[0])), (0.5, PureState(E[1]), PureState(E[1]))),
        )
        np.testing.assert_allclose(
            separable_density(dec).mat, np.diag([0.5, 0, 0, 0.5]), atol=1e-12
        )

    def test_random_decompositions_are_densities(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            dims = BipartiteDims(int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            dec = _rand_decomposition(rng, dims, int(rng.integers(1, 5)))
            rho = separable_density(dec)
            assert abs(np.trace(rho.mat) - 1.0) <= 1e-9

    def test_rejects_bad_weights(self):
        x, y = PureState(E[0]), PureState(E[0])
        with pytest.raises(ValueError, match="sum to 1"):
            SeparableDecomposition(D22, ((0.7, x, y),))

    def test_rejects_mismatched_dims(self):
        x3 = PureState(np.eye(3, dtype=complex)[0])
        with pytest.raises(ValueError, match="dimensions"):
            SeparableDecomposition(D22, ((1.0, x3, PureState(E[0])),))


class TestRangeBasis:
    def test_projector_range_is_its_vector(self):
        rng = np.random.default_rng(74)
        t = _rand_pure(rng, 4)
        basis = range_basis(projector(t))
        assert len(basis) == 1
        assert abs(abs(np.vdot(basis[0], t.vec)) - 1.0) <= 1e-10

    def test_matched_basis_mixture_spans_its_terms(self):
        rho = DensityOperator(np.diag([0.5, 0, 0, 0.5]).astype(complex))
        basis = range_basis(rho)
        assert len(basis) == 2
        span = np.column_stack(basis)
        for idx in (0, 3):
            target = np.zeros(4, dtype=complex)
            target[idx] = 1.0
            residual = target - span @ (span.conj().T @ target)
            assert float(np.linalg.norm(residual)) <= 1e-10

    def test_full_rank_state(self):
        assert len(range_basis(DensityOperator(np.eye(4) / 4))) == 4

    def test_vectors_are_read_only(self):
        report = classify(DensityOperator(np.eye(4) / 4), D22).certificate
        assert report.basis[0].flags.writeable is False
        for v in (*report.basis, *range_basis(projector(PureState(E[0])))):
            with pytest.raises(ValueError, match="read-only"):
                v[0] = 0.0


class TestRangeCriterion:
    def test_single_term(self):
        rng = np.random.default_rng(75)
        dec = _rand_decomposition(rng, D22, 1)
        assert check_range_criterion(dec)

    def test_parallel_product_vectors_share_one_line(self):
        rng = np.random.default_rng(76)
        x, y = _rand_pure(rng, 2), _rand_pure(rng, 2)
        x2 = PureState(np.exp(0.7j) * x.vec)
        y2 = PureState(np.exp(-1.2j) * y.vec)
        dec = SeparableDecomposition(D22, ((0.4, x, y), (0.6, x2, y2)))
        rho = separable_density(dec)
        assert rank(rho.mat) == 1
        assert check_range_criterion(dec)

    def test_independent_product_vectors_both_in_range(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            dims = BipartiteDims(int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            q, _ = np.linalg.qr(_rand_complex(rng, dims.d1, dims.d1))
            dec = SeparableDecomposition(
                dims,
                (
                    (0.5, PureState(q[:, 0]), _rand_pure(rng, dims.d2)),
                    (0.5, PureState(q[:, 1]), _rand_pure(rng, dims.d2)),
                ),
            )
            rho = separable_density(dec)
            basis = np.column_stack(range_basis(rho))
            for _, x, y in dec.terms:
                v = kron_vec(x.vec, y.vec).vec
                residual = v - basis @ (basis.conj().T @ v)
                assert float(np.linalg.norm(residual)) <= 1e-9
            assert check_range_criterion(dec)

    def test_random_decompositions(self):
        rng = np.random.default_rng(78)
        for _ in range(100):
            dims = BipartiteDims(int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            dec = _rand_decomposition(rng, dims, int(rng.integers(1, 5)))
            assert check_range_criterion(dec)

    @pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-3])
    def test_light_term_leaning_out_of_the_range(self, eps):
        # a term of weight 10 eps along 0.995|00> + 0.1|10> beside |00>: its
        # share outside |00> adds an eigenvalue of about 0.1 eps, under the
        # cut, so the range is one line that the term's vector leaves by 0.1
        tol = Tolerance(eps)
        p, s = 10 * eps, 0.1
        zero = PureState(E[0], tol)
        lean = PureState(np.array([np.sqrt(1 - s * s), s]), tol)
        dec = SeparableDecomposition(D22, ((1 - p, zero, zero), (p, lean, zero)))
        assert len(range_basis(separable_density(dec), tol)) == 1
        assert check_range_criterion(dec, tol)

    @pytest.mark.parametrize("eps, dropped", [(1e-9, 1e-6), (1e-9, 0.5), (1e-3, 0.1)])
    def test_density_missing_a_term_fails(self, monkeypatch, eps, dropped):
        tol = Tolerance(eps)
        zero, one = PureState(E[0]), PureState(E[1])
        dec = SeparableDecomposition(D22, ((1 - dropped, zero, zero), (dropped, one, one)))
        only_first = DensityOperator(np.diag([1.0, 0.0, 0.0, 0.0]), tol)
        monkeypatch.setattr(separability, "separable_density", lambda dec: only_first)
        assert not check_range_criterion(dec, tol)

    @pytest.mark.parametrize("seed", [3, 21, 40])
    def test_an_empty_range_keeps_the_cut_at_eps(self, seed):
        # one product term of weight 1 whose |t|**2 computes as 1 + 4e-16; at
        # eps = 1 no eigenvalue clears eps * max(1, largest), so the range is
        # empty and the cut is eps itself, which the term exceeds.  eigh puts
        # the largest eigenvalue at 1 + 2e-16 (seed 3) or 1 + 4e-16 (21, 40):
        # a cut taken from it would pass the last two
        tol = Tolerance(1.0)
        dec = rand_separable_decomposition(np.random.default_rng(seed), D22, 1)
        assert range_basis(separable_density(dec), tol) == []
        assert not check_range_criterion(dec, tol)

    @pytest.mark.parametrize("eps, rank_", [(1e-9, 3), (1.0, 0)])
    def test_one_eigh_and_one_svd(self, decompositions, eps, rank_):
        tol = Tolerance(eps)
        dec = rand_separable_decomposition(np.random.default_rng(3), D22, 3)
        assert len(range_basis(separable_density(dec), tol)) == rank_
        decompositions.clear()
        check_range_criterion(dec, tol)
        assert decompositions == {"eigh": 1, "svd": 1}


class TestClassify:
    def test_bell_state_is_entangled(self):
        result = classify(_bell())
        assert result.verdict is Verdict.QUANTUM_ENTANGLED_PURE
        assert isinstance(result.certificate, EntangledCertificate)
        np.testing.assert_allclose(
            result.certificate.schmidt.coeffs, [1 / np.sqrt(2)] * 2, atol=1e-12
        )

    def test_product_vector_recovers_factors(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            x, y = _rand_pure(rng, d1), _rand_pure(rng, d2)
            t = kron_vec(x.vec, y.vec)
            result = classify(t)
            assert result.verdict is Verdict.QUANTUM_PRODUCT_PURE
            assert isinstance(result.certificate, ProductCertificate)
            rebuilt = kron_vec(result.certificate.x, result.certificate.y)
            assert abs(abs(np.vdot(rebuilt.vec, t.vec)) - 1.0) <= 1e-9

    def test_pure_dichotomy_matches_rank_oracle(self):
        rng = np.random.default_rng(80)
        for k in range(100):
            d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            if k % 2:
                vec = _rand_complex(rng, d1 * d2)
            else:
                vec = kron_vec(_rand_complex(rng, d1), _rand_complex(rng, d2)).vec
            vec = vec / np.linalg.norm(vec)
            t = BipartiteVector(vec, BipartiteDims(d1, d2))
            result = classify(t)
            assert result.verdict in (
                Verdict.QUANTUM_PRODUCT_PURE,
                Verdict.QUANTUM_ENTANGLED_PURE,
            )
            oracle = _row_reduction_rank(vec.reshape(d1, d2))
            assert (result.verdict is Verdict.QUANTUM_PRODUCT_PURE) == (oracle == 1)

    def test_decomposition_is_separable_by_construction(self):
        rng = np.random.default_rng(81)
        dec = _rand_decomposition(rng, D22, 2)
        result = classify(dec)
        assert result.verdict is Verdict.QUANTUM_SEPARABLE_BY_CONSTRUCTION
        assert isinstance(result.certificate, SeparableCertificate)
        assert result.certificate.range_criterion_passed

    def test_rank_one_density_takes_the_pure_path(self):
        result = classify(projector(PureState(_bell().vec)), dims=D22)
        assert result.verdict is Verdict.QUANTUM_ENTANGLED_PURE

    def test_mixed_density_without_decomposition_is_undetermined(self):
        result = classify(DensityOperator(np.eye(4) / 4), dims=D22)
        assert result.verdict is Verdict.UNDETERMINED
        assert isinstance(result.certificate, RangeReport)
        assert len(result.certificate.basis) == 4

    def test_bell_mixture_reports_non_elementary_range(self):
        plus = _bell().vec
        minus = np.zeros(4, dtype=complex)
        minus[0], minus[3] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        ens = MixedEnsemble(((0.6, PureState(plus)), (0.4, PureState(minus))))
        result = classify(mix(ens), dims=D22)
        assert result.verdict is Verdict.UNDETERMINED
        assert not result.certificate.all_elementary

    def test_density_requires_dims(self):
        with pytest.raises(ValueError, match="dims"):
            classify(DensityOperator(np.eye(4) / 4))

    def test_dims_must_factor_the_state(self):
        with pytest.raises(ValueError, match="factor"):
            classify(DensityOperator(np.eye(4) / 4), dims=BipartiteDims(3, 2))

    def test_non_normalized_pure_vector_rejected(self):
        t = BipartiteVector(np.array([1.0, 0, 0, 1.0]), D22)
        with pytest.raises(ValueError, match="unit norm"):
            classify(t)


class TestClassifyComputedVectors:
    """The unit-norm rule runs on the vector given to classify, never on one it computed."""

    def test_accepted_product_states_classify_as_products(self):
        # eps = 1e-15 is a few units of roundoff: the computed Schmidt factors
        # and range vectors miss unit norm by about as much
        tol = Tolerance(1e-15)
        rng = np.random.default_rng(1515)
        pure_verdicts = (Verdict.QUANTUM_PRODUCT_PURE, Verdict.QUANTUM_ENTANGLED_PURE)
        vectors = densities = 0
        for _ in range(1000):
            d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            dims = BipartiteDims(d1, d2)
            t = kron_vec(_rand_pure(rng, d1).vec, _rand_pure(rng, d2).vec).vec
            try:
                PureState(t, tol)
            except ValueError:
                pass
            else:
                vectors += 1
                result = classify(BipartiteVector(t, dims), tol=tol)
                assert result.verdict is Verdict.QUANTUM_PRODUCT_PURE
            try:
                rho = DensityOperator(np.outer(t, t.conj()), tol)
            except ValueError:
                continue
            densities += 1
            # the range vector comes from eigh, whose error can reach eps, so
            # a product density may read as entangled here; it is never refused
            assert classify(rho, dims, tol).verdict in pure_verdicts
        assert vectors > 900 and densities > 900

    @pytest.mark.parametrize("kind", ["vector", "product density", "mixed density"])
    def test_unit_norm_is_checked_only_on_the_given_vector(self, monkeypatch, kind):
        calls = []
        original = quantum.check_unit_norm

        def counted(v, tol):
            calls.append(v)
            return original(v, tol)

        for module in (quantum, separability):
            monkeypatch.setattr(module, "check_unit_norm", counted)
        t = kron_vec([0.6, 0.8], [0.0, 1.0])
        state = {
            "vector": t,
            "product density": DensityOperator(np.outer(t.vec, t.vec.conj())),
            "mixed density": DensityOperator(np.eye(4) / 4),
        }[kind]
        classify(state, D22)
        assert len(calls) == (1 if kind == "vector" else 0)

    def test_product_factors_are_the_schmidt_vectors(self):
        result = classify(kron_vec([0.6, 0.8], [0.0, 1.0]))
        cert = result.certificate
        assert cert.x is cert.schmidt.left[0] and cert.y is cert.schmidt.right[0]


class TestClassifyClassical:
    def test_verdict_follows_the_support_and_the_certificate_recombines(self):
        rng = np.random.default_rng(1516)
        for _ in range(200):
            space_x = PhaseSpace(tuple(f"x{i}" for i in range(int(rng.integers(1, 4)))))
            space_y = PhaseSpace(tuple(f"y{j}" for j in range(int(rng.integers(1, 4)))))
            points = [(x, y) for x in space_x.labels for y in space_y.labels]
            size = int(rng.integers(1, len(points) + 1))
            support = rng.choice(len(points), size=size, replace=False)
            weights = rng.dirichlet(np.ones(size))
            h = CompositeClassicalState(
                space_x, space_y, {points[k]: float(w) for k, w in zip(support, weights)}
            )
            result = classify(h, h.dims)
            one_point = len(h.support) == 1
            assert (result.verdict is Verdict.CLASSICAL_PURE) == one_point
            assert result.verdict in (Verdict.CLASSICAL_PURE, Verdict.CLASSICAL_SEPARABLE)
            assert isinstance(result.certificate, ClassicalSeparableCert)
            assert result.certificate.recombine() == h

    def test_dims_are_the_phase_space_sizes(self):
        space_x, space_y = PhaseSpace(("a", "b", "c")), PhaseSpace(("d",))
        h = CompositeClassicalState(space_x, space_y, {("a", "d"): 1.0})
        assert h.dims == BipartiteDims(3, 1)
        with pytest.raises(ValueError, match="dims 1x3 disagree with the state's dims 3x1"):
            classify(h, BipartiteDims(1, 3))


class TestEntangledCertificate:
    def test_recheckable_from_certificate_alone(self):
        rng = np.random.default_rng(82)
        for _ in range(25):
            d = int(rng.integers(2, 4))
            dims = BipartiteDims(d, d)
            q1, _ = np.linalg.qr(_rand_complex(rng, d, d))
            q2, _ = np.linalg.qr(_rand_complex(rng, d, d))
            vec = 0.8 * kron_vec(q1[:, 0], q2[:, 0]).vec + 0.6 * kron_vec(q1[:, 1], q2[:, 1]).vec
            result = classify(BipartiteVector(vec, dims))
            assert result.verdict is Verdict.QUANTUM_ENTANGLED_PURE
            dec = result.certificate.schmidt
            # the projector's range is one line, spanned by a tensor of rank >= 2
            rebuilt = dec.reconstruct()
            basis = range_basis(projector(PureState(rebuilt.vec)))
            assert len(basis) == 1
            assert schmidt(BipartiteVector(basis[0], dims)).rank >= 2

    def test_reduction_spectra_are_squared_coefficients(self):
        rng = np.random.default_rng(83)
        for _ in range(25):
            d = int(rng.integers(2, 4))
            dims = BipartiteDims(d, d)
            q1, _ = np.linalg.qr(_rand_complex(rng, d, d))
            q2, _ = np.linalg.qr(_rand_complex(rng, d, d))
            vec = 0.8 * kron_vec(q1[:, 0], q2[:, 0]).vec + 0.6 * kron_vec(q1[:, 1], q2[:, 1]).vec
            t = BipartiteVector(vec, dims)
            coeffs = schmidt(t).coeffs
            rho = projector(PureState(vec))
            for keep in ("first", "second"):
                reduced = partial_trace(rho, dims, keep)
                spectrum = np.linalg.eigvalsh(reduced.mat)[::-1][:2]
                np.testing.assert_allclose(spectrum, np.sort(coeffs**2)[::-1][:2], atol=1e-9)


_X0, _X1 = PureState(E[0]), PureState(E[1])

# refusals no other test reaches: (case, build, message)
REFUSALS = [
    ("decomposition-without-terms", lambda: SeparableDecomposition(D22, ()),
     "decomposition needs at least one term"),
    ("classify-decomposition-at-other-dims",
     lambda: classify(SeparableDecomposition(D22, ((1.0, _X0, _X1),)), dims=BipartiteDims(1, 4)),
     "dims 1x4 disagree with the state's dims 2x2"),
    ("classify-vector-at-other-dims",
     lambda: classify(BipartiteVector(E[0], BipartiteDims(1, 2)), dims=BipartiteDims(2, 1)),
     "dims 2x1 disagree with the state's dims 1x2"),
]


@pytest.mark.parametrize("build, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_refusal_names_its_cause(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
