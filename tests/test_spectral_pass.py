"""One spectral pass per state, no validation of built densities, one decomposition per matrix.

The ``_old_*`` functions are the implementations these paths replaced,
kept as the reference: the density classifier, its range report and the
separable mixture must come out the same.  The budget tests count the
``numpy.linalg`` decompositions a call makes (the ``decompositions``
fixture in ``conftest.py``), through the same hooks the benchmark's tracer
uses, so a second pass cannot come back unnoticed.
The densities the library builds from validated states are not checked
again; a property test confirms that they are densities all the same.
A density of rank 1 to ``_LOW_RANK_STEPS``, at D >= 64, may take its range
basis from Rayleigh-Ritz on its pivoted factor instead of ``eigh``: a
different orthonormal basis of the same range, so its report is held to
the range contract, ``_assert_range_contract``, and not to the old bytes.
Each Ritz row's first entry is real and >= 0, as in ``eigh``'s vectors, so
a rank-one density's row is +-``eigh``'s vector, and its verdict and
factors are the old ones up to that sign.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entanglekit.bipartite import BipartiteDims, BipartiteVector, kron_op, kron_vec, partial_trace, schmidt
from entanglekit.classical import ClassicalState, PhaseSpace, classical_tensor, is_product_composite
from entanglekit.linalg import (
    _LOW_RANK_STEPS,
    _UNIT_ROUNDOFF,
    Tolerance,
    _low_rank_factor,
    _outer_flat,
    count_above,
)
from entanglekit.quantum import DensityOperator, MixedEnsemble, PureState, is_density, mix, projector
from entanglekit.separability import (
    Classification,
    RangeReport,
    SeparableDecomposition,
    Verdict,
    _range,
    _ritz,
    check_range_criterion,
    classify,
    product_pure,
    range_basis,
    separable_density,
)
from entanglekit.statefile import (
    classification_to_json,
    dumps_canonical,
    loads_state,
    state_to_json,
)
from entanglekit.verify import _factor_positive

TOL = Tolerance()


def _old_rank(m, tol):
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > tol.eps * max(1.0, float(s[0]))))


def _old_eig_hermitian(m):
    """Eigenvalues in descending order, with their eigenvectors as columns."""
    values, vectors = np.linalg.eigh(m)
    return values[::-1].copy(), vectors[:, ::-1].copy()


def _old_range_basis(rho, tol):
    values, vectors = _old_eig_hermitian(rho.mat)
    cut = tol.eps * max(1.0, float(values[0]))
    return [vectors[:, k].copy() for k in range(values.shape[0]) if values[k] > cut]


def _old_classify_density(rho, dims, tol):
    """The density branch of ``classify``: an SVD for the rank, then eigh twice."""
    if _old_rank(rho.mat, tol) == 1:
        _, vectors = _old_eig_hermitian(rho.mat)
        return classify(BipartiteVector(vectors[:, 0], dims), tol=tol)
    basis = _old_range_basis(rho, tol)
    ranks = tuple(schmidt(BipartiteVector(b, dims), tol).rank for b in basis)
    return Classification(Verdict.UNDETERMINED, RangeReport(tuple(basis), ranks, all(r == 1 for r in ranks)))


def _old_product_pure(x, y, tol):
    t = kron_vec(x.vec, y.vec)
    joint = np.outer(t.vec, t.vec.conj())
    split = kron_op(projector(x).mat, projector(y).mat)
    assert float(np.abs(joint - split).max()) <= tol.eps
    return DensityOperator(joint, tol)


def _old_separable_density(dec, tol):
    acc = np.zeros((dec.dims.total, dec.dims.total), dtype=complex)
    for p, x, y in dec.terms:
        acc += p * _old_product_pure(x, y, tol).mat
    return DensityOperator(acc, tol)


def _old_check_range_criterion(dec, tol):
    """``check_range_criterion`` on ``eigh``'s range basis: the reference its Ritz path must agree with."""
    values, vectors = _old_eig_hermitian(separable_density(dec).mat)
    k = count_above(values, tol)
    basis = vectors[:, :k].T.copy()
    cut = tol.eps * max(1.0, float(values[0])) if k else tol.eps
    terms = [(p, _outer_flat(x.vec, y.vec)) for p, x, y in dec.terms if p > 0.0]
    for p, t in terms:
        outside = t - basis.T @ (basis.conj() @ t)
        if p * float(np.vdot(outside, outside).real) > cut:
            return False
    u, s, _ = np.linalg.svd(np.column_stack([t for _, t in terms]), full_matrices=False)
    span = u[:, : count_above(s, tol)]
    return all(np.linalg.norm(b - span @ (span.conj().T @ b)) <= tol.eps * np.linalg.norm(b) for b in basis)


def _count_factorizations(monkeypatch):
    """Shapes of the matrices ``_low_rank_factor`` is called on, through every entanglekit module holding it."""
    shapes = []

    def counted(m, tol):
        shapes.append(m.shape)
        return _low_rank_factor(m, tol)

    for name, module in list(sys.modules.items()):
        if name == "entanglekit" or name.startswith("entanglekit."):
            for key, value in list(vars(module).items()):
                if value is _low_rank_factor:
                    monkeypatch.setattr(module, key, counted)
    return shapes


def _record_decompositions(monkeypatch):
    """The ``numpy.linalg`` factorizations called from now on, as (name, shape of the matrix) pairs."""
    calls = []
    for name in ("cholesky", "eigh", "eigvalsh", "svd"):
        def recorded(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return calls


def _product_decomposition(rng, d1, d2, k, tol=TOL):
    """k random product terms with Dirichlet weights on a d1 x d2 space."""
    terms = tuple(
        (float(w), PureState(_unit(rng, d1), tol), PureState(_unit(rng, d2), tol))
        for w in rng.dirichlet(np.ones(k))
    )
    return SeparableDecomposition(BipartiteDims(d1, d2), terms)


def _assert_same_up_to_sign(a, b, bound=1e-13):
    sign = 1.0 if np.vdot(b, a).real >= 0 else -1.0
    assert float(np.abs(a - sign * b).max()) <= bound


def _report_bytes(classification):
    return dumps_canonical(classification_to_json(classification))


def _assert_range_contract(rho, dims, tol):
    """``range_basis`` as ``eigh`` would give it, up to the choice of basis.

    The count is ``eigh``'s; the rows are read-only and orthonormal within
    ``32 n u``; they span rho up to the cut, ``||(I - P) rho||_2`` at most
    ``eps * max(1, largest) + 32 n u``; and ``classify`` reports the
    Schmidt ranks of the basis it holds.
    """
    n = rho.dim
    values = np.linalg.eigh(rho.mat)[0][::-1]
    basis = range_basis(rho, tol)
    assert len(basis) == count_above(values, tol)
    assert not any(b.flags.writeable for b in basis)
    bound = 32 * n * _UNIT_ROUNDOFF
    b = np.array(basis).reshape(len(basis), n)
    assert float(np.abs(b.conj() @ b.T - np.eye(len(b))).max(initial=0.0)) <= bound
    outside = rho.mat - b.T @ (b.conj() @ rho.mat)
    assert float(np.linalg.norm(outside, 2)) <= tol.eps * max(1.0, float(values[0])) + bound
    if len(basis) >= 2:
        report = classify(rho, dims, tol).certificate
        held = np.array(report.basis).reshape(len(basis), dims.d1, dims.d2)
        assert list(report.schmidt_ranks) == count_above(np.linalg.svd(held, compute_uv=False), tol).tolist()



def _unit(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _orthonormal_columns(rng, d, k):
    q, _ = np.linalg.qr(rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k)))
    return q


def _density(weights, vectors):
    return DensityOperator(sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vectors)))


def _builder_calls(rng, d1, d2, k):
    """The five density builders on random valid states, as zero-argument calls."""
    dims = BipartiteDims(d1, d2)
    weights = [float(w) for w in rng.dirichlet(np.ones(k))]
    xs = [PureState(_unit(rng, d1)) for _ in range(k)]
    ys = [PureState(_unit(rng, d2)) for _ in range(k)]
    ensemble = MixedEnsemble(tuple(zip(weights, xs)))
    dec = SeparableDecomposition(dims, tuple(zip(weights, xs, ys)))
    joint = PureState(_unit(rng, dims.total))
    joint_rho = projector(joint)
    return {
        "projector": lambda: projector(joint),
        "mix": lambda: mix(ensemble),
        "product_pure": lambda: product_pure(xs[0], ys[0]),
        "separable_density": lambda: separable_density(dec),
        "partial_trace": lambda: partial_trace(joint_rho, dims, "first"),
    }


@st.composite
def _planted(draw):
    """A density whose eigenvectors are n_prod product and n_ent entangled vectors."""
    d1, d2 = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    n_prod = draw(st.integers(1, d1))
    n_ent = draw(st.integers(1, min(4, d1 * d2 - n_prod)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = _orthonormal_columns(rng, d1, n_prod)
    products = [np.kron(xs[:, k], _unit(rng, d2)) for k in range(n_prod)]
    # the entangled eigenvectors: random vectors orthonormalized against the products
    extra = rng.standard_normal((d1 * d2, n_ent)) + 1j * rng.standard_normal((d1 * d2, n_ent))
    full, _ = np.linalg.qr(np.column_stack(products + [extra]))
    vectors = products + [full[:, n_prod + k] for k in range(n_ent)]
    weights = np.arange(1, n_prod + n_ent + 1, dtype=float) + rng.uniform(0, 0.5, n_prod + n_ent)
    return _density(weights / weights.sum(), vectors), BipartiteDims(d1, d2), n_prod


class TestDensityClassify:
    @settings(max_examples=60, deadline=None)
    @given(_planted())
    def test_range_report_ranks_match_one_schmidt_per_vector(self, planted):
        rho, dims, n_prod = planted
        result = classify(rho, dims, TOL)
        report = result.certificate
        assert result.verdict is Verdict.UNDETERMINED
        expected = [schmidt(BipartiteVector(b, dims), TOL).rank for b in report.basis]
        assert list(report.schmidt_ranks) == expected
        assert report.schmidt_ranks.count(1) == n_prod
        assert _report_bytes(result) == _report_bytes(_old_classify_density(rho, dims, TOL))

    @pytest.mark.parametrize("second", [0.0, 0.5 * TOL.eps, 2 * TOL.eps, 0.1])
    @settings(max_examples=15, deadline=None)
    @given(d1=st.integers(2, 5), d2=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_rank_one_branch_as_before(self, second, d1, d2, seed):
        rng = np.random.default_rng(seed)
        dims = BipartiteDims(d1, d2)
        q = _orthonormal_columns(rng, dims.total, 2)
        rho = _density([1.0 - second, second], [q[:, 0], q[:, 1]])
        result = classify(rho, dims, TOL)
        old_pure = _old_rank(rho.mat, TOL) == 1
        assert (result.verdict is not Verdict.UNDETERMINED) == old_pure
        assert old_pure == (second < TOL.eps)
        assert _report_bytes(result) == _report_bytes(_old_classify_density(rho, dims, TOL))

    def test_empty_range_is_refused(self):
        # eps above every eigenvalue: no range vector clears the cut, and a
        # density has rank >= 1, so the tolerance is refused, not read as a verdict
        tol = Tolerance(0.3)
        rho = DensityOperator(np.eye(4) / 4, tol)
        with pytest.raises(ValueError, match=r"^tolerance 0\.3 lies above every eigenvalue"):
            classify(rho, BipartiteDims(2, 2), tol)

    def test_empty_range_of_a_factor_with_no_columns_is_refused(self):
        # at D = 64 the trace is within eps/8 before any pivot: the factor has no
        # columns, and the range is eigh's, empty, as before
        tol = Tolerance(10.0)
        rho = DensityOperator(_density([1.0], [_unit(np.random.default_rng(6), 64)]).mat, tol)
        assert rho._factor[0].shape == (64, 0)
        with pytest.raises(ValueError, match=r"^tolerance 10\.0 lies above every eigenvalue"):
            classify(rho, BipartiteDims(8, 8), tol)


@st.composite
def _low_rank_densities(draw):
    """A density of rank 2 to the cap at D from 16 to 144, perhaps with one more eigenvalue near the cut.

    Most draws have D >= 64, where the Rayleigh-Ritz basis can be taken.
    """
    side = st.integers(4, 12) | st.integers(8, 12)
    dims = BipartiteDims(draw(side), draw(side))
    planted = draw(st.sampled_from([0.0, 0.5 * TOL.eps, 2 * TOL.eps]))
    rank = min(draw(st.integers(2, _LOW_RANK_STEPS)), dims.total - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = _orthonormal_columns(rng, dims.total, rank + 1)
    weights = [*(rng.dirichlet(np.ones(rank)) * (1.0 - planted)), planted]
    return _density(weights, [q[:, k] for k in range(rank + 1)]), dims


class TestRangeBasisContract:
    """A low-rank density's range basis, by Rayleigh-Ritz or by ``eigh``, against ``eigh``'s count."""

    @settings(max_examples=80, deadline=None)
    @given(_low_rank_densities())
    def test_same_count_orthonormal_spanning_rows(self, drawn):
        rho, dims = drawn
        _assert_range_contract(rho, dims, TOL)

    def test_low_rank_basis_is_rayleigh_ritz(self):
        q = _orthonormal_columns(np.random.default_rng(40), 64, 4)
        rho = _density([0.4, 0.3, 0.2, 0.1], [q[:, k] for k in range(4)])
        ritz = _ritz(_low_rank_factor(rho.mat, TOL), TOL)
        assert ritz is not None
        np.testing.assert_array_equal(np.array(range_basis(rho, TOL)), ritz[0])
        _assert_range_contract(rho, BipartiteDims(8, 8), TOL)

    @pytest.mark.parametrize("planted", [0.5 * TOL.eps, 0.9 * TOL.eps])
    def test_an_eigenvalue_below_the_cut_goes_to_eigh(self, planted):
        # the pivoted factor takes the planted direction, whose Ritz value then fails the margin
        q = _orthonormal_columns(np.random.default_rng(41), 64, 4)
        rho = _density([0.5, 0.3, 0.2 - planted, planted], [q[:, k] for k in range(4)])
        assert _ritz(_low_rank_factor(rho.mat, TOL), TOL) is None
        _assert_range_contract(rho, BipartiteDims(8, 8), TOL)

    @settings(max_examples=40, deadline=None)
    @given(
        d1=st.integers(4, 12),
        d2=st.integers(4, 12),
        rank=st.sampled_from([_LOW_RANK_STEPS + 1, _LOW_RANK_STEPS + 4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_past_the_cap_keeps_the_eigh_bytes(self, d1, d2, rank, seed):
        dims = BipartiteDims(d1, d2)
        rank = min(rank, dims.total)
        rng = np.random.default_rng(seed)
        q = _orthonormal_columns(rng, dims.total, rank)
        rho = _density(rng.dirichlet(np.ones(rank)), [q[:, k] for k in range(rank)])
        assert _ritz(_low_rank_factor(rho.mat, TOL), TOL) is None
        assert _report_bytes(classify(rho, dims, TOL)) == _report_bytes(_old_classify_density(rho, dims, TOL))

    @settings(max_examples=40, deadline=None)
    @given(
        d1=st.integers(8, 12),
        d2=st.integers(8, 12),
        product=st.booleans(),
        first=st.sampled_from([1.0, 1e-6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rank_one_row_is_eighs_vector_up_to_sign(self, d1, d2, product, first, seed):
        # first scales an entangled vector's first entry, which must still set the row's
        # phase to eigh's; a product's x would anchor its Schmidt phase on that entry,
        # which the SVD gives only to about u / |x[0]|, on either path
        dims = BipartiteDims(d1, d2)
        rng = np.random.default_rng(seed)
        t = np.kron(_unit(rng, d1), _unit(rng, d2)) if product else _unit(rng, dims.total)
        t[0] *= 1.0 if product else first
        rho = _density([1.0], [t / np.linalg.norm(t)])
        rows = _range(rho, TOL)[0]
        assert rows.shape == (1, dims.total)
        assert rows[0, 0].imag == 0.0 and rows[0, 0].real >= 0.0
        _assert_same_up_to_sign(rows[0], np.linalg.eigh(rho.mat)[1][:, -1])
        new, old = classify(rho, dims, TOL), _old_classify_density(rho, dims, TOL)
        assert new.verdict is old.verdict
        if product:
            # the Schmidt phase anchors x, so only y carries the sign
            assert new.verdict is Verdict.QUANTUM_PRODUCT_PURE
            (x, y), (old_x, old_y) = [(r.certificate.x, r.certificate.y) for r in (new, old)]
            np.testing.assert_allclose(x, old_x, rtol=0, atol=1e-13)
            _assert_same_up_to_sign(y, old_y)
            _assert_same_up_to_sign(np.kron(x, y), np.kron(old_x, old_y))
        else:
            assert new.verdict is Verdict.QUANTUM_ENTANGLED_PURE
            new_dec, old_dec = new.certificate.schmidt, old.certificate.schmidt
            np.testing.assert_allclose(new_dec.coeffs, old_dec.coeffs, rtol=0, atol=1e-13)
            _assert_same_up_to_sign(new_dec.reconstruct().vec, old_dec.reconstruct().vec)

    def test_a_factor_kept_at_one_tolerance_serves_another(self, monkeypatch):
        # validated at 1e-6, the factor stops at the four large eigenvalues, with
        # beta near the planted 1e-8: too thin a margin at 1e-9, where eigh
        # counts five, and ample at 1e-3, where the Ritz rows count four
        q = _orthonormal_columns(np.random.default_rng(42), 64, 5)
        weights = [0.4, 0.3, 0.2, 0.1 - 1e-8, 1e-8]
        mat = sum(w * np.outer(q[:, k], q[:, k].conj()) for k, w in enumerate(weights))
        rho = DensityOperator(mat, Tolerance(1e-6))
        kept = rho._factor
        assert kept[0].shape == (64, 4)
        shapes = _count_factorizations(monkeypatch)
        for eps, count in [(1e-9, 5), (1e-3, 4)]:
            _assert_range_contract(rho, BipartiteDims(8, 8), Tolerance(eps))
            assert len(range_basis(rho, Tolerance(eps))) == count
        assert shapes == [] and rho._factor is kept


class TestSeparableDensity:
    @settings(max_examples=60, deadline=None)
    @given(
        d1=st.integers(2, 5),
        d2=st.integers(2, 5),
        k=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        eps=st.sampled_from([1e-9, 1e-6, 1e-3]),
    )
    def test_same_matrix_as_per_term_projectors(self, d1, d2, k, seed, eps):
        rng = np.random.default_rng(seed)
        tol = Tolerance(eps)
        terms = tuple(
            (float(w), PureState(_unit(rng, d1), tol), PureState(_unit(rng, d2), tol))
            for w in rng.dirichlet(np.ones(k))
        )
        dec = SeparableDecomposition(BipartiteDims(d1, d2), terms)
        np.testing.assert_array_equal(separable_density(dec).mat, _old_separable_density(dec, tol).mat)
        _, x, y = terms[0]
        np.testing.assert_array_equal(product_pure(x, y).mat, _old_product_pure(x, y, tol).mat)


class TestBuiltDensities:
    @settings(max_examples=60, deadline=None)
    @given(
        d1=st.integers(1, 5),
        d2=st.integers(1, 5),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_builders_return_read_only_complex_densities(self, d1, d2, k, seed):
        for name, call in _builder_calls(np.random.default_rng(seed), d1, d2, k).items():
            rho = call()
            assert isinstance(rho, DensityOperator), name
            assert rho.mat.dtype == complex and not rho.mat.flags.writeable, name
            assert is_density(rho.mat, TOL), name


class TestDecompositionBudget:
    def test_parse_and_classify_a_density_is_one_pass_of_each(self, decompositions):
        rng = np.random.default_rng(3)
        q = _orthonormal_columns(rng, 16, 4)
        rho = _density([0.4, 0.3, 0.2, 0.1], [q[:, k] for k in range(4)])
        text = dumps_canonical(state_to_json(rho))
        decompositions.clear()
        result = classify(loads_state(text.encode(), TOL), BipartiteDims(4, 4), TOL)
        assert len(result.certificate.basis) == 4
        assert decompositions == {"cholesky": 1, "eigh": 1, "svd": 1}

    def test_a_low_rank_density_makes_no_full_size_decomposition(self, monkeypatch):
        q = _orthonormal_columns(np.random.default_rng(3), 64, 4)
        rho = _density([0.4, 0.3, 0.2, 0.1], [q[:, k] for k in range(4)])
        text = dumps_canonical(state_to_json(rho))
        calls = _record_decompositions(monkeypatch)
        result = classify(loads_state(text.encode(), TOL), BipartiteDims(8, 8), TOL)
        assert len(result.certificate.basis) == 4
        assert calls == [("eigh", (4, 4)), ("svd", (4, 8, 8))]

    def test_parse_and_classify_factor_a_density_once(self, monkeypatch):
        q = _orthonormal_columns(np.random.default_rng(3), 64, 4)
        rho = _density([0.4, 0.3, 0.2, 0.1], [q[:, k] for k in range(4)])
        text = dumps_canonical(state_to_json(rho))
        shapes = _count_factorizations(monkeypatch)
        result = classify(loads_state(text.encode(), TOL), BipartiteDims(8, 8), TOL)
        assert len(result.certificate.basis) == 4
        assert shapes == [(64, 64)]

    def test_parse_and_classify_a_rank_one_density_makes_no_full_size_eigh(self, monkeypatch):
        t = _unit(np.random.default_rng(4), 64)
        text = dumps_canonical(state_to_json(_density([1.0], [t])))
        shapes = _count_factorizations(monkeypatch)
        calls = _record_decompositions(monkeypatch)
        result = classify(loads_state(text.encode(), TOL), BipartiteDims(8, 8), TOL)
        assert result.verdict is Verdict.QUANTUM_ENTANGLED_PURE
        assert calls == [("eigh", (1, 1)), ("svd", (8, 8))]
        assert shapes == [(64, 64)]

    def test_range_criterion_of_four_terms_makes_no_full_size_decomposition(self, monkeypatch):
        dec = _product_decomposition(np.random.default_rng(5), 8, 8, 4)
        shapes = _count_factorizations(monkeypatch)
        calls = _record_decompositions(monkeypatch)
        assert check_range_criterion(dec, TOL)
        assert calls == [("eigh", (4, 4)), ("svd", (64, 4))]
        assert shapes == [(64, 64)]

    @settings(max_examples=40, deadline=None)
    @given(
        d1=st.integers(8, 12),
        d2=st.integers(8, 12),
        k=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
        eps=st.sampled_from([1e-9, 1e-6, 1e-3]),
    )
    def test_range_criterion_decides_as_on_the_eigh_basis(self, d1, d2, k, seed, eps):
        tol = Tolerance(eps)
        dec = _product_decomposition(np.random.default_rng(seed), d1, d2, k, tol)
        assert check_range_criterion(dec, tol) == _old_check_range_criterion(dec, tol)

    def test_a_non_positive_density_is_judged_by_eigvalsh(self, decompositions):
        mat = np.diag([0.5, 0.5 + 1e-6, -1e-6, 0.0]).astype(complex)
        text = dumps_canonical({"type": "density", "dim": 4, "mat": list(mat)})
        decompositions.clear()
        with pytest.raises(ValueError, match="must be positive"):
            loads_state(text.encode(), TOL)
        assert decompositions == {"cholesky": 1, "eigvalsh": 1}

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_separable_density_makes_no_decomposition(self, decompositions, k):
        rng = np.random.default_rng(k)
        terms = tuple((1.0 / k, PureState(_unit(rng, 3)), PureState(_unit(rng, 2))) for _ in range(k))
        dec = SeparableDecomposition(BipartiteDims(3, 2), terms)
        decompositions.clear()
        separable_density(dec)
        assert decompositions == {}

    @pytest.mark.parametrize("builder", ["projector", "mix", "product_pure", "partial_trace"])
    def test_other_builders_make_no_decomposition(self, decompositions, builder):
        call = _builder_calls(np.random.default_rng(11), 3, 2, 4)[builder]
        decompositions.clear()
        call()
        assert decompositions == {}

    @pytest.mark.parametrize(
        "t, eighs",
        [(np.diag([2.0, 1.0, 0.5]), 1), (np.diag([2.0, 1.0, -0.5]), 1), (np.triu(np.ones((3, 3))), 0)],
        ids=["positive", "non-positive", "non-hermitian"],
    )
    def test_factor_positive_decides_on_one_eigh(self, decompositions, t, eighs):
        try:
            _factor_positive(t, TOL)
        except ValueError:
            pass
        assert decompositions == ({"eigh": eighs} if eighs else {})

    def test_product_recovery_is_one_svd(self, decompositions):
        space = PhaseSpace(("a", "b", "c"))
        f = ClassicalState(space, {"a": 0.2, "b": 0.3, "c": 0.5})
        h = classical_tensor(f, ClassicalState(space, {"a": 0.6, "c": 0.4}))
        decompositions.clear()
        assert is_product_composite(h, TOL) is not None
        assert decompositions == {"svd": 1}
