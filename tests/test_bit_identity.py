"""The dispatch-free helpers give the same bits as the numpy calls they replace.

``verify`` repeats a vector Kronecker product, a vector norm, a weight check,
an exact rank and a Schmidt form thousands of times per run.  Each is
computed without numpy's per-call overhead or a copy per vector, and each
property below pins it to the bits, or the words, of the form it replaced.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entanglekit.bipartite import (
    _PHASE_ANCHOR_FLOOR,
    BipartiteDims,
    BipartiteVector,
    coefficient_matrix,
    schmidt,
)
from entanglekit.classical import (
    ClassicalSeparableCert,
    ClassicalState,
    CompositeClassicalState,
    PhaseSpace,
    classical_pure,
)
from entanglekit.linalg import Tolerance, _norm, _outer_flat, count_above
from entanglekit.quantum import MixedEnsemble, PureState
from entanglekit.separability import SeparableDecomposition, product_pure, separable_density
from entanglekit.verify import _exact_rank, rand_complex

_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e150, -1e150, 1.0, -1.0]
_reals = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _vectors(draw, complex_valued=None, max_len=8):
    n = draw(st.integers(1, max_len))
    if complex_valued is None:
        complex_valued = draw(st.booleans())
    re = np.array(draw(st.lists(_reals, min_size=n, max_size=n)))
    if not complex_valued:
        return re
    im = np.array(draw(st.lists(_reals, min_size=n, max_size=n)))
    v = np.empty(n, dtype=complex)
    v.real, v.imag = re, im  # keeps -0.0 in either part, unlike re + 1j * im
    return v


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestOuterFlat:
    @settings(max_examples=200, deadline=None)
    @given(x=_vectors(), y=_vectors())
    def test_equals_np_kron(self, x, y):
        with np.errstate(over="ignore", invalid="ignore"):
            assert _same_array(_outer_flat(x, y), np.kron(x, y))

    @settings(max_examples=100, deadline=None)
    @given(x=_vectors(complex_valued=False), y=_vectors(complex_valued=True))
    def test_real_by_complex_equals_np_kron(self, x, y):
        with np.errstate(over="ignore", invalid="ignore"):
            assert _same_array(_outer_flat(x, y), np.kron(x, y))
            assert _same_array(_outer_flat(y, x), np.kron(y, x))

    def test_length_one_factors(self):
        x, y = np.array([-0.0 + 2j]), np.array([3.0, -0.0])
        assert _same_array(_outer_flat(x, y), np.kron(x, y))
        assert _same_array(_outer_flat(y, x), np.kron(y, x))
        # np.multiply.outer gives 9007199326062756.0 as the real part here,
        # np.kron 9007199326062754.0
        x, y = np.array([94906265.0 + 1j]), np.array([94906267.0 + 1j])
        assert _same_array(_outer_flat(x, y), np.kron(x, y))


class TestNorm:
    @settings(max_examples=200, deadline=None)
    @given(v=_vectors(complex_valued=True, max_len=20))
    def test_equals_np_linalg_norm(self, v):
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.float64(_norm(v)).tobytes() == np.float64(np.linalg.norm(v)).tobytes()


class TestRandComplex:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**63), d=st.integers(1, 12), square=st.booleans())
    def test_equals_two_draws(self, seed, d, square):
        shape = (d, d) if square else (d,)
        rng = np.random.default_rng(seed)
        reference = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert _same_array(rand_complex(np.random.default_rng(seed), *shape), reference)


def _per_vector_schmidt(t: BipartiteVector, tol: Tolerance):
    """Reference: the Schmidt form as it was made with one copy of each vector, phase by phase."""
    u, s, vh = np.linalg.svd(coefficient_matrix(t), full_matrices=False)
    left, right = [], []
    for k in range(s.shape[0]):
        l = u[:, k].copy()
        r = vh[k, :].copy()
        anchors = np.nonzero(np.abs(l) > _PHASE_ANCHOR_FLOOR)[0]
        if anchors.size:
            phase = l[anchors[0]] / abs(l[anchors[0]])
            l *= np.conj(phase)
            r *= phase
        left.append(l)
        right.append(r)
    return s, left, right, int(count_above(s, tol))


@st.composite
def _bipartite_vectors(draw):
    """Nonzero vectors of 1-6 x 1-6 dims: plain; products, whose other Schmidt
    vectors hold entries near 0; with leading zeros, which move the phase
    anchor; or with every entry below the anchor floor."""
    d1, d2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["plain", "product", "leading-zeros", "below-the-floor"]))
    entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1.0, 1.0))

    def vector(n):
        v = np.empty(n, dtype=complex)
        v.real = draw(st.lists(entries, min_size=n, max_size=n))
        v.imag = draw(st.lists(entries, min_size=n, max_size=n))
        return v

    if kind == "product":
        v = _outer_flat(vector(d1), vector(d2))
    else:
        v = vector(d1 * d2)
    if kind == "leading-zeros":
        v[: draw(st.integers(0, d1 * d2 - 1))] = 0.0
    elif kind == "below-the-floor":
        v *= _PHASE_ANCHOR_FLOOR / 2
    assume(_norm(v) > 0.0)
    return BipartiteVector(v, BipartiteDims(d1, d2))


def _fraction_rank(int_matrix) -> int:
    """Reference: Gauss-Jordan elimination over the rationals."""
    a = [[Fraction(int(v)) for v in row] for row in int_matrix]
    rows, cols = len(a), len(a[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [v / a[r][c] for v in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        r += 1
    return r


@st.composite
def _integer_matrices(draw):
    """1-7 x 1-7 integer matrices; some rows are zero, some combine earlier rows."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    m = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["free", "free", "zero", "combination"]))
        if kind == "zero":
            m.append([0] * cols)
        elif kind == "combination" and m:
            i, j = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m) - 1))
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            m.append([a * u + b * v for u, v in zip(m[i], m[j])])
        else:
            m.append(draw(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)))
    return np.array(m, dtype=np.int64)


class TestExactRank:
    @settings(max_examples=300, deadline=None)
    @given(m=_integer_matrices())
    def test_equals_rational_elimination(self, m):
        assert _exact_rank(m) == _fraction_rank(m)

    def test_known_ranks(self):
        assert _exact_rank(np.zeros((3, 4), dtype=int)) == 0
        assert _exact_rank(np.eye(7, dtype=int)) == 7
        assert _exact_rank(np.array([[1, 2, 3], [2, 4, 6], [0, 0, 1]])) == 2


class TestSchmidtFactors:
    @settings(max_examples=500, deadline=None)
    @given(t=_bipartite_vectors(), eps=st.sampled_from([1e-17, 1e-9, 1e-3, 0.5]))
    def test_equals_the_per_vector_loop(self, t, eps):
        tol = Tolerance(eps)
        coeffs, left, right, rank = _per_vector_schmidt(t, tol)
        dec = schmidt(t, tol)
        assert _same_array(dec.coeffs, coeffs) and dec.rank == rank
        assert len(dec.left) == len(left) and len(dec.right) == len(right)
        assert all(map(_same_array, dec.left, left)) and all(map(_same_array, dec.right, right))
        for v in (dec.coeffs, *dec.left, *dec.right):
            assert not v.flags.writeable and v.flags.c_contiguous


def _per_term_product(x: PureState, y: PureState) -> np.ndarray:
    """Reference: ``product_pure``'s matrix as it was made, by its own outer product."""
    t = _outer_flat(x.vec, y.vec)
    return np.outer(t, t.conj())


def _per_term_sum(dec: SeparableDecomposition) -> np.ndarray:
    """Reference: ``separable_density``'s matrix as it was made, by its own loop over the terms."""
    acc = np.zeros((dec.dims.total, dec.dims.total), dtype=complex)
    for p, x, y in dec.terms:
        t = _outer_flat(x.vec, y.vec)
        acc += p * np.outer(t, t.conj())
    return acc


@st.composite
def _unit_states(draw, n):
    """A pure state of dimension n whose entries may hold 0.0 and -0.0 in either part."""
    entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1.0, 1.0))
    v = np.empty(n, dtype=complex)
    v.real = draw(st.lists(entries, min_size=n, max_size=n))
    v.imag = draw(st.lists(entries, min_size=n, max_size=n))
    nrm = _norm(v)
    assume(nrm > 1e-150)
    return PureState(v / nrm)


@st.composite
def _decompositions(draw):
    """A decomposition of 1-8 terms on 1-5 x 1-5 dims, some weights 0.0."""
    d1, d2, n = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 8))
    weight = st.sampled_from([0.0, 0.25, 1.0, 3.0]) | st.floats(0.0, 1.0)
    raw = draw(st.lists(weight, min_size=n, max_size=n))
    assume(sum(raw) > 0.0)
    weights = [w / sum(raw) for w in raw]
    terms = tuple((w, draw(_unit_states(d1)), draw(_unit_states(d2))) for w in weights)
    return SeparableDecomposition(BipartiteDims(d1, d2), terms)


def _same_bits(rho, reference: np.ndarray) -> bool:
    """rho's matrix is read-only and holds reference's bits; -0.0 and 0.0 differ here."""
    m = rho.mat
    return not m.flags.writeable and m.shape == reference.shape and np.array_equal(
        m.view(np.uint64), reference.view(np.uint64)
    )


class TestProductAndSeparableDensities:
    @settings(max_examples=300, deadline=None)
    @given(dec=_decompositions())
    def test_equal_the_per_term_loops(self, dec):
        assert _same_bits(separable_density(dec), _per_term_sum(dec))
        for _, x, y in dec.terms:
            assert _same_bits(product_pure(x, y), _per_term_product(x, y))

    def test_signed_zeros_are_kept(self):
        x, y = PureState(np.array([1.0, -0.0])), PureState(np.array([0.0, -1.0]))
        rho = product_pure(x, y)
        assert _same_bits(rho, _per_term_product(x, y))
        zeros = rho.mat.view(np.float64)[rho.mat.view(np.float64) == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        assert not _same_bits(rho, rho.mat + 0.0)  # -0.0 + 0.0 is 0.0, and the bits tell


_E1 = PureState(np.array([1.0, 0.0]))


def _ensemble(weights):
    return MixedEnsemble(tuple((w, _E1) for w in weights))


def _classical(weights):
    labels = tuple(f"l{k}" for k in range(len(weights)))
    return ClassicalState(PhaseSpace(labels), dict(zip(labels, weights)))


def _composite(weights):
    xs = PhaseSpace(("a",))
    ys = PhaseSpace(tuple(f"y{k}" for k in range(len(weights))))
    return CompositeClassicalState(xs, ys, {("a", y): w for y, w in zip(ys.labels, weights)})


def _cert(weights):
    space = PhaseSpace(("a",))
    return ClassicalSeparableCert(
        tuple((w, classical_pure(space, "a"), classical_pure(space, "a")) for w in weights)
    )


def _decomposition(weights):
    return SeparableDecomposition(BipartiteDims(2, 2), tuple((w, _E1, _E1) for w in weights))


# constructor -> (build from weights, the message for a bad weight at position k)
_WEIGHTED = {
    "ClassicalState": (_classical, lambda k: f"probability of {f'l{k}'!r}"),
    "CompositeClassicalState": (_composite, lambda k: f"probability of ('a', {f'y{k}'!r})"),
    "ClassicalSeparableCert": (_cert, lambda k: "certificate weight"),
    "SeparableDecomposition": (_decomposition, lambda k: "weights"),
    "MixedEnsemble": (_ensemble, lambda k: "ensemble weight"),
}


class TestWeightMessages:
    @pytest.mark.parametrize("constructor", list(_WEIGHTED))
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 6),
        bad=st.sampled_from([-0.5, -1e-300, float("nan"), float("inf"), float("-inf")]),
    )
    def test_bad_weight_keeps_its_message(self, constructor, data, n, bad):
        build, name = _WEIGHTED[constructor]
        k = data.draw(st.integers(0, n - 1))
        weights = [1.0 / n] * n
        weights[k] = bad
        with pytest.raises(ValueError) as exc:
            build(weights)
        assert str(exc.value) == f"{name(k)} must be finite and >= 0, got {bad!r}"


class TestClassicalPure:
    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_equals_the_checked_state(self, size):
        space = PhaseSpace(tuple(f"x{k}" for k in range(size)))
        for label in space.labels:
            built = classical_pure(space, label)
            assert built == ClassicalState(space, {label: 1.0})
            assert built.is_pure and built.support == (label,)

    def test_unknown_label_is_refused(self):
        space = PhaseSpace(("a", "b"))
        with pytest.raises(ValueError) as exc:
            classical_pure(space, "c")
        assert str(exc.value) == "label 'c' not in phase space ('a', 'b')"
