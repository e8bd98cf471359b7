"""Classical densities: purity, decomposition, products, marginals.

The states the library builds from validated states (a point mass, a
product, a marginal, a certificate) are not checked again; property tests
confirm that they are classical states all the same.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entanglekit.classical import (
    ClassicalSeparableCert,
    ClassicalState,
    CompositeClassicalState,
    PhaseSpace,
    classical_pure,
    classical_tensor,
    classify_classical,
    is_product_composite,
    marginal,
)
from entanglekit.linalg import Tolerance
from entanglekit.separability import Verdict, classify
from entanglekit.verify import _suite_classical_decomposition

AB = PhaseSpace(("a", "b"))
CD = PhaseSpace(("c", "d"))


def _rand_state(rng, space):
    probs = rng.dirichlet(np.ones(len(space)))
    return ClassicalState(space, {lab: float(p) for lab, p in zip(space.labels, probs)})


def _point_masses(f):
    """f split into weighted point masses, as the classical-convex-decomposition suite splits it."""
    return [(p, classical_pure(f.space, x)) for x, p in f.probs.items()]


def _point(sx, sy, x, y):
    return CompositeClassicalState(sx, sy, {(x, y): 1.0})


def _rand_composite(rng, sx, sy):
    probs = rng.dirichlet(np.ones(len(sx) * len(sy)))
    points = [(x, y) for x in sx.labels for y in sy.labels]
    return CompositeClassicalState(sx, sy, {pt: float(p) for pt, p in zip(points, probs)})


class TestPhaseSpace:
    def test_labels_must_be_unique(self):
        with pytest.raises(ValueError, match="unique"):
            PhaseSpace(("a", "a"))

    def test_labels_must_be_nonempty(self):
        with pytest.raises(ValueError):
            PhaseSpace(())
        with pytest.raises(ValueError):
            PhaseSpace(("a", ""))


    def test_lookups_by_label(self):
        space = PhaseSpace(("b", "a", "c"))
        assert [space.index(lab) for lab in ("a", "b", "c")] == [1, 0, 2]
        assert "c" in space and "d" not in space and 1 not in space and ["a"] not in space
        for label in ("d", ["a"]):
            with pytest.raises(ValueError, match=r"^label .* not in phase space \('b', 'a', 'c'\)$"):
                space.index(label)

    def test_the_label_map_is_not_part_of_the_value(self):
        space = PhaseSpace(["a", "b"])
        assert repr(space) == "PhaseSpace(labels=('a', 'b'))"
        assert space == AB and hash(space) == hash(AB)
        assert space != PhaseSpace(("b", "a"))


class TestClassicalState:
    def test_pure_state(self):
        f = classical_pure(AB, "a")
        assert f.probs == {"a": 1.0}
        assert f.is_pure

    def test_singleton_space(self):
        space = PhaseSpace(("a",))
        assert classical_pure(space, "a").probs == {"a": 1.0}

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="not in phase space"):
            classical_pure(AB, "z")

    def test_zero_entries_dropped(self):
        f = ClassicalState(AB, {"a": 1.0, "b": 0.0})
        assert f.support == ("a",)

    def test_bad_normalization_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ClassicalState(AB, {"a": 0.5, "b": 0.4})

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            ClassicalState(AB, {"a": 1.1, "b": -0.1})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown label"):
            ClassicalState(AB, {"a": 1.0, "z": 0.0})


class TestDecomposePure:
    def test_pure_state_is_single_term(self):
        assert _point_masses(classical_pure(AB, "a")) == [(1.0, classical_pure(AB, "a"))]

    def test_two_point_state(self):
        f = ClassicalState(AB, {"a": 0.3, "b": 0.7})
        assert _point_masses(f) == [
            (0.3, classical_pure(AB, "a")),
            (0.7, classical_pure(AB, "b")),
        ]

    def test_recombination_is_exact(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            space = PhaseSpace(tuple(f"x{k}" for k in range(int(rng.integers(2, 7)))))
            f = _rand_state(rng, space)
            recombined = {}
            for w, fx in _point_masses(f):
                assert fx.is_pure
                recombined[fx.support[0]] = recombined.get(fx.support[0], 0.0) + w
            assert recombined == f.probs
        assert _suite_classical_decomposition(rng, 50, Tolerance()) == 50


class TestClassicalTensor:
    def test_pure_tensor_pure_is_composite_pure(self):
        left = classical_tensor(classical_pure(AB, "a"), classical_pure(CD, "c"))
        assert left.probs == _point(AB, CD, "a", "c").probs

    def test_all_pairs_bit_equal(self):
        sx = PhaseSpace(tuple(f"x{k}" for k in range(4)))
        sy = PhaseSpace(tuple(f"y{k}" for k in range(4)))
        for x in sx.labels:
            for y in sy.labels:
                left = classical_tensor(classical_pure(sx, x), classical_pure(sy, y))
                assert left.probs == _point(sx, sy, x, y).probs

    def test_uniform_times_pure(self):
        f = ClassicalState(AB, {"a": 0.5, "b": 0.5})
        h = classical_tensor(f, classical_pure(CD, "c"))
        assert h.probs == {("a", "c"): 0.5, ("b", "c"): 0.5}

    def test_marginals_recover_factors(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            f, g = _rand_state(rng, AB), _rand_state(rng, CD)
            h = classical_tensor(f, g)
            mf, mg = marginal(h, "first"), marginal(h, "second")
            for x in AB.labels:
                assert abs(mf.prob(x) - f.prob(x)) <= 1e-12
            for y in CD.labels:
                assert abs(mg.prob(y) - g.prob(y)) <= 1e-12


class TestMarginal:
    def test_composite_pure_reduces_to_pure(self):
        h = _point(AB, CD, "a", "c")
        assert marginal(h, "second").probs == {"c": 1.0}
        assert marginal(h, "first").probs == {"a": 1.0}

    def test_correlated_state(self):
        h = CompositeClassicalState(AB, CD, {("a", "c"): 0.5, ("b", "d"): 0.5})
        assert marginal(h, "first").probs == {"a": 0.5, "b": 0.5}

    def test_bad_side_rejected(self):
        h = _point(AB, CD, "a", "c")
        with pytest.raises(ValueError, match="side"):
            marginal(h, "third")


class TestClassifyClassical:
    def test_composite_pure_gives_single_product_term(self):
        cert = classify_classical(_point(AB, CD, "a", "c"))
        assert cert.terms == ((1.0, classical_pure(AB, "a"), classical_pure(CD, "c")),)

    def test_correlated_state_is_separable_with_two_terms(self):
        h = CompositeClassicalState(AB, CD, {("a", "c"): 0.5, ("b", "d"): 0.5})
        cert = classify_classical(h)
        assert len(cert.terms) == 2
        assert cert.recombine().probs == h.probs

    def test_every_random_composite_gets_a_certificate(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            sx = PhaseSpace(tuple(f"x{k}" for k in range(int(rng.integers(2, 6)))))
            sy = PhaseSpace(tuple(f"y{k}" for k in range(int(rng.integers(2, 6)))))
            h = _rand_composite(rng, sx, sy)
            cert = classify_classical(h)
            assert len(cert.terms) == len(h.probs)
            # independent recombination
            acc = {}
            for w, fx, gy in cert.terms:
                for x, px in fx.probs.items():
                    for y, py in gy.probs.items():
                        acc[(x, y)] = acc.get((x, y), 0.0) + w * px * py
            assert set(acc) == set(h.probs)
            assert max(abs(acc[pt] - h.probs[pt]) for pt in acc) <= 1e-9

    def test_certificate_rejects_mixed_factors(self):
        f = ClassicalState(AB, {"a": 0.5, "b": 0.5})
        with pytest.raises(ValueError, match="pure"):
            ClassicalSeparableCert(((1.0, f, classical_pure(CD, "c")),))


class TestIsProductComposite:
    def test_recovers_random_product_factors(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            f, g = _rand_state(rng, AB), _rand_state(rng, CD)
            h = classical_tensor(f, g)
            recovered = is_product_composite(h)
            assert recovered is not None
            rf, rg = recovered
            rebuilt = classical_tensor(rf, rg)
            assert max(
                abs(rebuilt.prob(x, y) - h.prob(x, y))
                for x in AB.labels
                for y in CD.labels
            ) <= 1e-9

    def test_correlated_state_is_not_a_product(self):
        h = CompositeClassicalState(AB, CD, {("a", "c"): 0.5, ("b", "d"): 0.5})
        assert is_product_composite(h) is None

    def test_composite_pure_is_a_product_of_pures(self):
        recovered = is_product_composite(_point(AB, CD, "a", "c"))
        assert recovered is not None
        rf, rg = recovered
        assert rf.probs == {"a": 1.0}
        assert rg.probs == {"c": 1.0}


# constructor refusals no other test reaches: (case, build, message)
REFUSALS = [
    ("unknown-x", lambda: CompositeClassicalState(AB, CD, {("z", "c"): 1.0}),
     "probability assigned to unknown point ('z', 'c')"),
    ("unknown-y", lambda: CompositeClassicalState(AB, CD, {("a", "c"): 0.5, ("b", "z"): 0.5}),
     "probability assigned to unknown point ('b', 'z')"),
    ("key-not-a-pair", lambda: CompositeClassicalState(AB, CD, {"ac": 1.0}),
     "probability assigned to unknown point 'ac'"),
    ("key-of-three", lambda: CompositeClassicalState(AB, CD, {("a", "c", "e"): 1.0}),
     "probability assigned to unknown point ('a', 'c', 'e')"),
    ("cert-without-terms", lambda: ClassicalSeparableCert(()),
     "certificate needs at least one term"),
]


@pytest.mark.parametrize("build, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_refusal_names_its_cause(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


class TestBuiltAtTheEdge:
    """States built from states that passed the weight rule are not refused again."""

    def test_tensor_of_edge_states_is_the_products(self):
        # each sum is 1 + 0.9e-9, inside the rule; the product's,
        # 1.0000000018000001, is not, and is kept as computed
        f = ClassicalState(AB, {"a": 0.5, "b": 0.5 + 0.9e-9})
        g = ClassicalState(CD, {"c": 0.5, "d": 0.5 + 0.9e-9})
        h = classical_tensor(f, g)
        expected = [((x, y), px * py) for x, px in f.probs.items() for y, py in g.probs.items()]
        assert list(h.probs.items()) == expected
        assert sum(h.probs.values()) == 1.0000000018000001

    def test_a_product_that_underflows_is_dropped(self):
        f = ClassicalState(AB, {"a": 1e-200, "b": 1.0})
        g = ClassicalState(CD, {"c": 1e-200, "d": 1.0})
        assert classical_tensor(f, g).support == (("a", "d"), ("b", "c"), ("b", "d"))


class TestTrustedBuilds:
    def test_builders_run_no_constructor_check(self, monkeypatch):
        f = ClassicalState(AB, {"a": 0.3, "b": 0.7})
        g = ClassicalState(CD, {"c": 0.6, "d": 0.4})
        h = CompositeClassicalState(AB, CD, {("a", "c"): 0.5, ("a", "d"): 0.2, ("b", "d"): 0.3})

        def refuse(self):
            raise AssertionError(f"{type(self).__name__} was checked again")

        for cls in (ClassicalState, CompositeClassicalState, ClassicalSeparableCert):
            monkeypatch.setattr(cls, "__post_init__", refuse)
        assert classical_tensor(f, g).probs == {("a", "c"): 0.3 * 0.6, ("a", "d"): 0.3 * 0.4,
                                                ("b", "c"): 0.7 * 0.6, ("b", "d"): 0.7 * 0.4}
        assert marginal(h, "first").probs == {"a": 0.5 + 0.2, "b": 0.3}
        assert marginal(h, "second").probs == {"c": 0.5, "d": 0.2 + 0.3}
        assert len(classify_classical(h).terms) == 3
        assert classify(h).verdict is Verdict.CLASSICAL_SEPARABLE


_EDGE = 0.9e-9  # a weight sum this far from 1 still passes the rule


@st.composite
def _weights(draw, n, edge=True):
    """n weights, some zero or tiny enough that their products underflow.

    They sum to 1 up to rounding, or, with ``edge``, to 1 +- 0.9e-9.
    """
    mass = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=n))
    k = n - len(mass)
    tiny = draw(st.lists(st.sampled_from([0.0, 5e-324, 1e-200]), min_size=k, max_size=k))
    weights = [m / sum(mass) for m in mass]
    if edge:
        weights[0] += draw(st.floats(-_EDGE, _EDGE))
    return draw(st.permutations(weights + tiny))


def _space(prefix, n):
    return PhaseSpace(tuple(f"{prefix}{k}" for k in range(n)))


@st.composite
def _states(draw, prefix, edge=True):
    space = _space(prefix, draw(st.integers(1, 5)))
    return ClassicalState(space, dict(zip(space.labels, draw(_weights(len(space), edge)))))


@st.composite
def _composites(draw):
    sx, sy = _space("x", draw(st.integers(1, 4))), _space("y", draw(st.integers(1, 4)))
    points = [(x, y) for x in sx.labels for y in sy.labels]
    return CompositeClassicalState(sx, sy, dict(zip(points, draw(_weights(len(points))))))


def _total(state):
    return sum(state.probs.values())


def _rounding(n):
    """A bound on the relative rounding error of n products and sums of weights."""
    return 2 * (n + 2) * np.finfo(float).eps


def _assert_support_in_order(probs, points):
    """The keys of probs are the points with weight > 0, in the order of ``points``."""
    assert all(p > 0.0 for p in probs.values())
    assert list(probs) == [pt for pt in points if pt in probs]


class TestBuiltStatesAreClassical:
    @settings(max_examples=150, deadline=None)
    @given(f=_states("x"), g=_states("y"))
    def test_tensor(self, f, g):
        h = classical_tensor(f, g)
        points = [(x, y) for x in f.space.labels for y in g.space.labels]
        _assert_support_in_order(h.probs, points)
        assert set(h.probs) <= {(x, y) for x in f.probs for y in g.probs}
        n = len(f.probs) + len(g.probs) + len(h.probs)
        assert abs(_total(h) - _total(f) * _total(g)) <= _rounding(n) * _total(f) * _total(g)
        products = {(x, y): f.prob(x) * g.prob(y) for x, y in points}
        if abs(sum(products.values()) - 1.0) <= Tolerance().eps:  # the constructor accepts them
            checked = CompositeClassicalState(f.space, g.space, products)
            assert list(checked.probs.items()) == list(h.probs.items())

    @settings(max_examples=150, deadline=None)
    @given(h=_composites(), side=st.sampled_from(["first", "second"]))
    def test_marginal(self, h, side):
        m = marginal(h, side)
        k = 0 if side == "first" else 1
        _assert_support_in_order(m.probs, m.space.labels)
        assert m.space == (h.space_x, h.space_y)[k]
        assert set(m.probs) == {pt[k] for pt in h.probs}
        assert abs(_total(m) - _total(h)) <= _rounding(len(h.probs)) * _total(h)
        for lab, p in m.probs.items():
            exact = math.fsum(q for pt, q in h.probs.items() if pt[k] == lab)
            assert abs(p - exact) <= _rounding(len(h.probs)) * exact

    @settings(max_examples=100, deadline=None)
    @given(h=_composites())
    def test_certificate(self, h):
        cert = classify_classical(h)
        assert [p for p, _, _ in cert.terms] == list(h.probs.values())
        assert [(fx.support[0], gy.support[0]) for _, fx, gy in cert.terms] == list(h.probs)
        assert all(fx.probs == {fx.support[0]: 1.0} and gy.is_pure for _, fx, gy in cert.terms)
        assert cert.recombine().probs == h.probs

    @settings(max_examples=150, deadline=None)
    @given(f=_states("x", edge=False), g=_states("y", edge=False))
    def test_marginals_give_back_the_factors(self, f, g):
        h = classical_tensor(f, g)
        for factor, side in ((f, "first"), (g, "second")):
            m = marginal(h, side)
            assert max(abs(m.prob(lab) - factor.prob(lab)) for lab in factor.space.labels) <= 1e-12
