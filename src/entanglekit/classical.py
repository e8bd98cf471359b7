"""Classical states as finite-support probability densities.

A phase space is a finite set of labels; a state assigns each label a
probability.  Zero-probability labels are dropped on construction, so the
stored keys are exactly the support.  Composite systems live on the
cartesian product of two label sets, and every operation here is exact
rational-style arithmetic on doubles: no renormalization ever happens
behind the caller's back.

States are validated when read, trusted when built: ``classical_pure``,
``classical_tensor``, ``marginal``, ``classify_classical``,
``is_product_composite`` and ``ClassicalSeparableCert.recombine`` make
their results from validated states with ``_built``, unchecked.  A result
of a state at the edge of the weight rule is kept as computed, and may
miss the rule when read back, as a partial trace may miss the tolerance.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Optional

import numpy as np

from .bipartite import BipartiteDims, Side
from .linalg import Tolerance, _built, _convex, check_weights, count_above


@dataclass(frozen=True)
class PhaseSpace:
    """Ordered, finite set of distinct configuration labels."""

    labels: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)  # label -> position

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("phase space needs at least one label")
        if any(not isinstance(lab, str) or not lab for lab in labels):
            raise ValueError("phase space labels must be non-empty strings")
        index = {lab: k for k, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise ValueError("phase space labels must be unique")
        object.__setattr__(self, "_index", index)

    def __contains__(self, label) -> bool:
        return isinstance(label, str) and label in self._index

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        if label not in self:
            raise ValueError(f"label {label!r} not in phase space {self.labels}")
        return self._index[label]


def _on_support(probs: dict, points, kind: str, tol: Tolerance) -> dict:
    """Check ``probs`` as weights on ``points``, in their order, at ``tol``, and keep the support."""
    weights = dict.fromkeys(points, 0.0)
    for key in probs:
        if key not in weights:
            raise ValueError(f"probability assigned to unknown {kind} {key!r}")
        weights[key] = probs[key]
    checked = check_weights(
        weights.values(), "probabilities", lambda k: f"probability of {points[k]!r}", tol
    )
    return {pt: p for pt, p in zip(weights, checked) if p > 0.0}


@dataclass(frozen=True)
class ClassicalState:
    """Probability density with finite support on a phase space."""

    space: PhaseSpace
    probs: dict[str, float]
    tol: InitVar[Tolerance] = Tolerance()

    def __post_init__(self, tol):
        object.__setattr__(self, "probs", _on_support(self.probs, self.space.labels, "label", tol))

    def prob(self, label: str) -> float:
        self.space.index(label)
        return self.probs.get(label, 0.0)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(self.probs)

    @property
    def is_pure(self) -> bool:
        return len(self.probs) == 1


@dataclass(frozen=True)
class CompositeClassicalState:
    """Probability density on the cartesian product of two phase spaces."""

    space_x: PhaseSpace
    space_y: PhaseSpace
    probs: dict[tuple[str, str], float]
    tol: InitVar[Tolerance] = Tolerance()

    def __post_init__(self, tol):
        points = [(x, y) for x in self.space_x.labels for y in self.space_y.labels]
        object.__setattr__(self, "probs", _on_support(self.probs, points, "point", tol))

    def prob(self, x: str, y: str) -> float:
        self.space_x.index(x)
        self.space_y.index(y)
        return self.probs.get((x, y), 0.0)

    @property
    def support(self) -> tuple[tuple[str, str], ...]:
        return tuple(self.probs)

    @property
    def dims(self) -> BipartiteDims:
        return BipartiteDims(len(self.space_x), len(self.space_y))

    @property
    def is_pure(self) -> bool:
        return len(self.probs) == 1

    def probability_matrix(self) -> np.ndarray:
        """Joint probabilities as a (len X) x (len Y) real matrix."""
        m = np.zeros((len(self.space_x), len(self.space_y)))
        for (x, y), p in self.probs.items():
            m[self.space_x.index(x), self.space_y.index(y)] = p
        return m


@dataclass(frozen=True)
class ClassicalSeparableCert:
    """Convex decomposition of a composite state into products of pure states."""

    terms: tuple[tuple[float, ClassicalState, ClassicalState], ...]

    def __post_init__(self):
        terms = _convex(self.terms, "certificate", "certificate weights", "certificate weight")
        object.__setattr__(self, "terms", terms)
        for _, fx, gy in terms:
            if not (fx.is_pure and gy.is_pure):
                raise ValueError("certificate factors must be pure states")
            if (fx.space, gy.space) != (terms[0][1].space, terms[0][2].space):
                raise ValueError("certificate factors must lie on the first term's phase spaces")

    def recombine(self) -> CompositeClassicalState:
        """Evaluate the convex sum of product terms back into a composite state, in space order."""
        _, fx0, gy0 = self.terms[0]
        sums = dict.fromkeys(((x, y) for x in fx0.space.labels for y in gy0.space.labels), 0.0)
        for p, fx, gy in self.terms:
            for x, px in fx.probs.items():
                for y, py in gy.probs.items():
                    sums[(x, y)] += p * px * py
        probs = {pt: p for pt, p in sums.items() if p > 0.0}
        return _built(CompositeClassicalState, space_x=fx0.space, space_y=gy0.space, probs=probs)


def classical_pure(space: PhaseSpace, label: str) -> ClassicalState:
    """The state assigning total probability to a label of ``space``; a weight of 1.0 needs no check."""
    label = space.labels[space.index(label)]
    return _built(ClassicalState, space=space, probs={label: 1.0})


def classical_tensor(f: ClassicalState, g: ClassicalState) -> CompositeClassicalState:
    """Product density: (f (x) g)(x, y) = f(x) * g(y), on its support (an underflow to 0.0 is dropped)."""
    products = (((x, y), px * py) for x, px in f.probs.items() for y, py in g.probs.items())
    probs = {pt: p for pt, p in products if p > 0.0}
    return _built(CompositeClassicalState, space_x=f.space, space_y=g.space, probs=probs)


def marginal(h: CompositeClassicalState, side: Side) -> ClassicalState:
    """Sum out the discarded coordinate, keeping ``side``; the labels come in space order."""
    if side not in ("first", "second"):
        raise ValueError(f"side must be 'first' or 'second', got {side!r}")
    k = 0 if side == "first" else 1
    space = (h.space_x, h.space_y)[k]
    sums = dict.fromkeys(space.labels, 0.0)
    for point, p in h.probs.items():
        sums[point[k]] += p
    return _built(ClassicalState, space=space, probs={lab: p for lab, p in sums.items() if p > 0.0})


def classify_classical(h: CompositeClassicalState) -> ClassicalSeparableCert:
    """Constructive separability certificate for a composite classical state.

    Each support point contributes one term: its probability as the
    weight, and the pure states at its coordinates as the product factors;
    each label's point mass is built once and shared by its terms.
    This never fails; recombining the certificate reproduces the input.
    """
    fx, gy = ({lab: classical_pure(s, lab) for lab in s.labels} for s in (h.space_x, h.space_y))
    terms = tuple((p, fx[x], gy[y]) for (x, y), p in h.probs.items())
    return _built(ClassicalSeparableCert, terms=terms)


def is_product_composite(
    h: CompositeClassicalState, tol: Tolerance = Tolerance()
) -> Optional[tuple[ClassicalState, ClassicalState]]:
    """Recover (f, g) with f (x) g == h, or None if h is not a product.

    A composite state is a product exactly when its joint-probability
    matrix has rank one; the factors are read off the dominant singular
    pair, with f scaled to total probability 1 and the residual scale
    pushed into g.
    """
    m = h.probability_matrix()
    u, s, vh = np.linalg.svd(m)
    if count_above(s, tol) != 1:
        return None
    a = u[:, 0].real
    b = vh[0, :].real * float(s[0])
    if a.sum() < 0.0:
        a, b = -a, -b
    a, b = np.clip(a, 0.0, None), np.clip(b, 0.0, None)
    scale = float(a.sum())
    return tuple(
        _built(ClassicalState, space=s, probs={k: float(p) for k, p in zip(s.labels, w) if p > 0.0})
        for s, w in ((h.space_x, a / scale), (h.space_y, b * scale))
    )
