"""Quantum states: rank-one projectors, density operators, and mixtures.

Normalization policy: constructors REJECT non-normalized input instead of
silently renormalizing, so a bad upstream state can never masquerade as a
valid one.  Densities are validated when read, trusted when built:
``projector``, ``mix`` and ``partial_trace`` assemble a density from states
already validated (a product state is a projector, a separable sum a mix)
and wrap it with ``_built_density``, which runs no second check.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import NamedTuple

import numpy as np

from .errors import ZeroVectorError
from .linalg import Tolerance, _built, _checked, _convex, _is_positive, _norm, as_matrix, as_vector


def check_unit_norm(v: np.ndarray, tol: Tolerance) -> None:
    """Reject v unless ``|norm(v)**2 - 1| <= eps``; the zero vector raises ``ZeroVectorError``.

    The bound is on the squared norm because that is the trace of v's
    projector: a vector accepted here has a projector of unit trace at the
    same tolerance.
    """
    nrm = _norm(v)
    if nrm == 0.0 or abs(nrm * nrm - 1.0) > tol.eps:
        error = ZeroVectorError if nrm == 0.0 else ValueError
        raise error(f"pure state must have unit norm, got {nrm!r}")


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector representing a pure state."""

    vec: np.ndarray
    tol: InitVar[Tolerance] = Tolerance()

    def __post_init__(self, tol):
        v = as_vector(self.vec)
        check_unit_norm(v, tol)
        object.__setattr__(self, "vec", v)

    @property
    def dim(self) -> int:
        return self.vec.shape[0]


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive operator of unit trace."""

    mat: np.ndarray
    tol: InitVar[Tolerance] = Tolerance()

    def __post_init__(self, tol):
        handed_over = isinstance(self.mat, _HandedOver)
        m = _checked(self.mat.array, 2, "matrix") if handed_over else as_matrix(self.mat)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"density operator must be square, got shape {m.shape}")
        tr = complex(np.trace(m))
        try:
            off = abs(tr - 1.0)
        except OverflowError:  # finite parts, a modulus past the float range: refused for
            off = np.inf  # its trace, though it may fail the positivity check as well
        else:
            if not _is_positive(m, tol):
                raise ValueError("density operator must be positive")
        if off > tol.eps:
            raise ValueError(f"density operator must have unit trace, got {tr!r}")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


class _HandedOver(NamedTuple):
    """A complex matrix that a state file's reader allocated and holds nowhere else.

    ``DensityOperator(_HandedOver(m), tol)`` runs every check on m itself and
    keeps it, made read-only, with no copy.  Any other matrix is copied.
    """

    array: np.ndarray


def _built_density(m: np.ndarray) -> DensityOperator:
    """A ``DensityOperator`` on m, a new complex matrix of validated states: made read-only, unchecked."""
    m.flags.writeable = False
    return _built(DensityOperator, mat=m)


@dataclass(frozen=True)
class MixedEnsemble:
    """Pure states with probabilities, before the density representation."""

    terms: tuple[tuple[float, PureState], ...]

    def __post_init__(self):
        terms = _convex(self.terms, "ensemble", "ensemble weights", "ensemble weight")
        object.__setattr__(self, "terms", terms)
        dims = {x.dim for _, x in terms}
        if len(dims) != 1:
            raise ValueError(f"ensemble states must share one dimension, got {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.terms[0][1].dim


def projector(x: PureState) -> DensityOperator:
    """Rank-one projector onto x: the operator u -> <x, u> x."""
    v = x.vec
    return _built_density(np.outer(v, v.conj()))


def mix(ensemble: MixedEnsemble) -> DensityOperator:
    """Convex combination of the projectors of the ensemble's pure states."""
    acc = np.zeros((ensemble.dim, ensemble.dim), dtype=complex)
    for p, x in ensemble.terms:
        acc += p * np.outer(x.vec, x.vec.conj())
    return _built_density(acc)


def is_density(m, tol: Tolerance = Tolerance()) -> bool:
    """True iff the matrix m passes the ``DensityOperator`` rule at ``tol``."""
    m = as_matrix(m)
    try:
        DensityOperator(m, tol)
    except ValueError:
        return False
    return True
