"""Tensor products of coordinate spaces and bipartite state analysis.

A vector t in the product of two spaces of dimensions d1 and d2 is stored
flat with the first factor as the slow index: entry ``i * d2 + j`` is the
coefficient of the basis tensor e_i (x) f_j.  Reshaping the flat entries
into a d1 x d2 matrix M with ``M[i, j] = t[i * d2 + j]`` identifies an
abstract tensor with its coefficients against the product basis; that
identification carries all the finite-dimensional content of the dual
constructions one would otherwise need, so no symbolic functionals appear
anywhere.  Every operation below (Kronecker products, the product inner
product, Schmidt analysis, partial trace) commits to this one index
convention.

Built values are trusted: ``kron_vec``, past its two factors' check, and
``SchmidtDecomposition.reconstruct`` refuse only a vector that overflows,
and ``partial_trace`` returns its reduction as computed, unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ZeroVectorError
from .linalg import Tolerance, _built, _checked, _norm, _outer_flat, as_matrix, as_vector, count_above
from .quantum import DensityOperator, _built_density

Side = Literal["first", "second"]

# Entries of a unit vector below this are never the phase anchor.
_PHASE_ANCHOR_FLOOR = 1e-12


@dataclass(frozen=True)
class BipartiteDims:
    """Factor dimensions (d1, d2) of a bipartite space."""

    d1: int
    d2: int

    def __post_init__(self):
        for name, d in (("d1", self.d1), ("d2", self.d2)):
            if not isinstance(d, (int, np.integer)) or d < 1:
                raise ValueError(f"{name} must be a positive integer, got {d!r}")
        object.__setattr__(self, "d1", int(self.d1))
        object.__setattr__(self, "d2", int(self.d2))

    @property
    def total(self) -> int:
        return self.d1 * self.d2

    def __str__(self) -> str:
        return f"{self.d1}x{self.d2}"


@dataclass(frozen=True, eq=False)
class BipartiteVector:
    """Vector in a d1*d2-dimensional product space.

    Unit norm is NOT enforced here: tensors of arbitrary vectors, and the
    zero tensor required by the bilinearity identities, are legal values.
    Operations that treat the vector as a physical state check
    normalization themselves.
    """

    vec: np.ndarray
    dims: BipartiteDims

    def __post_init__(self):
        v = as_vector(self.vec)
        if v.shape[0] != self.dims.total:
            raise ValueError(f"state dimension {v.shape[0]} does not factor as {self.dims}")
        object.__setattr__(self, "vec", v)

    @property
    def norm(self) -> float:
        return _norm(self.vec)


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Singular-value form of a bipartite vector.

    ``coeffs`` holds every singular value of the coefficient matrix in
    descending order (so the squares sum to the squared norm); ``rank``
    counts the coefficients above the tolerance threshold and decides
    elementary (rank 1) versus non-elementary (rank >= 2).  ``left[k]``
    and ``right[k]`` are the orthonormal factor vectors paired with
    ``coeffs[k]``.  All three are read-only.
    """

    coeffs: np.ndarray
    left: tuple[np.ndarray, ...]
    right: tuple[np.ndarray, ...]
    rank: int
    dims: BipartiteDims

    def reconstruct(self) -> BipartiteVector:
        """Sum the weighted elementary tensors back into a flat vector, refused if it overflows."""
        vec = np.zeros(self.dims.total, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned of
            for c, l, r in zip(self.coeffs, self.left, self.right):
                vec += c * _outer_flat(l, r)
        return _built(BipartiteVector, vec=_checked(vec, 1, "vector"), dims=self.dims)


def kron_vec(x, y) -> BipartiteVector:
    """Tensor product of two vectors, flat with the first factor slow; refused if it overflows."""
    x, y = as_vector(x), as_vector(y)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _checked, not warned of
        vec = _checked(_outer_flat(x, y), 1, "vector")
    return _built(BipartiteVector, vec=vec, dims=BipartiteDims(x.shape[0], y.shape[0]))


def kron_op(a, b) -> np.ndarray:
    """Tensor product of two square operators; (A (x) B)(x (x) y) = Ax (x) By."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ValueError(f"kron_op requires square matrices, got {a.shape} and {b.shape}")
    return np.kron(a, b)


def coefficient_matrix(t: BipartiteVector) -> np.ndarray:
    """The d1 x d2 matrix M with M[i, j] = t[i * d2 + j]."""
    return t.vec.reshape(t.dims.d1, t.dims.d2).copy()


def schmidt(t: BipartiteVector, tol: Tolerance = Tolerance()) -> SchmidtDecomposition:
    """Schmidt decomposition via SVD of the coefficient matrix.

    Phase convention: the first non-negligible component of each left
    vector is made real and nonnegative, with the compensating phase
    absorbed into the right vector, so equal inputs produce identical
    factors run after run.  Coefficient ordering is descending with ties
    left as the SVD returns them.

    Raises:
        ZeroVectorError: the zero vector has no Schmidt form.
    """
    if _norm(t.vec) == 0.0:
        raise ZeroVectorError("cannot Schmidt-decompose the zero vector")
    u, s, vh = np.linalg.svd(coefficient_matrix(t), full_matrices=False)
    left, right = u.T.copy(), vh.copy()  # one contiguous row per Schmidt vector
    for l, r in zip(left, right):
        anchors = np.nonzero(np.abs(l) > _PHASE_ANCHOR_FLOOR)[0]
        if anchors.size:
            phase = l[anchors[0]] / abs(l[anchors[0]])
            l *= np.conj(phase)
            r *= phase
    s.flags.writeable = left.flags.writeable = right.flags.writeable = False
    return SchmidtDecomposition(
        coeffs=s, left=tuple(left), right=tuple(right), rank=int(count_above(s, tol)), dims=t.dims
    )


def partial_trace(rho: DensityOperator, dims: BipartiteDims, keep: Side) -> DensityOperator:
    """Contract a density operator over the discarded factor; the reduction is not checked again."""
    if rho.dim != dims.total:
        raise ValueError(f"state dimension {rho.dim} does not factor as {dims}")
    r4 = rho.mat.reshape(dims.d1, dims.d2, dims.d1, dims.d2)
    if keep == "first":
        reduced = np.einsum("ijkj->ik", r4)
    elif keep == "second":
        reduced = np.einsum("ijil->jl", r4)
    else:
        raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")
    return _built_density(reduced)
