"""Complex linear algebra with explicit tolerance contracts.

Inner products, ``np.vdot`` throughout the package, are conjugate-linear
in the FIRST argument and linear in the second.  All functions treat their
inputs as immutable values: nothing is modified in place and every result
is freshly allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_EPS = 1e-9
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_HERMITIAN_BLOCK = 128  # rows per block of the Hermiticity sweep


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerance for rank, Hermiticity, and positivity decisions.

    Thresholds scale with the magnitude of the operand, floored at 1, so
    tiny and large-norm inputs are judged consistently.
    """

    eps: float = DEFAULT_EPS

    def __post_init__(self):
        eps = float(self.eps)
        if not (np.isfinite(eps) and eps > 0.0):
            raise ValueError(f"eps must be a positive finite real, got {self.eps!r}")
        object.__setattr__(self, "eps", eps)


def _built(cls, **fields):
    """An instance of the frozen state dataclass ``cls`` with ``fields`` set, and no check run."""
    state = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(state, name, value)
    return state


def check_weights(weights, what: str, name) -> list[float]:
    """Return the weights as floats if each is finite and >= 0 and, summed in order, they make 1.

    The sum may miss 1 by ``DEFAULT_EPS``; ``what`` names the weights in
    that refusal.  A bad weight at position k is named by ``name(k)``, with
    its value; ``name`` is called only then.
    """
    checked = []
    for k, p in enumerate(weights):
        p = float(p)
        if not math.isfinite(p) or p < 0.0:
            raise ValueError(f"{name(k)} must be finite and >= 0, got {p!r}")
        checked.append(p)
    total = sum(checked)
    if abs(total - 1.0) > DEFAULT_EPS:
        raise ValueError(f"{what} must sum to 1, got {total!r}")
    return checked


def _convex(terms, noun: str, what: str, name: str) -> tuple:
    """A convex sum's (weight, ...) terms, weights by ``check_weights``; ``name`` names a bad one."""
    terms = tuple(terms)
    if not terms:
        raise ValueError(f"{noun} needs at least one term")
    weights = check_weights([p for p, *_ in terms], what, lambda k: name)
    return tuple((p, *rest) for p, (_, *rest) in zip(weights, terms))


def as_vector(entries) -> np.ndarray:
    """Coerce to a read-only 1-D complex vector, rejecting NaN/Inf entries."""
    return _checked(np.array(entries, dtype=complex), 1, "vector")


def as_matrix(entries) -> np.ndarray:
    """Coerce to a read-only 2-D complex matrix, rejecting NaN/Inf entries."""
    return _checked(np.array(entries, dtype=complex), 2, "matrix")


def _checked(a: np.ndarray, ndim: int, noun: str) -> np.ndarray:
    """a, a complex array, made read-only once it is a non-empty ``ndim``-D array of finite entries."""
    if a.ndim != ndim or a.size == 0:
        raise ValueError(f"expected a non-empty {ndim}-D {noun}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{noun} entries must be finite")
    a.flags.writeable = False
    return a


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a contiguous 1-D complex vector, bit for bit ``np.linalg.norm(v)``.

    numpy's own formula, ``sqrt(re . re + im . im)``, without its per-call
    dispatch.
    """
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _outer_flat(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kronecker product of two 1-D vectors, bit for bit ``np.kron(x, y)``.

    This is the one ufunc call ``np.kron`` makes, on the same column and
    row views, without its shape bookkeeping.  ``np.multiply.outer`` is not
    the same call: for two complex scalars it takes another inner loop, and
    its real part can differ in the last bit.
    """
    return np.multiply(x.reshape(-1, 1), y.reshape(1, -1)).ravel()


def count_above(values, tol: Tolerance = Tolerance()):
    """Count the entries of descending ``values`` above ``eps * max(1, first)``.

    Counts along the last axis, so a stack of spectra gives one count per
    spectrum.  This is the one rank-threshold rule of the package.
    """
    values = np.asarray(values)
    return np.count_nonzero(values > tol.eps * np.maximum(1.0, values[..., :1]), axis=-1)


def rank(m, tol: Tolerance = Tolerance()) -> int:
    """Number of singular values above ``eps * max(1, largest)``."""
    m = as_matrix(m)
    return int(count_above(np.linalg.svd(m, compute_uv=False), tol))


def is_hermitian(m, tol: Tolerance = Tolerance()) -> bool:
    """Entrywise self-adjointness check, threshold relative to the max entry."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"is_hermitian requires a square matrix, got shape {m.shape}")
    return _is_hermitian(m, tol)


def _is_hermitian(m: np.ndarray, tol: Tolerance) -> bool:
    """``is_hermitian`` of a square matrix ``as_matrix`` has already coerced.

    The rule is ``max|m - m^H| <= eps * max(1, max|m|)``.  It is decided on
    the upper triangle alone, swept in blocks of ``_HERMITIAN_BLOCK`` rows,
    so no full-size temporary is built.  That is the rule bit for bit:
    ``|m_ij - conj(m_ji)|`` and ``|m_ji - conj(m_ij)|`` have real parts of
    opposite sign and the same imaginary part (IEEE subtraction is exactly
    sign-symmetric, addition commutes) and ``abs`` ignores signs, so the
    triangle holds every value of the full difference.  ``max|m|`` is
    computed only when the worst difference exceeds ``eps``, the least
    threshold the rule can have.  Up to ``_HERMITIAN_BLOCK`` rows, the one
    block is the whole matrix.
    """
    k = _HERMITIAN_BLOCK
    worst = max(
        float(np.abs(m[a : a + k, a:] - m[a:, a : a + k].conj().T).max())
        for a in range(0, m.shape[0], k)
    )
    return worst <= tol.eps or worst <= tol.eps * max(1.0, float(np.abs(m).max()))


def is_positive(m, tol: Tolerance = Tolerance()) -> bool:
    """True iff m is Hermitian with spectrum above ``-eps * max(1, largest)``."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return _is_positive(m, tol)


def _is_positive(m: np.ndarray, tol: Tolerance) -> bool:
    """``is_positive`` of a square matrix ``as_matrix`` has already coerced.

    The rule is ``w[0] >= -eps * max(1, w[-1])`` on ``w = eigvalsh(m)``.  A
    Cholesky screen accepts first, without the eigenvalues, where it proves
    that the rule would accept; anything else gets ``eigvalsh``.  Both
    factorizations read the Hermitian matrix H given by m's lower triangle
    and the real part of its diagonal.

    The screen factors ``A = H + (eps/2) I``.  If that completes with
    computed factor R, then ``R^H R = fl(A) + dA`` with
    ``|dA| <= g(n+1) |R^H| |R|``, where ``g(k) = k u / (1 - k u)`` and u is
    the unit roundoff (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., Thm 10.3).  Rounding A's diagonal adds at most
    ``u |A_ii|``, so ``A = R^H R - F`` with ``|F| <= g(n+2) |R^H| |R|``,
    and ``||F||_2 <= g(n+2) s`` for ``s = ||R||_F^2``.  Hence

        lambda_min(H) >= -eps/2 - g(n+2) s,   ||H||_2 <= s + g(n+2) s + eps/2.

    ``eigvalsh`` returns the exact eigenvalues of some ``H + E`` with
    ``||E||_2 <= p(n) u ||H||_2``.  Allowing ``p(n) = n^2``, and taking 2s
    for ``s + g(n+2) s`` and for the rounding of s itself, gives

        w[0] >= -eps/2 - g(n+2) s - n^2 u (2 s + eps/2).

    So when those two error terms together stay below ``eps/2``,
    ``w[0] >= -eps``, which the rule accepts.  A failed factorization, or a
    margin too thin (a tiny eps, a large n, a large norm), decides nothing.
    """
    if not _is_hermitian(m, tol):
        return False
    n = m.shape[0]
    a = m.copy()
    a.reshape(-1)[:: n + 1] += tol.eps / 2
    try:
        r = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    else:
        u = _UNIT_ROUNDOFF
        s = float(np.vdot(r, r).real)
        factored = (n + 2) * u / (1 - (n + 2) * u) * s
        solved = n * n * u * (2 * s + tol.eps / 2)
        if factored + solved < tol.eps / 2:
            return True
    w = np.linalg.eigvalsh(m)
    return bool(w[0] >= -tol.eps * max(1.0, float(w[-1])))
