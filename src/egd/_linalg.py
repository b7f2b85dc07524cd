"""Shared primitives for symmetric positive definite matrices."""

from __future__ import annotations

import numpy as np


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """Average a matrix with its transpose; halving first keeps the sum of
    finite entries finite, and halving is exact above the subnormals."""
    return 0.5 * mat + 0.5 * mat.T


def gram(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``sum_i v_i x_i x_i'``; an overflow raises ValueError, not a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = symmetrize((x * v[:, None]).T @ x)
    if not np.isfinite(out).all():
        raise ValueError("weighted second moment overflows")
    return out


def chol_lower(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, read from the lower triangle of ``mat`` alone;
    raises ValueError if that symmetric matrix is not positive definite."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite") from exc


def chol_logdet(chol: np.ndarray) -> float:
    """``log |L L'|`` of a lower Cholesky factor ``L``."""
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def tril_inv(chol: np.ndarray) -> np.ndarray:
    """Lower triangle of ``np.linalg.inv`` of a lower Cholesky factor.

    Raises ValueError if the factor is singular.
    """
    try:
        return np.tril(np.linalg.inv(chol))
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite") from exc


def quad_forms(linv: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rowwise ``|L^{-1} r_i|^2`` given the inverse factor ``linv = L^{-1}``.

    One matrix product with the q x q inverse is several times faster than
    a triangular solve with ``n`` right-hand sides and, for a Cholesky
    factor, as accurate.  A form that overflows is inf, with no warning.
    """
    with np.errstate(over="ignore"):
        z = rows @ linv.T
    return np.einsum("ij,ij->i", z, z)


def reduced_eigvalsh(mat: np.ndarray, linv: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of ``L^{-1} mat L^{-T}``.

    For any factor ``spd = L L^T`` these are the eigenvalues of the pencil
    ``mat v = lam spd v``.
    """
    return np.linalg.eigvalsh(symmetrize(linv @ mat @ linv.T))

