"""Shared primitives for symmetric positive definite matrices."""

from __future__ import annotations

import numpy as np

# The sampler's square root clamps eigenvalues below EIG_FLOOR_REL times the
# largest; a clamp that shifts log|M| by more than DET_SHIFT_TOL means the
# matrix is too close to singular to use.  The fits use Cholesky factors.
EIG_FLOOR_REL = 1e-14
DET_SHIFT_TOL = 1e-8


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """Average a matrix with its transpose."""
    return 0.5 * (mat + mat.T)


def spd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root of SPD ``mat``, small eigenvalues clamped.

    Raises
    ------
    ValueError
        If the matrix has a nonpositive eigenvalue, or if clamping small
        eigenvalues would change the determinant noticeably (the matrix is
        then effectively singular).
    """
    vals, vecs = np.linalg.eigh(symmetrize(np.asarray(mat, dtype=float)))
    largest = float(vals[-1])
    if largest <= 0.0 or vals[0] <= 0.0:
        raise ValueError("matrix is not positive definite")
    clamped = np.maximum(vals, EIG_FLOOR_REL * largest)
    if abs(float(np.sum(np.log(clamped) - np.log(vals)))) > DET_SHIFT_TOL:
        raise ValueError("matrix is effectively singular: eigenvalue clamping "
                         "would alter the determinant")
    return (vecs * np.sqrt(clamped)) @ vecs.T


def chol_lower(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor; raises ValueError if the matrix is not SPD."""
    try:
        return np.linalg.cholesky(symmetrize(np.asarray(mat, dtype=float)))
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
    factor, as accurate.
    """
    z = rows @ linv.T
    return np.einsum("ij,ij->i", z, z)


def reduced_eigvalsh(mat: np.ndarray, linv: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of ``L^{-1} mat L^{-T}``.

    For any factor ``spd = L L^T`` these are the eigenvalues of the pencil
    ``mat v = lam spd v``.
    """
    return np.linalg.eigvalsh(symmetrize(linv @ mat @ linv.T))

