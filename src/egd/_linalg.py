"""Shared primitives for symmetric positive definite matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Eigenvalues below EIG_FLOOR_REL times the largest are clamped before taking
# matrix square roots; clamping that shifts log|M| by more than DET_SHIFT_TOL
# means the matrix is too close to singular to use.
EIG_FLOOR_REL = 1e-14
DET_SHIFT_TOL = 1e-8


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """Average a matrix with its transpose."""
    return 0.5 * (mat + mat.T)


@dataclass(frozen=True, eq=False)
class SpdFactors:
    """Eigendecomposition-derived factors of an SPD matrix."""

    sqrt: np.ndarray
    inv_sqrt: np.ndarray
    logdet: float


def spd_sqrt_factors(mat: np.ndarray) -> SpdFactors:
    """Symmetric square root, inverse square root and log-determinant.

    Parameters
    ----------
    mat : ndarray
        Symmetric positive definite matrix.

    Returns
    -------
    SpdFactors

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
    root = np.sqrt(clamped)
    return SpdFactors(
        sqrt=(vecs * root) @ vecs.T,
        inv_sqrt=(vecs / root) @ vecs.T,
        logdet=float(np.sum(np.log(clamped))),
    )


def chol_lower(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor; raises ValueError if the matrix is not SPD."""
    try:
        return np.linalg.cholesky(symmetrize(np.asarray(mat, dtype=float)))
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite") from exc


def quad_forms_from_chol(chol: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rowwise quadratic forms ``r_i M^{-1} r_i^T`` given ``M = L L^T``.

    ``chol`` is the lower factor ``L`` (zeros above the diagonal, as
    :func:`chol_lower` returns it) and ``rows`` an ``(n, q)`` array.  The
    forms are ``|z_i|^2`` with ``Z = R L^{-T}``: the q x q inverse of the
    factor is formed once by ``np.linalg.inv`` and its lower triangle
    multiplies the rows in one matrix product, which is several times
    faster than a triangular solve with ``n`` right-hand sides and, for a
    Cholesky factor, as accurate.  Raises ValueError if the factor is
    singular.
    """
    try:
        inv = np.linalg.inv(chol)
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite") from exc
    z = rows @ np.tril(inv).T
    return np.einsum("ij,ij->i", z, z)


def generalized_eigvalsh(mat: np.ndarray, spd: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric pencil ``mat v = lam spd v``.

    Reduces the pencil by the Cholesky factor ``spd = L L^T`` to the
    standard problem for ``L^{-1} mat L^{-T}``, as LAPACK ``sygv`` does,
    with ``L^{-1}`` formed by ``np.linalg.inv``.  Raises
    ``np.linalg.LinAlgError`` if ``spd`` is not positive definite.
    """
    linv = np.linalg.inv(np.linalg.cholesky(spd))
    return np.linalg.eigvalsh(symmetrize(linv @ mat @ linv.T))
