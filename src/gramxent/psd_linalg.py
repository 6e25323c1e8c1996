"""Spectral primitives for PSD matrices.

Everything funnels through one symmetric eigendecomposition, ``sym_eig``,
the only caller of numpy's ``eigh`` / ``eigvalsh``. The decomposition
carries its numerical support: eigenvalues above the relative clamp
threshold tau = n * eps * lambda_max; eigenvalues at or below tau count as
zero-rank directions. Off-support values follow the pseudo-inverse
convention (f(lambda) = 0 for both positive and negative powers), which keeps
all spectral functions support-restricted.

The estimators decompose each Gram matrix once and work in the pair's
eigenbases: traces, sandwiches and support tests are read off the two
spectra and the overlap O = U1^T U2 of the eigenvectors. ``matrix_power``,
``matrix_log`` and ``support_included`` are the same views in the standard
basis and serve as the reference for those formulas.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, DegenerateMatrixError
from .kernels import GramMatrix

SYMMETRY_RTOL = 1e-12
DEFAULT_SUPPORT_TOL = 1e-8

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectrum sorted descending, the aligned orthonormal eigenvectors (None
    when only eigenvalues were asked for) and the numerical support mask."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    support: np.ndarray

    @property
    def rank(self):
        return int(np.count_nonzero(self.support))

    @property
    def clamp_count(self):
        """Eigenvalues at or below the clamp threshold."""
        return self.eigenvalues.shape[0] - self.rank

    def on_support(self, f):
        """f(lambda) on the support and 0 off it, aligned with the eigenvalues."""
        out = np.zeros_like(self.eigenvalues)
        out[self.support] = f(self.eigenvalues[self.support])
        return out

    def power_sum(self, p):
        """Sum of lambda^p over the support."""
        return float(np.sum(self.eigenvalues[self.support] ** p))


@dataclass(frozen=True)
class SupportReport:
    """Outcome of a support-inclusion test between two PSD matrices.

    rank_1 / rank_2 are the numerical ranks of the first / second positional
    argument of support_included. ``residual`` is the Frobenius norm of the
    first argument's range leaked into the second argument's nullspace.
    """

    rank_1: int
    rank_2: int
    included: bool
    residual: float
    tolerance: float


class SpectralResult(NamedTuple):
    """A spectral function's value plus how many eigenvalues were clamped."""

    values: np.ndarray
    clamp_count: int


def _as_array(G):
    return G.values if isinstance(G, GramMatrix) else np.asarray(G, dtype=float)


def sym_eig(G, vectors=True):
    """Symmetric eigendecomposition with eigenvalues sorted descending.

    Negative eigenvalues are reported as-is; the support mask marks the
    eigenvalues above clamp_threshold. ``vectors=False`` skips the
    eigenvectors (``eigvalsh``). Non-finite entries are rejected here, so no
    spectral quantity is ever read off a NaN or inf matrix.
    """
    A = _as_array(G)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ArgumentError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ArgumentError("matrix has non-finite entries")
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    if scale > 0 and float(np.max(np.abs(A - A.T))) > SYMMETRY_RTOL * scale * A.shape[0]:
        raise ArgumentError("matrix is not symmetric within tolerance")
    V = None
    try:
        if vectors:
            w, V = np.linalg.eigh(A)
            V = V[:, ::-1].copy()
        else:
            w = np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise DegenerateMatrixError(f"eigendecomposition failed: {exc}") from exc
    w = w[::-1].copy()
    return EigenDecomposition(eigenvalues=w, eigenvectors=V, support=w > clamp_threshold(w))


def clamp_threshold(eigenvalues):
    """Relative numerical-rank cutoff tau = n * eps * lambda_max.

    A relative threshold makes spectral functions exactly scale-covariant:
    scaling the matrix scales tau along with it.
    """
    w = np.asarray(eigenvalues, dtype=float)
    lam_max = float(np.max(w)) if w.size else 0.0
    return w.shape[0] * _EPS * max(lam_max, 0.0)


def _spectral_apply(G, f, *, needs_rank=False, op_name=""):
    eig = sym_eig(G)
    if needs_rank and eig.rank == 0:
        raise DegenerateMatrixError(f"{op_name}: matrix has numerical rank 0")
    V = eig.eigenvectors
    M = (V * eig.on_support(f)) @ V.T
    M = 0.5 * (M + M.T)  # kill rounding asymmetry from the two matmuls
    return SpectralResult(values=M, clamp_count=eig.clamp_count)


def matrix_power(G, p):
    """Spectral power G^p restricted to the numerical support.

    Off-support eigenvalues map to 0 for either sign of p (pseudo-inverse
    convention). Returns (matrix, clamp_count).
    """
    p = float(p)
    return _spectral_apply(
        G, lambda w: np.power(w, p), needs_rank=(p < 0), op_name="matrix_power"
    )


def matrix_log(G):
    """Spectral logarithm with log(lambda) on the support and 0 off it.

    The off-support value only ever multiplies matrices supported inside G's
    support in the Umegaki trace, so it is immaterial there; 0 keeps the
    output finite everywhere.
    """
    return _spectral_apply(G, np.log, needs_rank=True, op_name="matrix_log")


def _support_report(e_in, e_out, overlap, tol=DEFAULT_SUPPORT_TOL):
    """Support inclusion of ``e_in`` in ``e_out`` from their eigenbasis overlap.

    overlap = U_in^T U_out, so its block (support of in, nullspace of out)
    is the inner range expressed in the outer nullspace.
    """
    residual = float(np.linalg.norm(overlap[np.ix_(e_in.support, ~e_out.support)]))
    return SupportReport(
        rank_1=e_in.rank,
        rank_2=e_out.rank,
        included=bool(residual <= tol),
        residual=residual,
        tolerance=float(tol),
    )


def support_included(inner, outer, tol=DEFAULT_SUPPORT_TOL):
    """Test whether the support of ``inner`` lies inside the support of ``outer``.

    residual = || P0 @ U ||_F where U spans inner's numerical range and P0
    projects onto outer's numerical nullspace; included iff residual <= tol.
    rank_1 is inner's rank, rank_2 is outer's.
    """
    A = _as_array(inner)
    B = _as_array(outer)
    if A.shape != B.shape:
        raise ArgumentError(f"size mismatch: {A.shape} vs {B.shape}")
    if not (tol > 0):
        raise ArgumentError(f"tolerance must be positive, got {tol}")
    eig_in = sym_eig(A)
    eig_out = sym_eig(B)
    return _support_report(eig_in, eig_out, eig_in.eigenvectors.T @ eig_out.eigenvectors, tol)


def trace_product(A, B):
    """tr(A @ B) for symmetric A, B via the entrywise sum, skipping the product."""
    A = _as_array(A)
    B = _as_array(B)
    if A.shape != B.shape:
        raise ArgumentError(f"size mismatch: {A.shape} vs {B.shape}")
    return float(np.sum(A * B))
