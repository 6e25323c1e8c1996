"""Spectral primitives for PSD matrices.

Everything funnels through one symmetric eigendecomposition, ``sym_eig``,
the only caller of numpy's ``eigh`` / ``eigvalsh``. The decomposition
carries its numerical support as a rank: the spectrum is sorted descending,
so the support is its leading ``rank`` eigenvalues, those above the relative
clamp threshold tau = n * eps * lambda_max; eigenvalues at or below tau count
as zero-rank directions. Off-support values follow the pseudo-inverse
convention (f(lambda) = 0 for both positive and negative powers), which keeps
all spectral functions support-restricted.

The estimators decompose each Gram matrix once and work in the pair's
eigenbases: traces, sandwiches and support tests are read off the two
support spectra and blocks of the overlap O = U1^T U2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DegenerateMatrixError
from .kernels import GramMatrix

SYMMETRY_RTOL = 1e-12
DEFAULT_SUPPORT_TOL = 1e-8

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectrum sorted descending, the aligned orthonormal eigenvectors (None
    when only eigenvalues were asked for) and the numerical rank: the support
    is the leading ``rank`` eigenvalues."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    rank: int

    @property
    def clamp_count(self):
        """Eigenvalues at or below the clamp threshold."""
        return self.eigenvalues.shape[0] - self.rank

    @property
    def support(self):
        """The eigenvalues above the clamp threshold: a view of the leading ``rank``."""
        return self.eigenvalues[: self.rank]

    def power_sum(self, p, scale=1.0):
        """Sum of (lambda / scale)^p over the support."""
        return float(np.sum((self.support / scale) ** p))


@dataclass(frozen=True)
class SupportReport:
    """Outcome of the test whether supp K1 lies inside supp K2.

    rank_1 / rank_2 are the numerical ranks of K1 / K2. ``residual`` is the
    Frobenius norm of K1's range leaked into K2's nullspace; ``included`` is
    residual <= DEFAULT_SUPPORT_TOL.
    """

    rank_1: int
    rank_2: int
    included: bool
    residual: float


def _as_array(G):
    """G's values as a float array; a complex array is rejected, not cast to
    its real part."""
    if isinstance(G, GramMatrix):
        return G.values
    if np.iscomplexobj(G):
        raise ArgumentError("expected a real matrix, got a complex array")
    return np.asarray(G, dtype=float)


def _check_finite(A):
    """max|A|, read off A's max and min with no temporary; an ArgumentError
    when that is NaN or inf, as it is exactly when an entry is."""
    scale = max(float(A.max()), -float(A.min())) if A.size else 0.0
    if not math.isfinite(scale):
        raise ArgumentError("matrix has non-finite entries")
    return scale


def _check_symmetric(A):
    """Reject, in this order, an array with a non-finite entry, one that is not
    square, and one whose asymmetry exceeds n * SYMMETRY_RTOL * max|A|; an
    exactly symmetric array skips the tolerance test."""
    scale = _check_finite(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ArgumentError(f"expected a square matrix, got shape {A.shape}")
    if not np.array_equal(A, A.T) and (
        float(np.max(np.abs(A - A.T))) > SYMMETRY_RTOL * scale * A.shape[0]
    ):
        raise ArgumentError("matrix is not symmetric within tolerance")


def sym_eig(G, vectors=True):
    """Symmetric eigendecomposition with eigenvalues sorted descending.

    Negative eigenvalues are reported as-is; the rank counts the eigenvalues
    above clamp_threshold. ``vectors=False`` skips the
    eigenvectors (``eigvalsh``). The input passes ``_check_symmetric`` first,
    so no spectral quantity is ever read off a NaN or inf matrix.
    """
    A = _as_array(G)
    _check_symmetric(A)
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
    rank = int(np.count_nonzero(w > clamp_threshold(w)))
    return EigenDecomposition(eigenvalues=w, eigenvectors=V, rank=rank)


def clamp_threshold(eigenvalues):
    """Relative numerical-rank cutoff tau = n * eps * lambda_max.

    A relative threshold makes spectral functions exactly scale-covariant:
    scaling the matrix scales tau along with it.
    """
    w = np.asarray(eigenvalues, dtype=float)
    lam_max = float(w.max()) if w.size else 0.0
    return w.shape[0] * _EPS * max(lam_max, 0.0)


def _support_report(e_in, e_out, overlap):
    """Support inclusion of ``e_in`` in ``e_out`` from their eigenbasis overlap.

    overlap = U_in^T U_out, so its block (support of in, nullspace of out)
    is the inner range expressed in the outer nullspace.
    """
    residual = float(np.linalg.norm(overlap[: e_in.rank, e_out.rank :]))
    return SupportReport(
        rank_1=e_in.rank,
        rank_2=e_out.rank,
        included=bool(residual <= DEFAULT_SUPPORT_TOL),
        residual=residual,
    )
