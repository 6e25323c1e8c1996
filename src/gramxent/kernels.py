"""Kernel families and Gram-matrix construction.

Two kernel families are supported:

* ``gaussian``: exp(-sigma * ||s - a||^2). Translation invariant, radial,
  and normalized (diagonal entries are exactly 1).
* ``exponential-inner-product``: exp(sigma * <s, a>). Translation varying;
  evaluations are guarded against exp() overflow.

Gram matrices carry their normalization state (raw vs unit-trace) so the
estimators can enforce their trace contract.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DegenerateMatrixError, KernelOverflowError

GAUSSIAN = "gaussian"
EXP_INNER_PRODUCT = "exponential-inner-product"
FAMILIES = (GAUSSIAN, EXP_INNER_PRODUCT)

# exp() overflows just above 709; stay clear of it so downstream traces
# never see an inf.
OVERFLOW_LIMIT = 700.0


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family selector plus bandwidth."""

    family: str = GAUSSIAN
    bandwidth: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ArgumentError(
                f"unknown kernel family {self.family!r}; expected one of {FAMILIES}"
            )
        if not (0 < self.bandwidth < np.inf):
            raise ArgumentError(f"bandwidth must be positive and finite, got {self.bandwidth}")


@dataclass(frozen=True)
class SampleSet:
    """An n x d table of real-valued samples from one distribution."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2:
            raise ArgumentError(f"samples must be a 2-d array, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ArgumentError(f"need n >= 1 and d >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ArgumentError("samples contain non-finite entries")
        object.__setattr__(self, "data", arr)

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def d(self):
        return self.data.shape[1]


RAW = "raw"
UNIT_TRACE = "unit-trace"


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric nonnegative kernel matrix with normalization state.

    The builders' values are bit-exactly symmetric: numpy computes a sample
    matrix times its own transpose as a symmetric product, and every other
    step treats the two samples of an entry alike.
    """

    values: np.ndarray
    normalization: str = RAW

    @property
    def n(self):
        return self.values.shape[0]

    def trace(self):
        return float(np.trace(self.values))


def _check_gram(G, name):
    if not isinstance(G, GramMatrix):
        raise ArgumentError(f"{name} must be a GramMatrix")


def _positive_trace(tr, name):
    """The trace ``tr`` of the Gram ``name``, a DegenerateMatrixError unless it is positive."""
    if not (tr > 0):
        raise DegenerateMatrixError(f"{name} has nonpositive trace {tr:.6g}")
    return tr


@dataclass(frozen=True)
class CrossGram:
    """Rectangular n x m kernel matrix between two sample sets.

    Entry (i, j) = kernel(x_i, y_j). Carries no normalization state: the
    tripartite measure consumes its plain grand mean.
    """

    values: np.ndarray


def _kernel_block(spec, A, B):
    """Kernel values between the rows of A (n x d) and B (m x d), n x m.

    A bandwidth product overflowing to inf is the gaussian's exact limit
    exp(-inf) = 0 and an exponential-inner-product KernelOverflowError. So
    is a gaussian distance overflowing to inf. Samples with entries above
    1e150 are reduced one row at a time, not by BLAS: their gaussian
    |a|^2 + |b|^2 - 2<a, b> would be inf - inf, so the squared differences
    are summed, and a BLAS dot can sum overflowed inner-product terms of
    both signs to -inf, where the row sum gives NaN, a KernelOverflowError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        huge = max(float(np.max(np.abs(A))), float(np.max(np.abs(B)))) > 1e150
        if spec.family == GAUSSIAN:
            if huge:
                D = np.array([np.sum((B - a) ** 2, axis=1) for a in A])
            else:
                # d * (1e150)^2 stays far below the float maximum. Two n x m
                # buffers, worked in place; the order (|a|^2 + |b|^2) - 2<a, b>
                # fixes every bit, and the result files' bytes rest on it
                AB = A @ B.T
                AB *= 2.0
                D = np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :]
                D -= AB
                np.maximum(D, 0.0, out=D)  # rounding can push tiny distances negative
            D *= -spec.bandwidth
            return np.exp(D, out=D)
        E = np.array([np.sum(B * a, axis=1) for a in A]) if huge else A @ B.T
        E *= spec.bandwidth
    if not np.max(E) <= OVERFLOW_LIMIT:  # np.max is NaN if any entry is
        E = np.where(np.isnan(E), np.inf, E)
        i, j = np.unravel_index(int(np.argmax(E)), E.shape)
        raise KernelOverflowError(i, j, E[i, j])
    return np.exp(E, out=E)


def gram_univariate(spec, X):
    """Build the n x n Gram matrix of all pairwise kernel evaluations.

    Vectorized; entry (i, j) is the kernel of x_i and x_j to rounding. The
    result is raw (not trace normalized).
    """
    K = _kernel_block(spec, X.data, X.data)
    if spec.family == GAUSSIAN:
        np.fill_diagonal(K, 1.0)  # exp(-sigma * 0) exactly
    return GramMatrix(K, normalization=RAW)


def gram_cross(spec, X, Y):
    """Build the rectangular n x m Gram matrix between two sample sets."""
    if X.d != Y.d:
        raise ArgumentError(f"sample sets have different dimensions: {X.d} vs {Y.d}")
    if X.n == Y.n and np.array_equal(X.data, Y.data):
        # definition coincides with the square Gram; make the values coincide
        # exactly too (same diagonal and symmetric-product rounding)
        return CrossGram(gram_univariate(spec, X).values)
    return CrossGram(_kernel_block(spec, X.data, Y.data))


def normalize_trace(G):
    """Scale a Gram matrix to unit trace.

    Idempotent: a matrix already flagged unit-trace is returned unchanged, so
    repeated normalization is exact, not just within rounding.
    """
    _check_gram(G, "G")
    if G.normalization == UNIT_TRACE:
        return G
    return GramMatrix(G.values / _positive_trace(G.trace(), "G"), normalization=UNIT_TRACE)


def hadamard_joint(G1, G2):
    """Entrywise product of two same-size Gram matrices, unit-trace normalized.

    This realizes the product kernel: the Schur product theorem keeps the
    result PSD.
    """
    _check_gram(G1, "G1")
    _check_gram(G2, "G2")
    if G1.values.shape != G2.values.shape:
        raise ArgumentError(
            f"size mismatch: {G1.values.shape} vs {G2.values.shape}"
        )
    return normalize_trace(GramMatrix(G1.values * G2.values))
