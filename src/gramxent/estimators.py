"""Matrix-based Renyi alpha-cross-entropies and induced entropies.

Three core measures over kernel Gram matrices:

* nonmirrored:  (a-1)^-1 * [log tr(K1^a K2^(1-a)) - log tr(K1)]
* mirrored:     (a-1)^-1 * [log tr((K2^((1-a)/2a) K1 K2^((1-a)/2a))^a) - log tr(K1)]
* tripartite:   (a-1)^-1 * log(CIP) + (a-1)^-1 * log tr(nt(K1)^a)
  with CIP = mean(K1) + mean(K2) - 2*mean(K12), the biased squared-MMD
  estimate, and nt = trace normalization.

All bipartite measures are read off one decomposed pair (``_Pair``): a
caller that needs several orders or both measures of the same two matrices
builds the pair once instead of calling the public estimators per order.

Bipartite measures return +inf when the support of K1 is not contained in
the support of K2; this is exact for every order (negative powers of K2 only
arise for a > 1, but the sentinel convention is uniform).

Under the unit-trace input contract the log tr(K1) term is identically zero
and is skipped; ``raw=True`` lifts the contract check and evaluates the full
formula, which makes the scaling law C(r1*K1 || r2*K2) = C + log(r1/r2)
exact on raw inputs.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ArgumentError, ContractError, DegenerateMatrixError, NumericalDegeneracyError
from .kernels import RAW, UNIT_TRACE, GramMatrix, hadamard_joint
from .psd_linalg import SupportReport, _support_report, sym_eig

# Orders this close to 1 are rejected; the mirrored limit handles a -> 1.
ALPHA_UNIT_GAP = 1e-6

ZERO_CIP_FLOOR = 1e-300
DEGENERATE_ZERO_CIP = "zero-cip"


@dataclass(frozen=True)
class Alpha:
    """A validated cross-entropy order.

    Must be positive and bounded away from 1 (|value - 1| >= 1e-6); the
    a -> 1 limit is served by mirrored_limit_umegaki. ``mirrored_dpi_safe``
    flags the orders (>= 1/2) where the mirrored measure's data-processing
    guarantee holds; construction outside that range is still allowed.
    """

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not (v > 0) or not math.isfinite(v):
            raise ArgumentError(f"order must be a positive finite real, got {self.value!r}")
        if abs(v - 1.0) < ALPHA_UNIT_GAP:
            raise ArgumentError(
                f"order {v!r} is within {ALPHA_UNIT_GAP} of 1; "
                "use mirrored_limit_umegaki for the limit at 1"
            )
        object.__setattr__(self, "value", v)

    @property
    def mirrored_dpi_safe(self):
        return self.value >= 0.5


def _as_alpha(alpha):
    return alpha if isinstance(alpha, Alpha) else Alpha(float(alpha))


@dataclass(frozen=True)
class CrossEntropyResult:
    """Estimator value plus diagnostics.

    ``support`` is the gating report for bipartite measures (rank_1 is K1's
    rank, rank_2 is K2's) and the informational n == m report for the
    tripartite measure; None when not applicable. ``clamp_count`` totals the
    eigenvalues clamped across every spectral function in the evaluation.
    ``entropy_term`` is only set by the tripartite measure.
    ``support_reverse`` is only set by the Umegaki limit (both directions are
    checked there).
    """

    value: float
    alpha: float
    support: SupportReport | None = None
    clamp_count: int = 0
    degenerate: str | None = None
    entropy_term: float | None = None
    support_reverse: SupportReport | None = None


def _check_trace_contract(K, name, raw):
    if not isinstance(K, GramMatrix):
        raise ArgumentError(f"{name} must be a GramMatrix")
    if raw:
        return
    if K.normalization != UNIT_TRACE:
        raise ContractError(
            f"{name} must be unit-trace normalized (use normalize_trace); got {K.normalization!r}"
        )
    if abs(K.trace() - 1.0) > 1e-8:
        raise ContractError(f"{name} is flagged unit-trace but has trace {K.trace():.6g}")


def _positive_trace(K1):
    tr = K1.trace()
    if not (tr > 0):
        raise DegenerateMatrixError(f"first argument has nonpositive trace {tr:.6g}")
    return tr


def _log_trace_term(K1, raw):
    # log tr(K1) of the definition; identically zero under the unit-trace
    # contract, so it is skipped there rather than computed as log(1 + eps).
    if not raw and K1.normalization == UNIT_TRACE:
        return 0.0
    return math.log(_positive_trace(K1))


def _decompose_pair(K1, K2):
    """Spectra of K1 and K2 plus the overlap O = U1^T U2 of their eigenbases.

    The eigenvectors are released once O is formed: every bipartite trace
    below is a function of the two spectra and O alone.
    """
    e1 = sym_eig(K1)
    e2 = sym_eig(K2)
    if e1.eigenvalues.shape != e2.eigenvalues.shape:
        raise ArgumentError(
            f"size mismatch: {e1.eigenvalues.shape[0]} vs {e2.eigenvalues.shape[0]}"
        )
    overlap = e1.eigenvectors.T @ e2.eigenvectors
    return replace(e1, eigenvectors=None), replace(e2, eigenvectors=None), overlap


class _Pair:
    """K1 and K2 decomposed once, with every bipartite measure read off them.

    Construction checks the trace contract, decomposes each matrix once and
    forms the overlap O = U1^T U2 and the gating support report (supp K1
    inside supp K2). Every order of the nonmirrored measure and the Umegaki
    limit then cost no further decomposition; a mirrored value decomposes
    only its own sandwich.
    """

    def __init__(self, K1, K2, raw=False):
        _check_trace_contract(K1, "K1", raw)
        _check_trace_contract(K2, "K2", raw)
        self.K1 = K1
        self.raw = raw
        self.e1, self.e2, self.overlap = _decompose_pair(K1, K2)
        self.support = _support_report(self.e1, self.e2, self.overlap)

    def nonmirrored_trace(self, a):
        """tr(K1^a K2^(1-a)) = lambda^a . (O o O) . mu^(1-a), both on their supports."""
        p1 = self.e1.on_support(lambda w: np.power(w, a))
        p2 = self.e2.on_support(lambda w: np.power(w, 1.0 - a))
        return float(p1 @ (self.overlap * self.overlap) @ p2)

    def mirrored_trace(self, a, beta):
        """tr(M^beta) for M = K2^((1-a)/2beta) K1^(a/beta) K2^((1-a)/2beta).

        In K2's eigenbasis M = B^T B with B = diag(lambda^(a/2beta)) O
        diag(mu^((1-a)/2beta)), powers taken on the supports. Returns the
        power sum and the number of M's eigenvalues clamped.
        """
        outer, inner = (1.0 - a) / (2.0 * beta), a / beta
        B = self.e1.on_support(lambda w: np.power(w, inner / 2.0))[:, None] * self.overlap
        B *= self.e2.on_support(lambda w: np.power(w, outer))
        eig = sym_eig(B.T @ B, vectors=False)
        return eig.power_sum(beta), eig.clamp_count

    def _result(self, alpha, name, t, clamped):
        """(a-1)^-1 [log t - log tr(K1)] for the trace t of an included pair."""
        clamp_count = self.e1.clamp_count + self.e2.clamp_count + clamped
        if not (t > 0):
            raise NumericalDegeneracyError(
                f"{name} trace collapsed", trace_value=t, clamp_count=clamp_count
            )
        a = alpha.value
        value = (math.log(t) - _log_trace_term(self.K1, self.raw)) / (a - 1.0)
        return CrossEntropyResult(
            value=value, alpha=a, support=self.support, clamp_count=clamp_count
        )

    def nonmirrored(self, alpha):
        """The nonmirrored measure at ``alpha``; +inf when supp K1 is not inside supp K2."""
        alpha = _as_alpha(alpha)
        if not self.support.included:
            return CrossEntropyResult(value=math.inf, alpha=alpha.value, support=self.support)
        return self._result(alpha, "nonmirrored", self.nonmirrored_trace(alpha.value), 0)

    def mirrored(self, alpha, beta):
        """The two-parameter mirrored measure; beta = alpha is the one-parameter one."""
        alpha = _as_alpha(alpha)
        if not self.support.included:
            return CrossEntropyResult(value=math.inf, alpha=alpha.value, support=self.support)
        t, clamped = self.mirrored_trace(alpha.value, beta)
        return self._result(alpha, "mirrored", t, clamped)

    def umegaki(self):
        """The order-1 limit tr(K1 (log K1 - log K2)) / tr(K1), both supports reported."""
        reverse = _support_report(self.e2, self.e1, self.overlap.T)
        if not self.support.included:
            return CrossEntropyResult(
                value=math.inf, alpha=1.0, support=self.support, support_reverse=reverse
            )
        # included with a rank-0 K2 forces a rank-0 K1, so one check covers both logs
        if self.e1.rank == 0:
            raise DegenerateMatrixError("matrix_log: matrix has numerical rank 0")
        tr1 = _positive_trace(self.K1)
        # tr(K1 log K1) - tr(K1 log K2) = lambda . log+ lambda - lambda . (O o O) . log+ mu
        log1 = self.e1.on_support(np.log)
        log2 = self.e2.on_support(np.log)
        cross = (self.overlap * self.overlap) @ log2
        value = float(self.e1.eigenvalues @ (log1 - cross)) / tr1
        return CrossEntropyResult(
            value=value,
            alpha=1.0,
            support=self.support,
            clamp_count=self.e1.clamp_count + self.e2.clamp_count,
            support_reverse=reverse,
        )


def nonmirrored_cross_entropy(K1, K2, alpha, *, raw=False):
    """Nonmirrored cross-entropy (a-1)^-1 [log tr(K1^a K2^(1-a)) - log tr(K1)]."""
    alpha = _as_alpha(alpha)
    return _Pair(K1, K2, raw).nonmirrored(alpha)


def mirrored_cross_entropy(K1, K2, alpha, *, raw=False):
    """Mirrored (sandwiched) cross-entropy via tr((K2^((1-a)/2a) K1 K2^((1-a)/2a))^a)."""
    alpha = _as_alpha(alpha)
    return _Pair(K1, K2, raw).mirrored(alpha, alpha.value)


def mirrored_cross_entropy_two_param(K1, K2, alpha, beta, *, raw=False):
    """Two-parameter mirrored variant with sandwich exponent split by beta.

    beta = alpha recovers mirrored_cross_entropy. The data-processing
    guarantee holds on the documented (alpha, beta) ranges, e.g.
    beta >= max(alpha, 1 - alpha) for alpha in (0, 1); other values evaluate
    fine but carry no such guarantee.
    """
    alpha = _as_alpha(alpha)
    beta = float(beta)
    if not (beta > 0) or not math.isfinite(beta):
        raise ArgumentError(f"beta must be a positive finite real, got {beta!r}")
    return _Pair(K1, K2, raw).mirrored(alpha, beta)


def mirrored_limit_umegaki(K1, K2, *, raw=False):
    """The order-1 limit of the mirrored measure: tr(K1 (log K1 - log K2)) / tr(K1).

    +inf when supp(K1) is not contained in supp(K2). Both inclusion
    directions are reported (``support`` gates, ``support_reverse`` is
    informational).
    """
    return _Pair(K1, K2, raw).umegaki()


def tripartite_cross_entropy(K1, K12, K2, alpha):
    """Tripartite cross-entropy from raw Grams plus the cross Gram.

    K1 (n x n) and K2 (m x m) must be raw: the cross-information potential
    CIP = mean(K1) + mean(K2) - 2*mean(K12) is a plain grand mean, the biased
    squared-MMD estimate. The entropy term trace-normalizes K1 internally.
    Support inclusion (supp K2 inside supp K1) is reported when n == m, and
    never gates: the measure is defined through means, not inverse powers.
    """
    alpha = _as_alpha(alpha)
    if not isinstance(K1, GramMatrix) or not isinstance(K2, GramMatrix):
        raise ArgumentError("K1 and K2 must be GramMatrix instances")
    if K1.normalization != RAW or K2.normalization != RAW:
        raise ContractError(
            "tripartite expectations are grand means of raw Gram matrices; "
            "pass un-normalized inputs"
        )
    n = K1.n
    m = K2.n
    if K12.values.shape != (n, m):
        raise ArgumentError(
            f"cross Gram shape {K12.values.shape} inconsistent with ({n}, {m})"
        )
    if n == m:
        e2, e1, overlap = _decompose_pair(K2, K1)
        support = _support_report(e2, e1, overlap)
    else:
        e1 = sym_eig(K1, vectors=False)
        support = None
    cip = float(K1.values.mean()) + float(K2.values.mean()) - 2.0 * float(K12.values.mean())
    a = alpha.value
    if cip < ZERO_CIP_FLOOR:
        sentinel = -math.inf if a > 1.0 else math.inf
        return CrossEntropyResult(
            value=sentinel,
            alpha=a,
            support=support,
            degenerate=DEGENERATE_ZERO_CIP,
        )
    tr1 = _positive_trace(K1)
    # the spectrum of nt(K1) is K1's divided by its trace
    s = float(np.sum((e1.eigenvalues[e1.support] / tr1) ** a))
    entropy_term = math.log(s) / (a - 1.0)
    value = math.log(cip) / (a - 1.0) + entropy_term
    return CrossEntropyResult(
        value=value,
        alpha=a,
        support=support,
        clamp_count=e1.clamp_count,
        entropy_term=entropy_term,
    )


def matrix_renyi_entropy(K, alpha):
    """Matrix Renyi entropy S_a(K) = (1-a)^-1 log tr(K^a) of a unit-trace Gram.

    The maximally mixed identity/n maps to log n and any rank-one unit-trace
    matrix to 0, matching S_a(K) = log n - C_a(K || identity/n) exactly.
    """
    alpha = _as_alpha(alpha)
    _check_trace_contract(K, "K", raw=False)
    s = sym_eig(K, vectors=False).power_sum(alpha.value)
    if not (s > 0):
        raise DegenerateMatrixError("entropy of a rank-0 matrix")
    return math.log(s) / (1.0 - alpha.value)


def joint_entropy(K1, K2, alpha):
    """Entropy of the unit-trace-normalized Hadamard product of K1 and K2."""
    return matrix_renyi_entropy(hadamard_joint(K1, K2), alpha)


def conditional_entropy(K1, K2, alpha):
    """S_a(K1 | K2) = S_a(K1, K2) - S_a(K2)."""
    return joint_entropy(K1, K2, alpha) - matrix_renyi_entropy(K2, alpha)


def mutual_information(K1, K2, alpha):
    """I_a(K1; K2) = S_a(K1) - S_a(K1 | K2) = S(K1) + S(K2) - S(K1, K2)."""
    return matrix_renyi_entropy(K1, alpha) - conditional_entropy(K1, K2, alpha)


def _min_supported_eigenvalue(values, name):
    eig = sym_eig(values, vectors=False)
    if eig.rank == 0:
        raise DegenerateMatrixError(f"{name} has numerical rank 0")
    return float(eig.eigenvalues[eig.rank - 1]), float(eig.eigenvalues[0])


def trace_distance_bounds(K1, K2):
    """Upper bounds on the order-1 value from minimal nonzero eigenvalues.

    Returns (loose_bound, tight_bound) with

        loose = (l2 + w/2) log(1 + w/(2 l2)) - l1 log(1 + w/(2 l1))
        tight = w * l1_max * (log l1 - log l2) / (l1 - l2)

    where l1, l2 are the minimal nonzero eigenvalues, l1_max is K1's largest
    eigenvalue, and w is the entrywise l1 distance between the matrices. When
    l1 = l2 (within 1e-12) the tight bound's removable singularity is replaced
    by its ceiling l1_max * w / min(l1, l2).
    """
    if K1.values.shape != K2.values.shape:
        raise ArgumentError(
            f"size mismatch: {K1.values.shape} vs {K2.values.shape}"
        )
    l1, l1_max = _min_supported_eigenvalue(K1.values, "K1")
    l2, _ = _min_supported_eigenvalue(K2.values, "K2")
    omega = float(np.sum(np.abs(K1.values - K2.values)))
    loose = (l2 + omega / 2.0) * math.log1p(omega / (2.0 * l2)) - l1 * math.log1p(
        omega / (2.0 * l1)
    )
    if abs(l1 - l2) <= 1e-12:
        tight = l1_max * omega / min(l1, l2)
    else:
        tight = omega * l1_max * (math.log(l1) - math.log(l2)) / (l1 - l2)
    return loose, tight
