"""Matrix-based Renyi alpha-cross-entropies and induced entropies.

Three core measures over kernel Gram matrices:

* nonmirrored:  (a-1)^-1 * [log tr(K1^a K2^(1-a)) - log tr(K1)]
* mirrored:     (a-1)^-1 * [log tr((K2^((1-a)/2a) K1 K2^((1-a)/2a))^a) - log tr(K1)]
* tripartite:   (a-1)^-1 * log(CIP) + (a-1)^-1 * log tr(nt(K1)^a)
  with CIP = mean(K1) + mean(K2) - 2*mean(K12), the biased squared-MMD
  estimate, and nt = trace normalization.

The bipartite measures are read off one decomposed pair (``_Pair``), the
tripartite measure off one validated triple (``_Triple``): a caller needing
several orders builds either once instead of calling the estimators per order.

Bipartite measures return +inf when, and only when, the support of K1 is not
contained in the support of K2, at every order (negative powers of K2 only
arise for a > 1, but the sentinel convention is uniform).

Under the unit-trace input contract the log tr(K1) term is identically zero
and is skipped; ``raw=True`` lifts the contract check and evaluates the full
formula, which makes the scaling law C(r1*K1 || r2*K2) = C + log(r1/r2)
exact on raw inputs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ContractError, DegenerateMatrixError, NumericalDegeneracyError
from .kernels import RAW, UNIT_TRACE, CrossGram, _check_gram, _positive_trace, hadamard_joint
from .psd_linalg import SupportReport, _check_finite, _check_symmetric, _support_report, sym_eig

# Orders this close to 1 are rejected; the mirrored limit handles a -> 1.
ALPHA_UNIT_GAP = 1e-6

# Integer sandwich orders up to this one are traced by matrix products, at most
# five n x n matmuls; past it one eigvalsh of the sandwich is cheaper.
PRODUCT_ORDER_MAX = 16

ZERO_CIP_FLOOR = 1e-300
DEGENERATE_ZERO_CIP = "zero-cip"


def _order(alpha):
    """``alpha`` as a float cross-entropy order.

    Must be positive, finite and bounded away from 1 (|alpha - 1| >= 1e-6);
    the a -> 1 limit is served by mirrored_limit_umegaki.
    """
    a = float(alpha)
    if not (a > 0) or not math.isfinite(a):
        raise ArgumentError(f"order must be a positive finite real, got {a!r}")
    if abs(a - 1.0) < ALPHA_UNIT_GAP:
        raise ArgumentError(
            f"order {a!r} is within {ALPHA_UNIT_GAP} of 1; "
            "use mirrored_limit_umegaki for the limit at 1"
        )
    return a


def _orders(alpha_grid):
    """Each entry of ``alpha_grid`` through ``_order``; an ArgumentError names the grid."""
    try:
        return tuple(_order(a) for a in alpha_grid)
    except ArgumentError as exc:
        raise ArgumentError(f"alpha_grid entries must be orders: {exc}") from None


@dataclass(frozen=True)
class CrossEntropyResult:
    """Estimator value plus diagnostics.

    A bipartite value is +inf only when ``support`` (rank_1 is K1's rank, rank_2
    K2's) finds supp K1 not inside supp K2; a trace that is not positive and
    finite raises NumericalDegeneracyError. The tripartite measure, which no
    support test gates, leaves ``support`` None. ``clamp_count`` totals the
    eigenvalues clamped across every spectral function in the evaluation.
    ``entropy_term`` is only set by the tripartite measure.
    """

    value: float
    alpha: float
    support: SupportReport | None = None
    clamp_count: int = 0
    degenerate: str | None = None
    entropy_term: float | None = None


def _check_trace_contract(K, name, raw):
    _check_gram(K, name)
    if raw:
        return
    if K.normalization != UNIT_TRACE:
        raise ContractError(
            f"{name} must be unit-trace normalized (use normalize_trace); got {K.normalization!r}"
        )
    if abs(K.trace() - 1.0) > 1e-8:
        raise ContractError(f"{name} is flagged unit-trace but has trace {K.trace():.6g}")


def _log_trace(name, t, clamp_count):
    """log t for a trace or power sum t; a t outside (0, inf), NaN included, is
    a NumericalDegeneracyError carrying t and the clamp count."""
    if not (0 < t < math.inf):
        raise NumericalDegeneracyError(
            f"{name} trace collapsed", trace_value=t, clamp_count=clamp_count
        )
    return math.log(t)


def _spectrum(K):
    """K's one ``sym_eig`` and tr(K): all a ``_Pair`` reads of K."""
    return sym_eig(K), K.trace()


class _Pair:
    """Two spectra (``_spectrum``) with every bipartite measure read off them.

    Construction forms the overlap O = U1^T U2 and the gating support report
    (supp K1 inside supp K2) and keeps n and tr(K1), no Gram; ``_Pair(s, s)`` is
    a self pair. The nonmirrored measure and the Umegaki limit decompose nothing;
    a mirrored value decomposes its own sandwich at most once per (a, beta).
    """

    def __init__(self, s1, s2, raw=False):
        (e1, self.tr1), (e2, _) = s1, s2
        # a self pair multiplies a copy of U1: numpy forms U1^T U1 as a
        # symmetric product, whose bits differ from those of two decompositions
        self.overlap = e1.eigenvectors.T @ (e2.eigenvectors.copy() if s2 is s1 else e2.eigenvectors)
        self.n = self.overlap.shape[0]
        self.raw = raw
        self.support = _support_report(e1, e2, self.overlap)
        self.lam, self.mu = e1.support, e2.support
        self.block = self.overlap[: e1.rank, : e2.rank]
        self.clamp_count = e1.clamp_count + e2.clamp_count
        self._sandwiches = {}

    def nonmirrored_trace(self, a):
        """tr(K1^a K2^(1-a)) = lambda^a . (O o O) . mu^(1-a) on the supports;
        a power overflowing at a large order leaves it inf or NaN, not a warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            p1, p2 = np.power(self.lam, a), np.power(self.mu, 1.0 - a)
            return float(p1 @ (self.block * self.block) @ p2)

    def mirrored_trace(self, a, beta):
        """tr(M^beta) and M's clamp count, once per (a, beta); an overflow leaves inf or NaN."""
        if (a, beta) not in self._sandwiches:
            with np.errstate(over="ignore", invalid="ignore"):
                self._sandwiches[a, beta] = self._sandwich_trace(a, beta)
        return self._sandwiches[a, beta]

    def _sandwich_trace(self, a, beta):
        """tr(M^beta) for M = K2^((1-a)/2beta) K1^(a/beta) K2^((1-a)/2beta).

        In K2's eigenbasis M = B^T B with B = diag(lambda^(a/2beta)) O
        diag(mu^((1-a)/2beta)) on the supports and 0 off them: M stays n x n,
        so its clamp threshold and count are the full sandwich's. Returns the
        power sum and M's clamp count. At an integer beta = k <= PRODUCT_ORDER_MAX
        no spectrum of M is taken, so none are clamped: with P = M^(k//2),
        tr(M^k) is ||P||_F^2 for even k and ||B P||_F^2 for odd k.
        """
        outer, inner = (1.0 - a) / (2.0 * beta), a / beta
        B = np.zeros_like(self.overlap)
        block = B[: self.lam.size, : self.mu.size]
        np.multiply(np.power(self.lam, inner / 2.0)[:, None], self.block, out=block)
        block *= np.power(self.mu, outer)
        M = B.T @ B
        # test M's entries, not tr(M): tr(M) can overflow where tr(M^beta) does not
        scale = max(float(M.max()), -float(M.min()))
        if not math.isfinite(scale):
            return scale, 0
        k = int(beta)
        if k != beta or k > PRODUCT_ORDER_MAX:
            eig = sym_eig(M, vectors=False)
            return eig.power_sum(beta), eig.clamp_count
        P = np.linalg.matrix_power(M, k // 2)
        Q = P if k % 2 == 0 else B @ P
        return float(np.sum(Q * Q)), 0

    def _value(self, a, measure, name=None):
        """The result at order ``a``: +inf when supp K1 is not inside supp K2,
        else the value ``measure()`` returns with its clamp count; either
        carries the pair's clamp count. With a ``name``, ``measure()`` returns
        a trace t and the value is (a-1)^-1 [log t - log tr(K1)]; under the
        unit-trace contract log tr(K1) is 0, not computed as log(1 + eps)."""
        if not self.support.included:
            return CrossEntropyResult(math.inf, a, self.support, self.clamp_count)
        value, clamped = measure()
        clamp_count = self.clamp_count + clamped
        if name is not None:
            log_t = _log_trace(name, value, clamp_count)
            log_tr1 = math.log(_positive_trace(self.tr1, "K1")) if self.raw else 0.0
            value = (log_t - log_tr1) / (a - 1.0)
        return CrossEntropyResult(value, a, self.support, clamp_count)

    def measures(self, a):
        """The nonmirrored and the one-parameter mirrored value at order ``a``."""
        return self.nonmirrored(a).value, self.mirrored(a, a).value

    def nonmirrored(self, alpha):
        """The nonmirrored measure at ``alpha``; +inf when supp K1 is not inside supp K2."""
        a = _order(alpha)
        return self._value(a, lambda: (self.nonmirrored_trace(a), 0), "nonmirrored")

    def mirrored(self, alpha, beta):
        """The two-parameter mirrored measure; beta = alpha is the one-parameter one."""
        a = _order(alpha)
        return self._value(a, lambda: self.mirrored_trace(a, beta), "mirrored")

    def umegaki(self):
        """The order-1 limit tr(K1 (log K1 - log K2)) / tr(K1)."""

        def measure():
            # a rank-0 K1 (forced by an included rank-0 K2) has a nonpositive trace
            tr1 = _positive_trace(self.tr1, "K1")
            # tr(K1 log K1) - tr(K1 log K2) = lambda . (log lambda - (O o O) . log mu),
            # on the supports: a clamped eigenvalue of K1 counts as zero
            cross = (self.block * self.block) @ np.log(self.mu)
            return float(self.lam @ (np.log(self.lam) - cross)) / tr1, 0

        return self._value(1.0, measure)


def _gram_pair(K1, K2, raw=False):
    """The pair of two Grams the caller holds: the only check of their trace contracts,
    made with the size check before any decomposition; K2 is K1 decomposes once."""
    _check_trace_contract(K1, "K1", raw)
    _check_trace_contract(K2, "K2", raw)
    if K1.n != K2.n:
        raise ArgumentError(f"size mismatch: {K1.n} vs {K2.n}")
    s1 = _spectrum(K1)
    return _Pair(s1, s1 if K2 is K1 else _spectrum(K2), raw)


def nonmirrored_cross_entropy(K1, K2, alpha, *, raw=False):
    """Nonmirrored cross-entropy (a-1)^-1 [log tr(K1^a K2^(1-a)) - log tr(K1)]."""
    a = _order(alpha)
    return _gram_pair(K1, K2, raw).nonmirrored(a)


def mirrored_cross_entropy(K1, K2, alpha, *, raw=False):
    """Mirrored (sandwiched) cross-entropy via tr((K2^((1-a)/2a) K1 K2^((1-a)/2a))^a)."""
    a = _order(alpha)
    return _gram_pair(K1, K2, raw).mirrored(a, a)


def mirrored_cross_entropy_two_param(K1, K2, alpha, beta, *, raw=False):
    """Two-parameter mirrored variant with sandwich exponent split by beta.

    beta = alpha recovers mirrored_cross_entropy. The data-processing
    guarantee holds on the documented (alpha, beta) ranges, e.g.
    beta >= max(alpha, 1 - alpha) for alpha in (0, 1); other values evaluate
    fine but carry no such guarantee.
    """
    a = _order(alpha)
    beta = float(beta)
    if not (beta > 0) or not math.isfinite(beta):
        raise ArgumentError(f"beta must be a positive finite real, got {beta!r}")
    return _gram_pair(K1, K2, raw).mirrored(a, beta)


def mirrored_limit_umegaki(K1, K2, *, raw=False):
    """The order-1 limit of the mirrored measure: tr(K1 (log K1 - log K2)) / tr(K1).

    +inf when supp(K1) is not contained in supp(K2), the inclusion that
    ``support`` reports.
    """
    return _gram_pair(K1, K2, raw).umegaki()


class _Triple:
    """K1, K12 and K2 validated once, holding the CIP and K1's spectrum.

    The value reads K1's eigenvalues and nothing else spectral: the caller's
    ``e1``, else one eigenvalue-only decomposition of K1, which also checks
    K1's entries. K2 and K12 enter only through their grand means, so their
    entries and K2's symmetry are checked here, at every n and m.
    """

    def __init__(self, K1, K12, K2, e1=None):
        _check_gram(K1, "K1")
        _check_gram(K2, "K2")
        if not isinstance(K12, CrossGram):
            raise ArgumentError("K12 must be a CrossGram")
        if K1.normalization != RAW or K2.normalization != RAW:
            raise ContractError(
                "tripartite expectations are grand means of raw Gram matrices; "
                "pass un-normalized inputs"
            )
        n, m = K1.n, K2.n
        if K12.values.shape != (n, m):
            raise ArgumentError(
                f"cross Gram shape {K12.values.shape} inconsistent with ({n}, {m})"
            )
        # K12 first: a non-finite K12 is reported before an asymmetric K2
        _check_finite(K12.values)
        _check_symmetric(K2.values)
        self.K1 = K1
        self.e1 = sym_eig(K1, vectors=False) if e1 is None else e1
        self.cip = (
            float(K1.values.mean()) + float(K2.values.mean()) - 2.0 * float(K12.values.mean())
        )

    def result(self, alpha):
        """The tripartite measure at ``alpha``; a zero CIP gives the -inf / +inf sentinel."""
        a = _order(alpha)
        if self.cip < ZERO_CIP_FLOOR:
            sentinel = -math.inf if a > 1.0 else math.inf
            return CrossEntropyResult(sentinel, a, degenerate=DEGENERATE_ZERO_CIP)
        # the spectrum of nt(K1) is K1's divided by its trace
        s = self.e1.power_sum(a, _positive_trace(self.K1.trace(), "K1"))
        entropy_term = _log_trace("tripartite", s, self.e1.clamp_count) / (a - 1.0)
        value = math.log(self.cip) / (a - 1.0) + entropy_term
        return CrossEntropyResult(
            value=value,
            alpha=a,
            clamp_count=self.e1.clamp_count,
            entropy_term=entropy_term,
        )


def tripartite_cross_entropy(K1, K12, K2, alpha):
    """Tripartite cross-entropy from raw Grams plus the cross Gram.

    K1 (n x n) and K2 (m x m) must be raw: the cross-information potential
    CIP = mean(K1) + mean(K2) - 2*mean(K12) is a plain grand mean, the biased
    squared-MMD estimate, which does not depend on sample order. The entropy
    term trace-normalizes K1 internally and needs only K1's eigenvalues, so
    one ``eigvalsh`` at any n and m. No support test gates the measure (it is
    defined through means, not inverse powers) and ``support`` is None.
    Non-finite entries in any of the three matrices and an asymmetric K1 or
    K2 are an ArgumentError.
    """
    a = _order(alpha)
    return _Triple(K1, K12, K2).result(a)


def matrix_renyi_entropy(K, alpha):
    """Matrix Renyi entropy S_a(K) = (1-a)^-1 log tr(K^a) of a unit-trace Gram.

    The maximally mixed identity/n maps to log n and any rank-one unit-trace
    matrix to 0, matching S_a(K) = log n - C_a(K || identity/n) exactly.
    """
    a = _order(alpha)
    _check_trace_contract(K, "K", raw=False)
    eig = sym_eig(K, vectors=False)
    return _log_trace("entropy", eig.power_sum(a), eig.clamp_count) / (1.0 - a)


def joint_entropy(K1, K2, alpha):
    """Entropy of the unit-trace-normalized Hadamard product of K1 and K2."""
    a = _order(alpha)
    return matrix_renyi_entropy(hadamard_joint(K1, K2), a)


def conditional_entropy(K1, K2, alpha):
    """S_a(K1 | K2) = S_a(K1, K2) - S_a(K2)."""
    return joint_entropy(K1, K2, alpha) - matrix_renyi_entropy(K2, alpha)


def mutual_information(K1, K2, alpha):
    """I_a(K1; K2) = S_a(K1) - S_a(K1 | K2) = S(K1) + S(K2) - S(K1, K2)."""
    return matrix_renyi_entropy(K1, alpha) - conditional_entropy(K1, K2, alpha)


def _min_supported_eigenvalue(values, name):
    support = sym_eig(values, vectors=False).support
    if support.size == 0:
        raise DegenerateMatrixError(f"{name} has numerical rank 0")
    return float(support[-1]), float(support[0])


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
    _check_gram(K1, "K1")
    _check_gram(K2, "K2")
    if K1.n != K2.n:
        raise ArgumentError(f"size mismatch: {K1.n} vs {K2.n}")
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
