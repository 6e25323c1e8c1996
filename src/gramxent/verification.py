"""Self-checks: random instances, pinching, and the property suite.

run_property_suite exercises the estimator identities and inequalities that
hold for every well-formed input (nullity, invariance, scaling, additivity,
order monotonicity, measure ordering, data processing under pinching,
continuity, midpoint convexity of the trace functionals) on randomly
generated Gram pairs. Violations are reported, not raised, so a failing
property shows up as a report entry with ``passed=False``: a raw trace off
by a constant factor, for one, fails the scaling law and nothing else.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ArgumentError
from .estimators import _gram_pair, _Pair, _spectrum, _Triple, _orders
from .experiments import _check_grid, _child_seed
from .kernels import (
    UNIT_TRACE,
    CrossGram,
    GramMatrix,
    KernelSpec,
    SampleSet,
    _check_gram,
    gram_cross,
    gram_univariate,
    normalize_trace,
)

# Every property the suite checks and its tolerance, in report order.
_TOLERANCES = {
    "nullity": 1e-10,
    "non-negativity": 1e-10,
    "cip-non-negativity": 1e-12,
    "unitary-invariance": 1e-9,
    "scaling-law": 1e-9,
    "tensor-additivity": 1e-8,
    "order-monotonicity": 1e-10,
    "measure-ordering": 1e-10,
    "pinching-dpi": 1e-9,
    "continuity": 1e-3,
    "midpoint-convexity": 1e-9,
}


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks of indices covering range(n) exactly once."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(tuple(int(i) for i in b) for b in self.blocks)
        if not blocks or any(len(b) == 0 for b in blocks):
            raise ArgumentError("partition needs at least one non-empty block")
        flat = sorted(i for b in blocks for i in b)
        if flat != list(range(len(flat))):
            raise ArgumentError(
                "partition blocks must cover 0..n-1 with no repeats or gaps"
            )
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self):
        return sum(len(b) for b in self.blocks)


def halves(n):
    """Two-block partition splitting range(n) down the middle."""
    mid = n // 2
    return Partition((tuple(range(mid)), tuple(range(mid, n))))


def pinch(G, partition):
    """Block-diagonal restriction of a Gram matrix.

    Zeroes every entry outside the partition's diagonal blocks. The diagonal
    is untouched, so the trace is preserved exactly and the normalization
    flag carries over. Idempotent, and pinching by a refinement after a
    coarsening equals pinching by the refinement alone.
    """
    _check_gram(G, "G")
    if partition.n != G.n:
        raise ArgumentError(f"partition covers {partition.n} indices, matrix has {G.n}")
    out = np.zeros_like(G.values)
    for block in partition.blocks:
        idx = np.asarray(block, dtype=int)
        out[np.ix_(idx, idx)] = G.values[np.ix_(idx, idx)]
    return GramMatrix(out, normalization=G.normalization)


def random_orthogonal(seed, n):
    """Haar-ish random orthogonal matrix via QR with the sign convention fixed."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(A)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def random_gram(seed, n, d=3):
    """Unit-trace gaussian Gram of n standard-normal points in d dimensions."""
    rng = np.random.default_rng(seed)
    X = SampleSet(rng.standard_normal((n, d)))
    return normalize_trace(gram_univariate(KernelSpec(), X))


@dataclass(frozen=True)
class PropertyReport:
    name: str
    instances: int
    max_violation: float
    tolerance: float
    passed: bool


def _conjugate(Q, K):
    M = Q @ K.values @ Q.T
    M = 0.5 * (M + M.T)
    return GramMatrix(M, normalization=UNIT_TRACE)


def _scaled(G, rho):
    return GramMatrix(rho * G.values)


def _mix(A, B):
    return GramMatrix(0.5 * (A.values + B.values))


def _draw_instance(seed, k, size_index, n, spec):
    """One random test instance: four unit-trace Grams, then the raw Grams of
    the first two sample sets and their cross Gram for the tripartite checks."""
    # d = 5 keeps the worst-case condition number across draws near 1.5e2;
    # the inverse-power round-trips (order 4 needs K^-3) lose roughly
    # eps * cond^2, so this leaves two orders of magnitude under the
    # tightest suite tolerance
    xs = []
    for j in range(4):
        rng = np.random.default_rng(_child_seed(seed, k, size_index, j))
        xs.append(SampleSet(rng.standard_normal((n, 5))))
    raw = [gram_univariate(spec, X) for X in xs]
    grams = tuple(normalize_trace(g) for g in raw)
    return grams, (raw[0], raw[1]), gram_cross(spec, xs[0], xs[1])


def run_property_suite(
    seed: int = 0,
    sizes: tuple[int, ...] = (4, 16, 64),
    alpha_grid: tuple[float, ...] = (0.3, 0.5, 0.7, 1.5, 2.0, 4.0),
    n_seeds: int = 20,
):
    """Run every property family on random instances; return a report list.

    Each entry carries the property name, how many assertions were checked,
    the worst violation seen, the tolerance, and the pass flag.
    """
    if n_seeds < 1 or not sizes or not alpha_grid:
        raise ArgumentError("the suite needs n_seeds >= 1 and non-empty sizes and orders")
    _check_grid("sizes", sizes)
    _check_grid("alpha_grid", alpha_grid)
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    if min(sizes) < 2:
        raise ArgumentError(f"matrix sizes must be >= 2, got {min(sizes)}")
    alphas = sorted(_orders(alpha_grid))
    orders = np.array(alphas)
    ones = [(a, a) for a in alphas]
    betas = [(a, max(a, 1.0 - a)) for a in alphas]
    # pinching and midpoint convexity hold for the nonmirrored measure at
    # a <= 2 and for the mirrored one at a >= 1/2
    low, high = orders <= 2.0, orders >= 0.5
    low_orders = orders[low].tolist()
    high_keys = [key for key, h in zip(ones, high) if h]
    spec = KernelSpec()

    tally = {name: [] for name in _TOLERANCES}  # arrays of the violations seen, per property

    rho1, rho2 = 1.7, 0.4

    # a gated +inf or a zero CIP's sentinel makes inf - inf: a NaN violation,
    # which fails its property without a warning
    with np.errstate(invalid="ignore"):
        for k in range(n_seeds):
            for si, n in enumerate(sizes):
                (K1, K2, K3, K4), (G1, G2), C12 = _draw_instance(seed, k, si, n, spec)
                # one spectrum per matrix, shared by the base, self and perturbed pairs
                s1, s2 = _spectrum(K1), _spectrum(K2)
                base = _Pair(s1, s2)
                c_non, mir = base.values(alphas, ones + betas)
                c_mir = mir[: len(alphas)]
                # G1, G2 are K1, K2 times their traces: the triple and scaling law read the base
                e1 = replace(s1[0], eigenvalues=G1.trace() * s1[0].eigenvalues)
                tri = _Triple(G1, C12, G2, e1)
                c_tri = np.array([tri.result(a).value for a in alphas])
                tally["cip-non-negativity"].append([max(0.0, -tri.cip)])

                tally["nullity"] += [np.abs(v) for v in _Pair(s1, s1).values(alphas, ones)]
                tally["non-negativity"] += [np.maximum(0.0, -c_non), np.maximum(0.0, -c_mir)]

                Q = random_orthogonal(_child_seed(seed, k, si, 100), n)
                conj = _gram_pair(_conjugate(Q, K1), _conjugate(Q, K2)).values(alphas, ones + betas)
                tally["unitary-invariance"] += [np.abs(v - c) for v, c in zip(conj, (c_non, mir))]

                S1 = _scaled(G1, rho1)
                t1 = _spectrum(S1)
                scaled = _Pair(t1, _spectrum(_scaled(G2, rho2)), raw=True)
                tri_scaled = _Triple(S1, CrossGram(rho1 * C12.values), _scaled(G2, rho1), t1[0])
                expected = math.log(rho1 * G1.trace() / (rho2 * G2.trace()))
                for whole, part in zip(scaled.values(alphas, ones), (c_non, c_mir)):
                    tally["scaling-law"].append(np.abs(whole - part - expected))
                t_scaled = np.array([tri_scaled.result(a).value for a in alphas])
                gap = t_scaled - c_tri - math.log(rho1) / (orders - 1.0)
                tally["scaling-law"].append(np.abs(gap))

                for c in (c_non, c_mir):
                    tally["order-monotonicity"].append(np.maximum(0.0, c[:-1] - c[1:]))
                # the tripartite CIP term has a pole at order 1, so its
                # monotonicity only holds with both orders on the same side
                if tri.cip < 1.0:
                    same_side = (orders[:-1] < 1.0) == (orders[1:] < 1.0)
                    gap = (c_tri[:-1] - c_tri[1:])[same_side]
                    tally["order-monotonicity"].append(np.maximum(0.0, gap))

                nm, mi = base.values((0.5, 2.0), [(0.5, 0.5), (2.0, 2.0)])
                tally["measure-ordering"].append(np.maximum(0.0, mi - nm))

                part = halves(n)
                pinched = _gram_pair(pinch(K1, part), pinch(K2, part)).values(low_orders, high_keys)
                for whole, c in zip(pinched, (c_non[low], c_mir[high])):
                    tally["pinching-dpi"].append(np.maximum(0.0, whole - c))

                if s1[0].eigenvalues[-1] > 1e-3:
                    noise_rng = np.random.default_rng(_child_seed(seed, k, si, 300))
                    S = noise_rng.standard_normal((n, n))
                    S = 0.5 * (S + S.T)
                    noise = 1e-6 * S / np.linalg.norm(S)
                    K1_noisy = normalize_trace(GramMatrix(K1.values + noise))
                    perturbed = _Pair(_spectrum(K1_noisy), s2)
                    for whole, part in zip(perturbed.values(alphas, ones), (c_non, c_mir)):
                        tally["continuity"].append(np.abs(whole - part))

                mixed = _gram_pair(_mix(K1, K3), _mix(K2, K4), raw=True)
                other = _gram_pair(K3, K4)
                traced = [p.traces(low_orders, high_keys) for p in (mixed, base, other)]
                for (mid, b, o), a in zip(zip(*traced), (orders[low], orders[high])):
                    gap = mid - 0.5 * (b + o)
                    gap = np.where(a > 1.0, gap, -gap)
                    tally["midpoint-convexity"].append(np.maximum(0.0, gap))

            # tensor additivity on a small kron pair, once per seed
            a1 = random_gram(_child_seed(seed, k, 200), 2)
            a2 = random_gram(_child_seed(seed, k, 201), 2)
            b1 = random_gram(_child_seed(seed, k, 202), 3)
            b2 = random_gram(_child_seed(seed, k, 203), 3)
            kron = _gram_pair(
                GramMatrix(np.kron(a1.values, b1.values), normalization=UNIT_TRACE),
                GramMatrix(np.kron(a2.values, b2.values), normalization=UNIT_TRACE),
            )
            first, second = _gram_pair(a1, a2), _gram_pair(b1, b2)
            measured = (p.values(alphas, ones) for p in (kron, first, second))
            for whole, p1, p2 in zip(*measured):
                tally["tensor-additivity"].append(np.abs(whole - (p1 + p2)))

    reports = []
    for name, tolerance in _TOLERANCES.items():
        seen = np.concatenate([[], *tally[name]])
        worst = float(np.max(seen, initial=0.0))  # a NaN violation fails its property
        reports.append(PropertyReport(name, seen.size, worst, tolerance, worst <= tolerance))
    return reports
