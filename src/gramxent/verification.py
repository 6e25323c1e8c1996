"""Self-checks: random instances, pinching, and the property suite.

run_property_suite exercises the estimator identities and inequalities that
hold for every well-formed input (nullity, invariance, scaling, additivity,
order monotonicity, measure ordering, data processing under pinching,
continuity, midpoint convexity of the trace functionals) on randomly
generated Gram pairs. Violations are reported, not raised, so a failing
property shows up as a report entry with ``passed=False``.

The ``tamper`` argument exists to prove the suite can fail: it injects a
known offset into the scaling check and nothing else.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .estimators import _Pair, tripartite_cross_entropy
from .experiments import _child_seed
from .kernels import (
    UNIT_TRACE,
    CrossGram,
    GramMatrix,
    KernelSpec,
    SampleSet,
    gram_cross,
    gram_univariate,
    normalize_trace,
)

DEFAULT_SIZES = (4, 16, 64)
DEFAULT_ALPHA_GRID = (0.3, 0.5, 0.7, 1.5, 2.0, 4.0)
TAMPER_MODES = ("scaling",)


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


def random_gram(seed, n, d=3, spec=None):
    """Unit-trace Gram of n standard-normal points in d dimensions."""
    if spec is None:
        spec = KernelSpec()
    rng = np.random.default_rng(seed)
    X = SampleSet(rng.standard_normal((n, d)))
    return normalize_trace(gram_univariate(spec, X))


@dataclass(frozen=True)
class PropertyReport:
    name: str
    instances: int
    max_violation: float
    tolerance: float
    passed: bool


class _Tally:
    """Accumulates violations for one property."""

    def __init__(self, name, tolerance):
        self.name = name
        self.tolerance = tolerance
        self.count = 0
        self.worst = 0.0

    def add(self, violation):
        self.count += 1
        if violation > self.worst:
            self.worst = float(violation)

    def report(self):
        return PropertyReport(
            name=self.name,
            instances=self.count,
            max_violation=self.worst,
            tolerance=self.tolerance,
            passed=self.worst <= self.tolerance,
        )


def _conjugate(Q, K):
    M = Q @ K.values @ Q.T
    M = 0.5 * (M + M.T)
    return GramMatrix(M, normalization=UNIT_TRACE)


def _scaled(G, rho):
    return GramMatrix(rho * G.values)


def _mix(A, B):
    return GramMatrix(0.5 * (A.values + B.values))


def _measures(pair, a):
    """The nonmirrored and mirrored values of a decomposed pair at order a."""
    return pair.nonmirrored(a).value, pair.mirrored(a, a).value


@dataclass(frozen=True)
class _Instance:
    """One randomly drawn test instance: four unit-trace Grams plus the raw
    sample-level triple used by the tripartite checks."""

    n: int
    K1: GramMatrix
    K2: GramMatrix
    K3: GramMatrix
    K4: GramMatrix
    G1_raw: GramMatrix
    G2_raw: GramMatrix
    C12: CrossGram


def _draw_instance(seed, k, size_index, n, spec):
    # d = 5 keeps the worst-case condition number across draws near 1.5e2;
    # the inverse-power round-trips (order 4 needs K^-3) lose roughly
    # eps * cond^2, so this leaves two orders of magnitude under the
    # tightest suite tolerance
    xs = []
    for j in range(4):
        rng = np.random.default_rng(_child_seed(seed, k, size_index, j))
        xs.append(SampleSet(rng.standard_normal((n, 5))))
    grams_raw = [gram_univariate(spec, X) for X in xs]
    grams = [normalize_trace(g) for g in grams_raw]
    C12 = gram_cross(spec, xs[0], xs[1])
    return _Instance(
        n=n,
        K1=grams[0],
        K2=grams[1],
        K3=grams[2],
        K4=grams[3],
        G1_raw=grams_raw[0],
        G2_raw=grams_raw[1],
        C12=C12,
    )


def run_property_suite(
    seed=0,
    sizes=DEFAULT_SIZES,
    alpha_grid=DEFAULT_ALPHA_GRID,
    n_seeds=20,
    tamper=None,
):
    """Run every property family on random instances; return a report list.

    Each entry carries the property name, how many assertions were checked,
    the worst violation seen, the tolerance, and the pass flag. tamper may be
    "scaling" to deliberately break the scaling check (for testing that the
    suite detects violations).
    """
    if tamper is not None and tamper not in TAMPER_MODES:
        raise ArgumentError(f"unknown tamper mode {tamper!r}; known: {TAMPER_MODES}")
    alphas = sorted(float(a) for a in alpha_grid)
    spec = KernelSpec()

    nullity = _Tally("nullity", 1e-10)
    nonneg = _Tally("non-negativity", 1e-10)
    cip_nonneg = _Tally("cip-non-negativity", 1e-12)
    invariance = _Tally("unitary-invariance", 1e-9)
    scaling = _Tally("scaling-law", 1e-9)
    additivity = _Tally("tensor-additivity", 1e-8)
    monotone = _Tally("order-monotonicity", 1e-10)
    ordering = _Tally("measure-ordering", 1e-10)
    dpi = _Tally("pinching-dpi", 1e-9)
    continuity = _Tally("continuity", 1e-3)
    convexity = _Tally("midpoint-convexity", 1e-9)

    tamper_offset = 1e-3 if tamper == "scaling" else 0.0
    rho1, rho2 = 1.7, 0.4

    for k in range(n_seeds):
        for si, n in enumerate(sizes):
            inst = _draw_instance(seed, k, si, n, spec)
            K1, K2 = inst.K1, inst.K2
            # one decomposed pair per compared matrix pair; the base values
            # are reused by several checks below
            base = _Pair(K1, K2)
            c_non = {a: base.nonmirrored(a).value for a in alphas}
            c_mir = {a: base.mirrored(a, a).value for a in alphas}
            c_tri = {
                a: tripartite_cross_entropy(inst.G1_raw, inst.C12, inst.G2_raw, a).value
                for a in alphas
            }
            cip = (
                float(inst.G1_raw.values.mean())
                + float(inst.G2_raw.values.mean())
                - 2.0 * float(inst.C12.values.mean())
            )
            cip_nonneg.add(max(0.0, -cip))
            cip_below_one = cip < 1.0

            same = _Pair(K1, K1)
            for a in alphas:
                for value in _measures(same, a):
                    nullity.add(abs(value))
                nonneg.add(max(0.0, -c_non[a]))
                nonneg.add(max(0.0, -c_mir[a]))

            Q = random_orthogonal(_child_seed(seed, k, si, 100), n)
            conj = _Pair(_conjugate(Q, K1), _conjugate(Q, K2))
            for a in alphas:
                beta = max(a, 1.0 - a)
                invariance.add(abs(conj.nonmirrored(a).value - c_non[a]))
                invariance.add(abs(conj.mirrored(a, a).value - c_mir[a]))
                invariance.add(abs(conj.mirrored(a, beta).value - base.mirrored(a, beta).value))

            G1, G2 = inst.G1_raw, inst.G2_raw
            unscaled = _Pair(G1, G2, raw=True)
            scaled = _Pair(_scaled(G1, rho1), _scaled(G2, rho2), raw=True)
            expected = math.log(rho1 / rho2)
            for a in alphas:
                for whole, part in zip(_measures(scaled, a), _measures(unscaled, a)):
                    scaling.add(abs(whole - part - expected) + tamper_offset)
                tri_scaled = tripartite_cross_entropy(
                    _scaled(G1, rho1), CrossGram(rho1 * inst.C12.values), _scaled(G2, rho1), a
                ).value
                tri_expected = math.log(rho1) / (a - 1.0)
                scaling.add(abs(tri_scaled - c_tri[a] - tri_expected) + tamper_offset)

            for lo, hi in zip(alphas, alphas[1:]):
                monotone.add(max(0.0, c_non[lo] - c_non[hi]))
                monotone.add(max(0.0, c_mir[lo] - c_mir[hi]))
                # the tripartite CIP term has a pole at order 1, so its
                # monotonicity only holds with both orders on the same side
                same_side = (lo < 1.0) == (hi < 1.0)
                if cip_below_one and same_side:
                    monotone.add(max(0.0, c_tri[lo] - c_tri[hi]))

            for a in (0.5, 2.0):
                nm, mi = _measures(base, a)
                ordering.add(max(0.0, mi - nm))

            part = halves(n)
            pinched = _Pair(pinch(K1, part), pinch(K2, part))
            for a in alphas:
                if 0.0 < a <= 2.0:
                    dpi.add(max(0.0, pinched.nonmirrored(a).value - c_non[a]))
                if a >= 0.5:
                    dpi.add(max(0.0, pinched.mirrored(a, a).value - c_mir[a]))

            if base.e1.eigenvalues[-1] > 1e-3:
                noise_rng = np.random.default_rng(_child_seed(seed, k, si, 300))
                S = noise_rng.standard_normal((n, n))
                S = 0.5 * (S + S.T)
                noise = 1e-6 * S / np.linalg.norm(S)
                perturbed = _Pair(normalize_trace(GramMatrix(K1.values + noise)), K2)
                for a in alphas:
                    continuity.add(abs(perturbed.nonmirrored(a).value - c_non[a]))
                    continuity.add(abs(perturbed.mirrored(a, a).value - c_mir[a]))

            other = _Pair(inst.K3, inst.K4)
            mixed = _Pair(_mix(K1, inst.K3), _mix(K2, inst.K4), raw=True)
            for a in alphas:
                if a != 1.0 and a <= 2.0:
                    mid = mixed.nonmirrored_trace(a)
                    avg = 0.5 * (base.nonmirrored_trace(a) + other.nonmirrored_trace(a))
                    gap = mid - avg if a > 1.0 else avg - mid
                    convexity.add(max(0.0, gap))
                if a >= 0.5:
                    mid, _ = mixed.mirrored_trace(a, a)
                    avg = 0.5 * (base.mirrored_trace(a, a)[0] + other.mirrored_trace(a, a)[0])
                    gap = mid - avg if a > 1.0 else avg - mid
                    convexity.add(max(0.0, gap))

        # tensor additivity on a small kron pair, once per seed
        a1 = random_gram(_child_seed(seed, k, 200), 2)
        a2 = random_gram(_child_seed(seed, k, 201), 2)
        b1 = random_gram(_child_seed(seed, k, 202), 3)
        b2 = random_gram(_child_seed(seed, k, 203), 3)
        kron = _Pair(
            GramMatrix(np.kron(a1.values, b1.values), normalization=UNIT_TRACE),
            GramMatrix(np.kron(a2.values, b2.values), normalization=UNIT_TRACE),
        )
        first, second = _Pair(a1, a2), _Pair(b1, b2)
        for a in alphas:
            for whole, p1, p2 in zip(
                _measures(kron, a), _measures(first, a), _measures(second, a)
            ):
                additivity.add(abs(whole - (p1 + p2)))

    return [
        t.report()
        for t in (
            nullity,
            nonneg,
            cip_nonneg,
            invariance,
            scaling,
            additivity,
            monotone,
            ordering,
            dpi,
            continuity,
            convexity,
        )
    ]
