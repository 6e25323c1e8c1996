"""End-to-end acceptance gates.

One test per criterion, each printing a single `[accept] criterion-N PASS`
or `... FAIL` line (run with -s to see them on success). Tolerances here are
fixed; a criterion the implementation cannot meet fails openly instead of
being loosened.
"""

import math
import time

import numpy as np

from gramxent import (
    GramMatrix,
    KernelSpec,
    SampleSet,
    UNIT_TRACE,
    default_config,
    emit_results,
    gram_cross,
    gram_univariate,
    mirrored_cross_entropy,
    mirrored_cross_entropy_two_param,
    mirrored_limit_umegaki,
    nonmirrored_cross_entropy,
    random_gram,
    run_mean_shift,
    run_property_suite,
    run_tripartite,
    run_variance_scale,
    sample_gaussian,
    trace_distance_bounds,
    tripartite_cross_entropy,
)
from gramxent.experiments import RUNNERS


def _seed(*path):
    return int(np.random.SeedSequence(list(path)).generate_state(1, dtype=np.uint64)[0])


def _record(num, ok, detail=""):
    print(f"[accept] criterion-{num} {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail and not ok else ""))
    assert ok, f"criterion-{num}: {detail}"


def _mean_curves(rows, grid):
    """Replicate-mean value per (alpha, measure) group, ordered along grid."""
    acc = {}
    for r in rows:
        acc.setdefault((r.alpha, r.measure), {}).setdefault(r.parameter, []).append(r.value)
    return {
        key: [float(np.mean(per[p])) for p in grid] for key, per in acc.items()
    }


# criteria gated by the axiom suite, with their pinned tolerances
SUITE_GATES = {
    "nullity": 1e-10,
    "unitary-invariance": 1e-9,
    "scaling-law": 1e-9,
    "tensor-additivity": 1e-8,
    "order-monotonicity": 1e-10,
    "measure-ordering": 1e-10,
    "pinching-dpi": 1e-9,
    "midpoint-convexity": 1e-9,
}


def test_criterion_1_axiom_suite():
    t0 = time.perf_counter()
    reports = run_property_suite(
        seed=0,
        sizes=(4, 16, 64),
        alpha_grid=(0.3, 0.5, 0.7, 1.5, 2.0, 4.0),
        n_seeds=20,
    )
    elapsed = time.perf_counter() - t0
    by_name = {r.name: r for r in reports}
    bad = []
    for name, tol in SUITE_GATES.items():
        r = by_name[name]
        if r.tolerance != tol:
            bad.append(f"{name}: tolerance drifted to {r.tolerance:.3g}")
        elif not r.passed:
            bad.append(f"{name}: worst {r.max_violation:.3g} > {tol:.1g}")
    if elapsed >= 60.0:
        bad.append(f"runtime {elapsed:.1f}s >= 60s")
    _record(1, not bad, "; ".join(bad))


def test_criterion_2_diagonal_oracle():
    alphas = (0.3, 0.5, 1.5, 2.0, 4.0)
    worst = 0.0
    for i in range(200):
        rng = np.random.default_rng(_seed(42, i))
        n = int(rng.integers(2, 9))
        lam = rng.uniform(0.1, 1.0, n)
        lam /= lam.sum()
        mu = rng.uniform(0.1, 1.0, n)
        mu /= mu.sum()
        K1 = GramMatrix(np.diag(lam), normalization=UNIT_TRACE)
        K2 = GramMatrix(np.diag(mu), normalization=UNIT_TRACE)
        a = alphas[i % len(alphas)]
        scalar = math.log(float(np.sum(lam**a * mu ** (1.0 - a)))) / (a - 1.0)
        values = [
            nonmirrored_cross_entropy(K1, K2, a).value,
            mirrored_cross_entropy(K1, K2, a).value,
        ]
        # the diagonal closed form does not depend on beta
        for beta in (a, 0.9, 2.3):
            values.append(mirrored_cross_entropy_two_param(K1, K2, a, beta).value)
        for v in values:
            worst = max(worst, abs(v - scalar) / abs(scalar))
    _record(2, worst <= 1e-9, f"worst relative error {worst:.3g}")


def _plain_kernel(u, v):
    s = 0.0
    for x, y in zip(u, v):
        t = x - y
        s += t * t
    return math.exp(-s)


def _double_sum_cip(xs, ys):
    """Biased squared-MMD estimate as explicit double sums over plain floats."""
    n, m = len(xs), len(ys)
    kxx = math.fsum(_plain_kernel(u, v) for u in xs for v in xs)
    kyy = math.fsum(_plain_kernel(u, v) for u in ys for v in ys)
    kxy = math.fsum(_plain_kernel(u, v) for u in xs for v in ys)
    return kxx / n**2 + kyy / m**2 - 2.0 * kxy / (n * m)


def test_criterion_3_mmd_equivalence():
    spec = KernelSpec("gaussian", 1.0)
    alphas = (0.5, 1.5, 2.0, 4.0)
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(_seed(43, i))
        n = int(rng.integers(4, 129))
        m = int(rng.integers(4, 129))
        d = int(rng.integers(1, 11))
        xs = rng.standard_normal((n, d))
        ys = rng.standard_normal((m, d)) + 0.3 * rng.standard_normal(d)
        X, Y = SampleSet(xs), SampleSet(ys)
        a = alphas[i % len(alphas)]
        res = tripartite_cross_entropy(
            gram_univariate(spec, X), gram_cross(spec, X, Y), gram_univariate(spec, Y), a
        )
        cip = math.exp((a - 1.0) * (res.value - res.entropy_term))
        oracle = _double_sum_cip(
            [tuple(map(float, r)) for r in xs], [tuple(map(float, r)) for r in ys]
        )
        worst = max(worst, abs(cip - oracle) / abs(oracle))
    _record(3, worst <= 1e-10, f"worst relative error {worst:.3g}")


def test_criterion_4_umegaki_limit():
    bad = []
    for i in range(50):
        K1 = random_gram(_seed(44, i, 0), 16, 5)
        K2 = random_gram(_seed(44, i, 1), 16, 5)
        limit = mirrored_limit_umegaki(K1, K2).value
        curvature = max(
            abs(mirrored_cross_entropy(K1, K2, 1.01).value - limit) / 0.01,
            abs(mirrored_cross_entropy(K1, K2, 0.99).value - limit) / 0.01,
        )
        for a in (0.999, 1.001):
            gap = abs(mirrored_cross_entropy(K1, K2, a).value - limit)
            allowed = 5.0 * abs(a - 1.0) * curvature
            if gap > allowed:
                bad.append(f"pair {i}: gap {gap:.3g} > {allowed:.3g} at alpha {a}")
        for side in (1.0, -1.0):
            gaps = [
                abs(mirrored_cross_entropy(K1, K2, 1.0 + side * 10.0**-k).value - limit)
                for k in (2, 3, 4)
            ]
            if not (gaps[0] >= gaps[1] - 1e-15 and gaps[1] >= gaps[2] - 1e-15):
                bad.append(f"pair {i}: gaps {gaps} not monotone, side {side:+.0f}")
    _record(4, not bad, "; ".join(bad[:3]))


def _embedding_errors(config):
    """e = ||mu_X - mu_Y||_H per (d, n) cell and replicate, on the convergence draws.

    X and Y are the two same-distribution sets run_convergence draws for the
    cell (same seed path, scale and bandwidth). Their population CIP is 0, so
    sqrt(CIP), recovered from the tripartite result as in criterion 3, is the
    estimation error of the empirical kernel mean embeddings.
    """
    spec = KernelSpec("gaussian", 1.0)
    errors = {}
    for di, d in enumerate(config.d_grid):
        for ni, n in enumerate(config.n_grid):
            for r in range(config.replicates):
                X, Y = (
                    sample_gaussian(
                        _seed(config.seed, r, di, ni, side), n, d,
                        scale=config.sample_scale,
                    )
                    for side in (0, 1)
                )
                for a in config.alpha_grid:
                    res = tripartite_cross_entropy(
                        gram_univariate(spec, X), gram_cross(spec, X, Y),
                        gram_univariate(spec, Y), a,
                    )
                    cip = math.exp((a - 1.0) * (res.value - res.entropy_term))
                    errors.setdefault((d, n), []).append(math.sqrt(cip))
    return errors


def test_criterion_5_dimension_agnosticity():
    """The estimator converges at a rate that does not depend on d.

    The claim is the kernel-mean-embedding rate n^(-1/2) with a constant free
    of d (Tolstikhin, Sriperumbudur & Muandet, JMLR 2017). For unpaired
    same-distribution sets the tripartite measure carries the estimate: its
    CIP is the biased squared MMD, so e = sqrt(CIP) is the embedding error.
    Gates: every e is positive and finite; per d, the log-log slope of the
    replicate-mean e against n lies in [-0.8, -0.2]; the slopes differ across
    d by at most 0.15; every replicate-mean e is at most 1.1 * sqrt(2/n),
    since E e <= sqrt(2 (1 - E k(x, x')) / n) and k(x, x) = 1 for the
    gaussian kernel, whatever d is.

    The bipartite convergence rows are not gated: they compare the Grams of
    two unpaired sets index by index, so they change when one set is
    reordered, and in a basis shared by both sets their value is +inf.

    Limit: at unit bandwidth and d >= 25 the off-diagonal kernel values are
    about 0, so e there is its diagonal part, close to sqrt(2/n).
    """
    t0 = time.perf_counter()
    config = default_config(
        "convergence", alpha_grid=(2.0,), n_grid=(32, 64, 128, 256, 512)
    )
    errors = _embedding_errors(config)
    elapsed = time.perf_counter() - t0
    bad = []
    means = {}
    for cell, es in errors.items():
        if all(math.isfinite(e) and e > 0 for e in es):
            means[cell] = float(np.mean(es))
        else:
            bad.append(f"(d, n) = {cell}: an error is not positive finite")
    slopes = {}
    for d in config.d_grid:
        series = [means.get((d, n)) for n in config.n_grid]
        if None in series:
            continue
        slopes[d] = float(np.polyfit(np.log(config.n_grid), np.log(series), 1)[0])
        if not (-0.8 <= slopes[d] <= -0.2):
            bad.append(f"d={d}: log-log slope {slopes[d]:+.3f} outside [-0.8, -0.2]")
    spread = max(slopes.values(), default=0.0) - min(slopes.values(), default=0.0)
    if not spread <= 0.15:
        bad.append(f"slopes differ across d by {spread:.3f} > 0.15")
    ratios = {cell: v / math.sqrt(2.0 / cell[1]) for cell, v in means.items()}
    bad += [
        f"(d, n) = {cell}: mean error {q:.3f} x sqrt(2/n) exceeds 1.1"
        for cell, q in ratios.items()
        if not q <= 1.1
    ]
    if elapsed >= 300.0:
        bad.append(f"runtime {elapsed:.0f}s >= 300s")
    if bad:
        bad.append(
            "slopes " + ", ".join(f"d={d}: {v:+.3f}" for d, v in slopes.items())
            + f"; worst bound ratio {max(ratios.values(), default=math.nan):.3f}"
        )
    _record(5, not bad, "; ".join(bad))


def test_criterion_6_kernel_choice():
    bad = []
    ms_cfg = default_config("mean-shift")
    ms_rows = run_mean_shift(ms_cfg)
    shifts = list(ms_cfg.shift_grid)

    # gaussian Grams are shift invariant, so every per-replicate curve is flat
    flat = {}
    for r in ms_rows:
        if r.kernel == "gaussian":
            flat.setdefault((r.alpha, r.measure, r.seed), []).append(r.value)
    worst_spread = max(max(v) - min(v) for v in flat.values())
    if not worst_spread < 1e-10:
        bad.append(f"gaussian shift spread {worst_spread:.3g} >= 1e-10")

    eip = [r for r in ms_rows if r.kernel == "exponential-inner-product"]
    for key, vals in _mean_curves(eip, shifts).items():
        if shifts[int(np.argmin(vals))] != 0.0:
            bad.append(f"inner-product argmin away from zero shift for {key}")

    vs_cfg = default_config("variance-scale")
    vs = [r for r in run_variance_scale(vs_cfg) if r.kernel == "gaussian"]
    scales = list(vs_cfg.scale_grid)
    near_unit = (0.5, 1.0, 2.0)  # one grid step around scale 1
    for key, vals in _mean_curves(vs, scales).items():
        if scales[int(np.argmin(vals))] not in near_unit:
            bad.append(f"variance argmin away from unit scale for {key}")
    _record(6, not bad, "; ".join(bad[:4]))


def test_criterion_7_tripartite_behavior():
    bad = []
    config = default_config("tripartite")
    rows = run_tripartite(config)
    if not all(math.isfinite(r.value) for r in rows):
        bad.append("non-finite output")
    if not all(r.n == 64 and r.m == 96 for r in rows):
        bad.append("expected the non-square n=64, m=96 geometry")

    shifts = list(config.shift_grid)
    zero = shifts.index(0.0)
    shift_rows = [r for r in rows if r.measure == "tripartite-shift"]
    for key, vals in _mean_curves(shift_rows, shifts).items():
        if int(np.argmin(vals)) != zero:
            bad.append(f"shift argmin away from zero for {key}")
        for arm_name, arm in (("right", vals[zero:]), ("left", vals[: zero + 1][::-1])):
            if any(b < a - 1e-6 for a, b in zip(arm, arm[1:])):
                bad.append(f"not monotone in |shift| on the {arm_name} arm for {key}")

    scales = list(config.scale_grid)
    near_unit = (0.75, 1.0, 1.5)
    scale_rows = [r for r in rows if r.measure == "tripartite-scale"]
    for key, vals in _mean_curves(scale_rows, scales).items():
        if scales[int(np.argmin(vals))] not in near_unit:
            bad.append(f"scale argmin away from unit for {key}")
    _record(7, not bad, "; ".join(bad[:4]))


def test_criterion_8_order_one_bounds():
    bad = []
    for i in range(100):
        K1 = random_gram(_seed(45, i, 0), 16, 5)
        K2 = random_gram(_seed(45, i, 1), 16, 5)
        value = mirrored_limit_umegaki(K1, K2).value
        loose, _ = trace_distance_bounds(K1, K2)
        w1 = np.linalg.eigvalsh(K1.values)
        w2 = np.linalg.eigvalsh(K2.values)
        omega = float(np.sum(np.abs(K1.values - K2.values)))
        ceiling = float(w1[-1]) * omega / min(float(w1[0]), float(w2[0]))
        if value > loose + 1e-9:
            bad.append(f"pair {i}: value {value:.6g} above loose bound {loose:.6g}")
        if value > ceiling + 1e-9:
            bad.append(f"pair {i}: value {value:.6g} above ceiling {ceiling:.6g}")
    _record(8, not bad, "; ".join(bad[:3]))


def test_criterion_9_determinism(tmp_path):
    """Reruns of a config write byte-identical files, at a fixed BLAS thread
    count; OPENBLAS_NUM_THREADS=1 reproduces them on another machine."""
    configs = [
        default_config(
            "mean-shift", n_grid=(16,), d_grid=(2,), alpha_grid=(0.5, 2.0),
            shift_grid=(0.0, 1.0), replicates=2,
        ),
        default_config(
            "tripartite", n_grid=(12,), m=16, d_grid=(2,), alpha_grid=(1.5,),
            shift_grid=(0.0, 1.0), scale_grid=(1.0, 2.0), replicates=2,
        ),
    ]
    ok, detail = True, ""
    for config in configs:
        runner = RUNNERS[config.experiment]
        for fmt in ("csv", "json"):
            a = tmp_path / f"{config.experiment}-a.{fmt}"
            b = tmp_path / f"{config.experiment}-b.{fmt}"
            emit_results(runner(config), str(a), fmt)
            emit_results(runner(config), str(b), fmt)
            if a.read_bytes() != b.read_bytes():
                ok, detail = False, f"{config.experiment} {fmt} reruns differ"
    _record(9, ok, detail)
