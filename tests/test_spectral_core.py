"""One decomposition per Gram matrix: decomposition counts and reference values.

The estimators read every trace, sandwich and support test off the two
spectra and the eigenbasis overlap of their inputs. The reference values
below are composed from the standard-basis primitives instead (matrix_power,
matrix_log, trace_product, support_included), so the two routes share only
sym_eig.
"""

import math

import numpy as np
import pytest

from gramxent import (
    UNIT_TRACE,
    ArgumentError,
    GramMatrix,
    KernelSpec,
    SampleSet,
    conditional_entropy,
    gram_cross,
    gram_univariate,
    joint_entropy,
    matrix_log,
    matrix_power,
    matrix_renyi_entropy,
    mirrored_cross_entropy,
    mirrored_cross_entropy_two_param,
    mirrored_limit_umegaki,
    mutual_information,
    nonmirrored_cross_entropy,
    default_config,
    normalize_trace,
    random_orthogonal,
    run_property_suite,
    support_included,
    trace_distance_bounds,
    trace_product,
    tripartite_cross_entropy,
)
from gramxent.experiments import _bipartite_rows

GAUSS = KernelSpec("gaussian", 1.0)


def _grams(seed, n, m):
    rng = np.random.default_rng(seed)
    X = SampleSet(0.5 * rng.standard_normal((n, 4)))
    Y = SampleSet(0.5 * rng.standard_normal((m, 4)) + 0.1)
    return X, Y, gram_univariate(GAUSS, X), gram_univariate(GAUSS, Y)


# ------------------------------------------------------ decomposition counts

def _calls():
    X, Y, G1, G2 = _grams(0, 12, 12)
    _, Z, _, G3 = _grams(1, 12, 17)
    K1, K2 = normalize_trace(G1), normalize_trace(G2)
    return {
        "nonmirrored": (lambda: nonmirrored_cross_entropy(K1, K2, 2.0), 2),
        "mirrored": (lambda: mirrored_cross_entropy(K1, K2, 2.0), 3),
        "two-param": (lambda: mirrored_cross_entropy_two_param(K1, K2, 0.5, 0.75), 3),
        "umegaki": (lambda: mirrored_limit_umegaki(K1, K2), 2),
        "tripartite-square": (
            lambda: tripartite_cross_entropy(G1, gram_cross(GAUSS, X, Y), G2, 2.0), 2
        ),
        "tripartite-nonsquare": (
            lambda: tripartite_cross_entropy(G1, gram_cross(GAUSS, X, Z), G3, 2.0), 1
        ),
        "entropy": (lambda: matrix_renyi_entropy(K1, 2.0), 1),
        "joint-entropy": (lambda: joint_entropy(K1, K2, 2.0), 1),
        "conditional-entropy": (lambda: conditional_entropy(K1, K2, 2.0), 2),
        "mutual-information": (lambda: mutual_information(K1, K2, 2.0), 3),
        "bounds": (lambda: trace_distance_bounds(K1, K2), 2),
    }


@pytest.mark.parametrize("label", sorted(_calls()))
def test_each_gram_matrix_is_decomposed_once(label, monkeypatch):
    """numpy eigh + eigvalsh calls per public call: one per matrix whose
    spectrum the value needs (plus one for a mirrored sandwich)."""
    call, expected = _calls()[label]
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    call()
    assert counts["eigh"] + counts["eigvalsh"] == expected, counts


def _count_decompositions(monkeypatch, call):
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    call()
    return counts


def test_runner_draw_decomposes_its_pair_once(monkeypatch):
    """Both measures at every default order from one eigh per Gram matrix;
    each mirrored value adds the eigvalsh of its sandwich."""
    _, _, G1, G2 = _grams(0, 16, 16)
    K1, K2 = normalize_trace(G1), normalize_trace(G2)
    alphas = default_config("convergence").alpha_grid
    assert len(alphas) == 4
    counts = _count_decompositions(
        monkeypatch,
        lambda: _bipartite_rows("convergence", GAUSS.family, K1, K2, 16, 4, 0, alphas),
    )
    assert counts == {"eigh": 2, "eigvalsh": 4}


def test_property_suite_decomposes_each_pair_once(monkeypatch):
    """Nine pairs per instance (base, self, conjugated, raw, scaled, pinched,
    perturbed, second draw, mixture) and three Kronecker pairs per seed make
    24 eigh; the tripartite checks add 2 per order at each of two scales
    (24). Every mirrored value and sandwich adds one eigvalsh."""
    counts = _count_decompositions(
        monkeypatch, lambda: run_property_suite(n_seeds=1, sizes=(4,))
    )
    assert counts == {"eigh": 48, "eigvalsh": 88}


def _poisoned(K, value):
    M = K.values.copy()
    M[0, 1] = M[1, 0] = value
    return GramMatrix(M, normalization=K.normalization)


def _entry_points(value):
    X, Y, G1, G2 = _grams(0, 6, 6)
    K1, K2 = normalize_trace(G1), normalize_trace(G2)
    bad = _poisoned(K2, value)
    return {
        "nonmirrored": lambda: nonmirrored_cross_entropy(K1, bad, 2.0),
        "mirrored": lambda: mirrored_cross_entropy(K1, bad, 2.0),
        "two-param": lambda: mirrored_cross_entropy_two_param(K1, bad, 0.5, 0.75),
        "umegaki": lambda: mirrored_limit_umegaki(K1, bad),
        "tripartite": lambda: tripartite_cross_entropy(
            _poisoned(G1, value), gram_cross(GAUSS, X, Y), G2, 2.0
        ),
        "entropy": lambda: matrix_renyi_entropy(bad, 2.0),
        "bounds": lambda: trace_distance_bounds(K1, bad),
        "matrix_power": lambda: matrix_power(bad, 1.0),
        "support_included": lambda: support_included(K1, bad),
    }


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("label", sorted(_entry_points(0.0)))
def test_non_finite_matrix_is_rejected(label, value):
    """A NaN or inf entry is an ArgumentError at the decomposition, not an
    inf value that looks like a failed support test, nor a LAPACK failure."""
    with pytest.raises(ArgumentError, match="non-finite"):
        _entry_points(value)[label]()


# ---------------------------------------------------------- reference values

def _unit(M):
    M = 0.5 * (M + M.T)
    return GramMatrix(M / np.trace(M), normalization=UNIT_TRACE)


def _pairs():
    """(label, K1, K2): non-commuting unit-trace pairs with n <= 12."""
    pairs = []
    for seed, n in ((0, 5), (1, 8), (2, 12)):
        _, _, G1, G2 = _grams(seed, n, n)
        pairs.append((f"gaussian-{n}", normalize_trace(G1), normalize_trace(G2)))
    # K2 of rank 6 in 10 dimensions whose support holds K1's (rank 4): the
    # spectra sit in [1, 3] so the negative powers stay well conditioned
    rng = np.random.default_rng(3)
    Q = random_orthogonal(4, 10)
    R = random_orthogonal(5, 6)
    K2 = Q[:, :6] @ np.diag(rng.uniform(1.0, 3.0, 6)) @ Q[:, :6].T
    U = Q[:, :6] @ R[:, :4]
    K1 = U @ np.diag(rng.uniform(1.0, 3.0, 4)) @ U.T
    pairs.append(("rank-deficient-K2", _unit(K1), _unit(K2)))
    return pairs


def _power(K, p):
    return matrix_power(K, p).values


def _sandwich_trace(K1, K2, outer, inner, power):
    H = _power(K2, outer)
    M = H @ _power(K1, inner) @ H
    return float(np.trace(_power(GramMatrix(0.5 * (M + M.T)), power)))


@pytest.mark.parametrize("label,K1,K2", _pairs(), ids=[p[0] for p in _pairs()])
@pytest.mark.parametrize("a", [0.3, 0.5, 1.5, 2.0, 4.0])
def test_bipartite_values_match_standard_basis_reference(label, K1, K2, a):
    beta = max(a, 1.0 - a) + 0.25
    expected = {
        "nonmirrored": math.log(trace_product(_power(K1, a), _power(K2, 1.0 - a))),
        "mirrored": math.log(_sandwich_trace(K1, K2, (1.0 - a) / (2.0 * a), 1.0, a)),
        "two-param": math.log(
            _sandwich_trace(K1, K2, (1.0 - a) / (2.0 * beta), a / beta, beta)
        ),
    }
    got = {
        "nonmirrored": nonmirrored_cross_entropy(K1, K2, a).value,
        "mirrored": mirrored_cross_entropy(K1, K2, a).value,
        "two-param": mirrored_cross_entropy_two_param(K1, K2, a, beta).value,
    }
    for name, log_trace in expected.items():
        assert got[name] == pytest.approx(log_trace / (a - 1.0), rel=1e-10, abs=1e-14), name


@pytest.mark.parametrize("label,K1,K2", _pairs(), ids=[p[0] for p in _pairs()])
def test_umegaki_matches_standard_basis_reference(label, K1, K2):
    expected = trace_product(K1, matrix_log(K1).values - matrix_log(K2).values) / K1.trace()
    got = mirrored_limit_umegaki(K1, K2).value
    assert got == pytest.approx(expected, rel=1e-10, abs=1e-14)


def _assert_same_report(got, expected):
    assert (got.rank_1, got.rank_2, got.included, got.tolerance) == (
        expected.rank_1,
        expected.rank_2,
        expected.included,
        expected.tolerance,
    )
    assert got.residual == pytest.approx(expected.residual, abs=1e-12)


@pytest.mark.parametrize("label,K1,K2", _pairs(), ids=[p[0] for p in _pairs()])
def test_support_reports_match_support_included(label, K1, K2):
    """Both directions, so the not-included (+inf) path is covered too."""
    for A, B in ((K1, K2), (K2, K1)):
        expected = support_included(A, B)
        for measure in (nonmirrored_cross_entropy, mirrored_cross_entropy):
            res = measure(A, B, 2.0)
            _assert_same_report(res.support, expected)
            assert math.isfinite(res.value) == expected.included
        _assert_same_report(
            mirrored_cross_entropy_two_param(A, B, 0.5, 0.75).support, expected
        )
        res = mirrored_limit_umegaki(A, B)
        _assert_same_report(res.support, expected)
        _assert_same_report(res.support_reverse, support_included(B, A))
    if label == "rank-deficient-K2":
        assert not support_included(K2, K1).included  # the +inf path ran


def test_tripartite_square_report_matches_support_included():
    X, Y, G1, G2 = _grams(6, 10, 10)
    res = tripartite_cross_entropy(G1, gram_cross(GAUSS, X, Y), G2, 2.0)
    _assert_same_report(res.support, support_included(G2, G1))
