"""Cross-entropy estimators, induced entropies, and the order-1 bounds.

Scalar expectations below were computed by hand from the diagonal closed
forms (everything commutes, so traces reduce to sums over eigenvalue pairs).
"""

import math
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

from gramxent import (
    ArgumentError,
    ContractError,
    CrossGram,
    DegenerateMatrixError,
    GramMatrix,
    KernelSpec,
    NumericalDegeneracyError,
    SampleSet,
    UNIT_TRACE,
    conditional_entropy,
    gram_cross,
    gram_univariate,
    joint_entropy,
    matrix_renyi_entropy,
    mirrored_cross_entropy,
    mirrored_cross_entropy_two_param,
    mirrored_limit_umegaki,
    mutual_information,
    nonmirrored_cross_entropy,
    normalize_trace,
    trace_distance_bounds,
    tripartite_cross_entropy,
)
from test_spectral_core import _count_decompositions

GAUSS = KernelSpec("gaussian", 1.0)

# diag(0.7, 0.3) against the maximally mixed diag(0.5, 0.5)
DIAG_1 = GramMatrix(np.diag([0.7, 0.3]), normalization=UNIT_TRACE)
DIAG_2 = GramMatrix(np.diag([0.5, 0.5]), normalization=UNIT_TRACE)

# 0.49/0.5 + 0.09/0.5 = 1.16
LOG_116 = 0.14842000511827322
# 0.7 log(0.7/0.5) + 0.3 log(0.3/0.5)
UMEGAKI_DIAG = 0.08228287850505178
# -log(0.49 + 0.09)
ENTROPY_DIAG_A2 = 0.5447271754416722
# -2 log(sqrt(0.35) + sqrt(0.15)), the diagonal closed form at alpha = 1/2
TWO_PARAM_DIAG = 0.04263867546168907
# 2 - 2/e, the one-point squared-MMD at unit separation
ONE_POINT_CIP = 1.2642411176571153
ONE_POINT_VALUE_A2 = 0.23447203517286339


def unit_gram(seed, n, d=3):
    rng = np.random.default_rng(seed)
    G = gram_univariate(GAUSS, SampleSet(rng.standard_normal((n, d))))
    return normalize_trace(G)


# ---------------------------------------------------------------------- order

# Order-taking estimators on valid unit-trace inputs, so only the order can fail
# (test_api.py checks every order-taking function on invalid matrices).
ORDER_CALLS = [
    lambda a: nonmirrored_cross_entropy(DIAG_1, DIAG_2, a),
    lambda a: mirrored_cross_entropy(DIAG_1, DIAG_2, a),
    lambda a: mirrored_cross_entropy_two_param(DIAG_1, DIAG_2, a, 1.0),
    lambda a: matrix_renyi_entropy(DIAG_1, a),
    lambda a: mutual_information(DIAG_1, DIAG_2, a),
]


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_alpha_rejects_nonpositive_or_nonfinite(bad):
    for call in ORDER_CALLS:
        with pytest.raises(ArgumentError, match="order must be a positive finite real"):
            call(bad)


@pytest.mark.parametrize("near_one", [1.0, 1.0 + 5e-7, 1.0 - 5e-7])
def test_alpha_rejects_neighborhood_of_one(near_one):
    for call in ORDER_CALLS:
        with pytest.raises(ArgumentError, match="mirrored_limit_umegaki"):
            call(near_one)


# --------------------------------------------------------- bipartite measures

def test_nonmirrored_diagonal_example():
    res = nonmirrored_cross_entropy(DIAG_1, DIAG_2, 2.0)
    assert res.value == pytest.approx(LOG_116, rel=1e-9)
    assert res.support.included
    assert res.clamp_count == 0
    assert res.alpha == 2.0


def test_mirrored_matches_nonmirrored_when_commuting():
    res = mirrored_cross_entropy(DIAG_1, DIAG_2, 2.0)
    assert res.value == pytest.approx(LOG_116, rel=1e-9)


@pytest.mark.parametrize("alpha", [0.5, 2.0])
@pytest.mark.parametrize(
    "measure", [nonmirrored_cross_entropy, mirrored_cross_entropy]
)
def test_support_gating_both_directions(measure, alpha):
    """Rank-one inside full support is finite; the swap diverges at every order,
    and its +inf still counts the eigenvalue clamped in narrow."""
    narrow = GramMatrix(np.diag([1.0, 0.0]), normalization=UNIT_TRACE)
    wide = GramMatrix(np.eye(2) / 2.0, normalization=UNIT_TRACE)
    ok = measure(narrow, wide, alpha)
    assert math.isfinite(ok.value)
    swapped = measure(wide, narrow, alpha)
    assert swapped.value == math.inf
    assert not swapped.support.included
    assert swapped.clamp_count == 1


def test_self_cross_entropy_is_zero_at_high_order():
    K = unit_gram(0, 12)
    assert abs(nonmirrored_cross_entropy(K, K, 5.0).value) < 1e-10
    assert abs(mirrored_cross_entropy(K, K, 5.0).value) < 1e-10


def test_nonmirrored_counts_clamped_eigenvalues():
    narrow = GramMatrix(np.diag([1.0, 0.0]), normalization=UNIT_TRACE)
    wide = GramMatrix(np.eye(2) / 2.0, normalization=UNIT_TRACE)
    res = nonmirrored_cross_entropy(narrow, wide, 0.5)
    assert res.clamp_count == 1


def test_nonmirrored_dominates_mirrored():
    K1, K2 = unit_gram(1, 10), unit_gram(2, 10)
    for alpha in (0.5, 2.0):
        non = nonmirrored_cross_entropy(K1, K2, alpha).value
        mir = mirrored_cross_entropy(K1, K2, alpha).value
        assert non >= mir - 1e-10


def test_trace_contract_enforced_and_liftable():
    raw = gram_univariate(GAUSS, SampleSet(np.random.default_rng(3).standard_normal((5, 3))))
    with pytest.raises(ContractError):
        nonmirrored_cross_entropy(raw, raw, 2.0)
    with pytest.raises(ContractError):
        mirrored_cross_entropy(raw, raw, 2.0)
    assert abs(nonmirrored_cross_entropy(raw, raw, 2.0, raw=True).value) < 1e-10


def test_scaling_law_on_raw_inputs():
    K1, K2 = unit_gram(4, 8), unit_gram(5, 8)
    base = nonmirrored_cross_entropy(K1, K2, 2.0).value
    r1, r2 = 1.7, 0.4
    scaled = nonmirrored_cross_entropy(
        GramMatrix(r1 * K1.values),
        GramMatrix(r2 * K2.values),
        2.0,
        raw=True,
    ).value
    assert scaled == pytest.approx(base + math.log(r1 / r2), abs=1e-9)


def test_flagged_unit_trace_with_wrong_trace_is_rejected():
    lying = GramMatrix(np.eye(3), normalization=UNIT_TRACE)  # trace 3
    with pytest.raises(ContractError):
        nonmirrored_cross_entropy(lying, lying, 2.0)


def test_bipartite_rejects_a_plain_array_for_k1():
    K2 = GramMatrix(np.eye(4) / 4, normalization=UNIT_TRACE)
    with pytest.raises(ArgumentError, match="K1 must be a GramMatrix"):
        nonmirrored_cross_entropy(np.eye(4) / 4, K2, 2.0)


def _rejected_undecomposed(monkeypatch, call, error, match):
    """call() raises ``error`` matching ``match`` before any eigh or eigvalsh."""

    def rejected():
        with pytest.raises(error, match=match):
            call()

    assert _count_decompositions(monkeypatch, rejected) == {"eigh": 0, "eigvalsh": 0}


def test_bipartite_rejects_a_size_mismatch(monkeypatch):
    """Every bipartite estimator, before either matrix is decomposed."""
    K4 = GramMatrix(np.eye(4) / 4, normalization=UNIT_TRACE)
    K5 = GramMatrix(np.eye(5) / 5, normalization=UNIT_TRACE)
    for measure in BIPARTITE:
        _rejected_undecomposed(
            monkeypatch, lambda: measure(K4, K5, 2.0), ArgumentError, "size mismatch: 4 vs 5"
        )


def test_bipartite_rejects_a_raw_k2_under_the_unit_trace_contract(monkeypatch):
    """A raw K2 beside a unit-trace K1 is a ContractError naming K2, raised by
    every bipartite estimator before K1 is decomposed."""
    K1 = GramMatrix(np.eye(4) / 4, normalization=UNIT_TRACE)
    K2 = GramMatrix(np.eye(4) / 4)
    for measure in BIPARTITE:
        _rejected_undecomposed(
            monkeypatch, lambda: measure(K1, K2, 2.0), ContractError, "^K2 must be unit-trace"
        )


def test_nonmirrored_reports_a_collapsed_trace():
    """A raw K1 with no positive eigenvalue, all-zero among them, clamps to zero
    and leaves no trace."""
    for K1 in (-np.eye(3), np.zeros((3, 3))):
        with pytest.raises(NumericalDegeneracyError, match="^nonmirrored trace collapsed") as exc:
            nonmirrored_cross_entropy(GramMatrix(K1), GramMatrix(np.eye(3)), 2.0, raw=True)
        assert exc.value.trace_value == 0.0
        assert exc.value.clamp_count == 3


def unit(X):
    return normalize_trace(gram_univariate(GAUSS, X))


def _distinct(measure, *beta):
    """``measure`` of the two draws' unit-trace Grams, a distinct pair whose
    supports are included, so only its trace can fail."""
    return lambda X, Y, a: measure(unit(X), unit(Y), a, *beta).value


# measure: (order, call). At order 2000 every power sum of a 16-point gaussian
# Gram underflows to 0, and a self pair's K^(1-a) overflows; a distinct pair's
# trace overflows at orders from 300 on. Each is checked under the suite's
# RuntimeWarning filter, so a leaked numpy warning fails it.
LARGE_ORDER_CALLS = {
    "tripartite": (2000.0, lambda X, Y, a: tripartite_cross_entropy(
        gram_univariate(GAUSS, X), gram_cross(GAUSS, X, Y), gram_univariate(GAUSS, Y), a
    ).value),
    "entropy": (2000.0, lambda X, Y, a: matrix_renyi_entropy(unit(X), a)),
    "mutual-information": (2000.0, lambda X, Y, a: mutual_information(unit(X), unit(Y), a)),
    "nonmirrored-self-pair": (
        2000.0, lambda X, Y, a: nonmirrored_cross_entropy(unit(X), unit(X), a).value
    ),
    "nonmirrored-300": (300.0, _distinct(nonmirrored_cross_entropy)),
    "mirrored-300": (300.0, _distinct(mirrored_cross_entropy)),
    "mirrored-2000": (2000.0, _distinct(mirrored_cross_entropy)),
    "two-param-2000-10.5": (2000.0, _distinct(mirrored_cross_entropy_two_param, 10.5)),
    "two-param-1600-16": (1600.0, _distinct(mirrored_cross_entropy_two_param, 16.0)),
    "two-param-1600-17": (1600.0, _distinct(mirrored_cross_entropy_two_param, 17.0)),
}


def _large_order_draws():
    rng = np.random.default_rng(5)
    return tuple(SampleSet(rng.standard_normal((16, 3)) + shift) for shift in (0.0, 0.5))


@pytest.mark.parametrize("measure", sorted(LARGE_ORDER_CALLS))
def test_large_order_reports_a_collapsed_trace(measure):
    """A power sum that underflows, or a trace that overflows to inf or NaN, is
    the same NumericalDegeneracyError as a clamped-away trace, with its value;
    an overflowed trace is never the +inf of the support gate."""
    X, Y = _large_order_draws()
    order, call = LARGE_ORDER_CALLS[measure]
    assert math.isfinite(call(X, Y, 4.0))
    with pytest.raises(NumericalDegeneracyError, match="trace collapsed") as exc:
        call(X, Y, order)
    assert not (0 < exc.value.trace_value < math.inf)
    assert exc.value.clamp_count >= 0


# ---------------------------------------------------------------- two-param

def test_two_param_recovers_mirrored_at_beta_alpha():
    K1, K2 = unit_gram(6, 9), unit_gram(7, 9)
    for alpha in (0.5, 2.0):
        a = mirrored_cross_entropy(K1, K2, alpha).value
        b = mirrored_cross_entropy_two_param(K1, K2, alpha, alpha).value
        assert b == pytest.approx(a, abs=1e-10)


def test_two_param_diagonal_closed_form():
    # the diagonal trace reduces to sum(l^a m^(1-a)) for every beta
    res = mirrored_cross_entropy_two_param(DIAG_1, DIAG_2, 0.5, 0.75)
    assert res.value == pytest.approx(TWO_PARAM_DIAG, abs=1e-10)


def test_two_param_value_independent_of_beta_when_commuting():
    for beta in (0.9, 2.3):
        res = mirrored_cross_entropy_two_param(DIAG_1, DIAG_2, 2.0, beta)
        assert res.value == pytest.approx(LOG_116, rel=1e-9)


@pytest.mark.parametrize("bad", [0.0, -0.5, math.inf, math.nan])
def test_two_param_rejects_bad_beta(bad):
    with pytest.raises(ArgumentError):
        mirrored_cross_entropy_two_param(DIAG_1, DIAG_2, 2.0, bad)


# ------------------------------------------------------------- order-1 limit

def test_umegaki_diagonal_example():
    res = mirrored_limit_umegaki(DIAG_1, DIAG_2)
    assert res.value == pytest.approx(UMEGAKI_DIAG, abs=1e-12)
    assert res.alpha == 1.0
    assert res.support.included


def test_umegaki_diverges_without_support():
    narrow = GramMatrix(np.diag([1.0, 0.0]), normalization=UNIT_TRACE)
    wide = GramMatrix(np.eye(2) / 2.0, normalization=UNIT_TRACE)
    res = mirrored_limit_umegaki(wide, narrow)
    assert res.value == math.inf
    assert not res.support.included
    assert res.clamp_count == 1


def test_umegaki_gives_no_weight_to_a_clamped_eigenvalue_of_k1():
    """K1's -3e-16 is clamped (tau = 3 eps * 0.6 = 4.0e-16) and K2's 4e-16 kept
    (tau = 3.3e-16): the value sums over K1's support alone, so the clamped
    eigenvalue counts as zero, not as -3e-16 times log(4e-16)."""
    K1 = GramMatrix(np.diag([0.6, 0.4, -3e-16]), normalization=UNIT_TRACE)
    K2 = GramMatrix(np.diag([0.5, 0.5 - 4e-16, 4e-16]), normalization=UNIT_TRACE)
    res = mirrored_limit_umegaki(K1, K2)
    assert (res.support.rank_1, res.support.rank_2) == (2, 3)
    lam, mu = np.array([0.6, 0.4]), np.array([0.5, 0.5 - 4e-16])
    expected = float(lam @ (np.log(lam) - np.log(mu))) / K1.trace()
    assert res.value == pytest.approx(expected, rel=1e-15, abs=0)


@pytest.mark.parametrize(
    "K1,trace", [(np.zeros((3, 3)), "0"), (-np.eye(3), "-3")], ids=["zero", "minus-identity"]
)
def test_umegaki_rank_zero_raw_k1_is_degenerate(K1, trace):
    """A rank-0 K1 has an empty support, so it is included in K2's, and a
    nonpositive trace."""
    with pytest.raises(DegenerateMatrixError, match=f"^K1 has nonpositive trace {trace}$"):
        mirrored_limit_umegaki(GramMatrix(K1), GramMatrix(np.eye(3)), raw=True)


def test_mirrored_approaches_umegaki_near_one():
    K1, K2 = unit_gram(8, 6), unit_gram(9, 6)
    limit = mirrored_limit_umegaki(K1, K2).value
    for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
        val = mirrored_cross_entropy(K1, K2, alpha).value
        assert abs(val - limit) < 1e-3


def test_umegaki_self_is_zero():
    K = unit_gram(10, 7)
    assert abs(mirrored_limit_umegaki(K, K).value) < 1e-12


# ------------------------------------------------------------------ tripartite

def one_point_grams(s, a):
    X = SampleSet(np.array([[float(s)]]))
    Y = SampleSet(np.array([[float(a)]]))
    return gram_univariate(GAUSS, X), gram_cross(GAUSS, X, Y), gram_univariate(GAUSS, Y)


def test_tripartite_one_point_at_unit_separation():
    K1, K12, K2 = one_point_grams(0.0, 1.0)
    res = tripartite_cross_entropy(K1, K12, K2, 2.0)
    assert res.value == pytest.approx(ONE_POINT_VALUE_A2, abs=1e-12)
    assert res.entropy_term == 0.0
    assert res.degenerate is None
    # CIP is recoverable from the result
    cip = math.exp((2.0 - 1.0) * (res.value - res.entropy_term))
    assert cip == pytest.approx(ONE_POINT_CIP, rel=1e-12)


def test_tripartite_one_point_below_order_one():
    K1, K12, K2 = one_point_grams(0.0, 1.0)
    res = tripartite_cross_entropy(K1, K12, K2, 0.5)
    assert res.value == pytest.approx(-2.0 * math.log(ONE_POINT_CIP), abs=1e-12)


def test_tripartite_coincident_samples_degenerate():
    K1, K12, K2 = one_point_grams(1.5, 1.5)
    high = tripartite_cross_entropy(K1, K12, K2, 2.0)
    assert high.value == -math.inf
    assert high.degenerate == "zero-cip"
    low = tripartite_cross_entropy(K1, K12, K2, 0.5)
    assert low.value == math.inf
    assert low.degenerate == "zero-cip"


def test_tripartite_requires_raw_grams():
    K1, K12, K2 = one_point_grams(0.0, 1.0)
    with pytest.raises(ContractError):
        tripartite_cross_entropy(normalize_trace(K1), K12, K2, 2.0)


def test_tripartite_shape_validation():
    K1, K12, K2 = one_point_grams(0.0, 1.0)
    wrong = gram_cross(GAUSS, SampleSet(np.zeros((2, 1))), SampleSet(np.ones((3, 1))))
    with pytest.raises(ArgumentError):
        tripartite_cross_entropy(K1, wrong, K2, 2.0)


def test_tripartite_cross_gram_must_be_a_cross_gram():
    """A plain array for K12 is an ArgumentError, like a wrong K1 or K2 type."""
    K1, K12, K2 = one_point_grams(0.0, 1.0)
    with pytest.raises(ArgumentError, match="CrossGram"):
        tripartite_cross_entropy(K1, K12.values, K2, 2.0)


def test_tripartite_rejects_a_plain_array_for_k1():
    K1, K12, K2 = one_point_grams(0.0, 1.0)
    with pytest.raises(ArgumentError, match="GramMatrix"):
        tripartite_cross_entropy(K1.values, K12, K2, 2.0)


def test_tripartite_rejects_a_zero_trace_k1():
    """With a positive CIP the entropy term needs tr(K1) > 0."""
    K1, K12 = GramMatrix(np.zeros((2, 2))), CrossGram(np.zeros((2, 2)))
    with pytest.raises(DegenerateMatrixError, match="nonpositive trace"):
        tripartite_cross_entropy(K1, K12, GramMatrix(np.eye(2)), 2.0)


def test_tripartite_has_no_support_report():
    """No support test gates the tripartite measure, at n != m or n == m."""
    rng = np.random.default_rng(11)
    X = SampleSet(rng.standard_normal((6, 2)))
    Y = SampleSet(rng.standard_normal((9, 2)) + 0.5)
    res = tripartite_cross_entropy(
        gram_univariate(GAUSS, X), gram_cross(GAUSS, X, Y), gram_univariate(GAUSS, Y), 1.5
    )
    assert res.support is None
    assert math.isfinite(res.value)
    Z = SampleSet(rng.standard_normal((6, 2)) - 0.5)
    sq = tripartite_cross_entropy(
        gram_univariate(GAUSS, X), gram_cross(GAUSS, X, Z), gram_univariate(GAUSS, Z), 1.5
    )
    assert sq.support is None
    assert math.isfinite(sq.value)


def test_tripartite_cip_matches_double_sums():
    """The grand-mean CIP equals the explicit pairwise kernel sums."""
    rng = np.random.default_rng(12)
    xs = rng.standard_normal((6, 2))
    ys = rng.standard_normal((9, 2)) * 0.8 + 0.3
    X, Y = SampleSet(xs), SampleSet(ys)
    res = tripartite_cross_entropy(
        gram_univariate(GAUSS, X), gram_cross(GAUSS, X, Y), gram_univariate(GAUSS, Y), 2.0
    )
    cip = math.exp((2.0 - 1.0) * (res.value - res.entropy_term))
    n, m = len(xs), len(ys)

    def k(s, t):
        return math.exp(-GAUSS.bandwidth * sum((u - v) ** 2 for u, v in zip(s, t)))

    kxx = sum(k(xs[i], xs[j]) for i in range(n) for j in range(n))
    kyy = sum(k(ys[i], ys[j]) for i in range(m) for j in range(m))
    kxy = sum(k(xs[i], ys[j]) for i in range(n) for j in range(m))
    explicit = kxx / n**2 + kyy / m**2 - 2.0 * kxy / (n * m)
    assert cip == pytest.approx(explicit, rel=1e-10)


@pytest.mark.parametrize("m", [6, 9])
def test_tripartite_rejects_an_asymmetric_k2(m):
    """K2 enters only through its mean, yet is held to sym_eig's symmetry test
    at every size."""
    rng = np.random.default_rng(13)
    X = SampleSet(rng.standard_normal((6, 2)))
    Y = SampleSet(rng.standard_normal((m, 2)))
    G2 = gram_univariate(GAUSS, Y).values.copy()
    G2[0, 1] += 1e-3
    with pytest.raises(ArgumentError, match="not symmetric"):
        tripartite_cross_entropy(
            gram_univariate(GAUSS, X), gram_cross(GAUSS, X, Y), GramMatrix(G2), 2.0
        )


def test_tripartite_reports_a_non_finite_k12_before_an_asymmetric_k2():
    rng = np.random.default_rng(13)
    X = SampleSet(rng.standard_normal((6, 2)))
    Y = SampleSet(rng.standard_normal((6, 2)))
    G2 = gram_univariate(GAUSS, Y).values.copy()
    G2[0, 1] += 1e-3
    K12 = gram_cross(GAUSS, X, Y).values.copy()
    K12[2, 3] = np.nan
    with pytest.raises(ArgumentError, match="non-finite"):
        tripartite_cross_entropy(gram_univariate(GAUSS, X), CrossGram(K12), GramMatrix(G2), 2.0)


# ------------------------------------------------------------ degenerate inputs

BIPARTITE = [
    lambda K1, K2, a: nonmirrored_cross_entropy(K1, K2, a),
    lambda K1, K2, a: mirrored_cross_entropy(K1, K2, a),
    lambda K1, K2, a: mirrored_cross_entropy_two_param(K1, K2, a, max(a, 1.0 - a) + 0.25),
    lambda K1, K2, a: mirrored_limit_umegaki(K1, K2),
]


def _unit_gram_of(X):
    return normalize_trace(gram_univariate(GAUSS, SampleSet(X)))


@pytest.mark.parametrize("alpha", [0.5, 2.0, 3.5])
def test_a_single_sample_gives_zero(alpha):
    K1, K2 = _unit_gram_of(np.array([[0.3, -1.0]])), _unit_gram_of(np.array([[2.0, 0.5]]))
    for measure in BIPARTITE:
        assert measure(K1, K2, alpha).value == 0.0
    assert matrix_renyi_entropy(K1, alpha) == 0.0


def _with_duplicates(seed, distinct, repeats):
    X = np.random.default_rng(seed).standard_normal((distinct, 3))
    return np.vstack([X, X[:repeats]])


@pytest.mark.parametrize("alpha", [0.5, 2.0, 3.5])
def test_duplicate_samples_in_k1_give_finite_values(alpha):
    """K1's rank is its number of distinct samples; its support stays inside a
    full-rank K2's."""
    K1 = _unit_gram_of(_with_duplicates(20, 7, 3))
    K2 = _unit_gram_of(np.random.default_rng(21).standard_normal((10, 3)))
    for measure in BIPARTITE:
        res = measure(K1, K2, alpha)
        assert math.isfinite(res.value)
        assert (res.support.rank_1, res.support.rank_2, res.support.included) == (7, 10, True)


def test_duplicate_samples_in_k2_give_inf():
    """Two duplicates in n = 4 leave K2 rank 2, and a full-rank K1 leaks its
    whole range into K2's 2-dimensional nullspace: residual sqrt(2)."""
    K1 = _unit_gram_of(np.random.default_rng(22).standard_normal((4, 3)))
    K2 = _unit_gram_of(_with_duplicates(23, 2, 2))
    for measure in BIPARTITE:
        res = measure(K1, K2, 2.0)
        assert res.value == math.inf
        assert (res.support.rank_1, res.support.rank_2, res.support.included) == (4, 2, False)
        assert res.support.residual == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_a_bipartite_value_is_finite_support_gated_or_an_error():
    """At every order a bipartite call returns a finite value, returns +inf with
    supp K1 not inside supp K2, or raises NumericalDegeneracyError; no other
    +inf, NaN or warning. The pairs: a distinct included pair, an included
    pair with a rank-deficient K1, and a K1 leaking out of a rank-2 K2."""
    X, Y = _large_order_draws()
    pairs = [
        (unit(X), unit(Y)),
        (
            _unit_gram_of(_with_duplicates(20, 7, 3)),
            _unit_gram_of(np.random.default_rng(21).standard_normal((10, 3))),
        ),
        (
            _unit_gram_of(np.random.default_rng(22).standard_normal((4, 3))),
            _unit_gram_of(_with_duplicates(23, 2, 2)),
        ),
    ]
    outcomes = Counter()
    for K1, K2 in pairs:
        for alpha in (0.3, 0.5, 2.0, 4.0, 30.0, 300.0, 2000.0):
            for measure in BIPARTITE:
                try:
                    res = measure(K1, K2, alpha)
                except NumericalDegeneracyError:
                    outcomes["error"] += 1
                    continue
                if res.value == math.inf:
                    assert not res.support.included
                    outcomes["gated"] += 1
                else:
                    assert math.isfinite(res.value)
                    outcomes["finite"] += 1
    assert set(outcomes) == {"error", "gated", "finite"}


# ------------------------------------------------------------ order invariance

def _draws(seed, n, m, d=4):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)), 0.8 * rng.standard_normal((m, d)) + 0.3


def _tripartite(xs, ys, alpha):
    X, Y = SampleSet(xs), SampleSet(ys)
    return tripartite_cross_entropy(
        gram_univariate(GAUSS, X), gram_cross(GAUSS, X, Y), gram_univariate(GAUSS, Y), alpha
    ).value


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("m", [12, 17])
@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_tripartite_ignores_the_order_of_either_set(seed, m, alpha):
    """The CIP is a grand mean and the entropy term a spectrum, so reordering
    X alone or Y alone leaves the value unchanged, at n == m and n != m."""
    xs, ys = _draws(seed, 12, m)
    rng = np.random.default_rng(100 + seed)
    expected = _tripartite(xs, ys, alpha)
    assert _tripartite(xs[rng.permutation(12)], ys, alpha) == pytest.approx(expected, rel=1e-12)
    assert _tripartite(xs, ys[rng.permutation(m)], alpha) == pytest.approx(expected, rel=1e-12)


def _bipartite_values(xs, ys, alpha):
    K1 = normalize_trace(gram_univariate(GAUSS, SampleSet(xs)))
    K2 = normalize_trace(gram_univariate(GAUSS, SampleSet(ys)))
    return (
        nonmirrored_cross_entropy(K1, K2, alpha).value,
        mirrored_cross_entropy(K1, K2, alpha).value,
        mirrored_cross_entropy_two_param(K1, K2, alpha, max(alpha, 1.0 - alpha) + 0.25).value,
        mirrored_limit_umegaki(K1, K2).value,
    )


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("alpha", [0.5, 2.0, 4.0])
def test_bipartite_measures_ignore_a_joint_permutation(seed, alpha):
    """Permuting both sets by the same permutation conjugates both Grams by
    one permutation matrix, which leaves every bipartite value unchanged."""
    xs, ys = _draws(seed, 12, 12)
    perm = np.random.default_rng(200 + seed).permutation(12)
    expected = _bipartite_values(xs, ys, alpha)
    assert all(math.isfinite(v) for v in expected)
    got = _bipartite_values(xs[perm], ys[perm], alpha)
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, rel=1e-12)


# -------------------------------------------------------------------- entropy

def test_entropy_of_maximally_mixed():
    for n in (2, 5, 17):
        K = GramMatrix(np.eye(n) / n, normalization=UNIT_TRACE)
        assert matrix_renyi_entropy(K, 2.0) == pytest.approx(math.log(n), abs=1e-12)


def test_entropy_of_rank_one_is_zero():
    K = GramMatrix(np.ones((4, 4)) / 4.0, normalization=UNIT_TRACE)
    assert abs(matrix_renyi_entropy(K, 0.5)) < 1e-12
    assert abs(matrix_renyi_entropy(K, 2.0)) < 1e-12


def test_entropy_diagonal_example():
    assert matrix_renyi_entropy(DIAG_1, 2.0) == pytest.approx(ENTROPY_DIAG_A2, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_entropy_is_cross_entropy_against_mixed(alpha):
    K = unit_gram(13, 8)
    mixed = GramMatrix(np.eye(8) / 8.0, normalization=UNIT_TRACE)
    direct = matrix_renyi_entropy(K, alpha)
    via_cross = math.log(8) - nonmirrored_cross_entropy(K, mixed, alpha).value
    assert direct == pytest.approx(via_cross, abs=1e-10)


def test_entropy_requires_unit_trace():
    with pytest.raises(ContractError):
        matrix_renyi_entropy(GramMatrix(np.eye(3)), 2.0)


def test_joint_entropy_against_trivial_factor():
    """An all-ones factor leaves the other marginal unchanged."""
    K = unit_gram(14, 6)
    flat = GramMatrix(np.ones((6, 6)) / 6.0, normalization=UNIT_TRACE)
    assert joint_entropy(K, flat, 2.0) == pytest.approx(
        matrix_renyi_entropy(K, 2.0), abs=1e-12
    )
    assert abs(mutual_information(K, flat, 2.0)) < 1e-12


def test_joint_of_mixed_pair_is_log_n():
    mixed = GramMatrix(np.eye(5) / 5.0, normalization=UNIT_TRACE)
    assert joint_entropy(mixed, mixed, 2.0) == pytest.approx(math.log(5), abs=1e-12)


def test_information_identities():
    K1, K2 = unit_gram(15, 7), unit_gram(16, 7)
    for alpha in (0.5, 2.0):
        joint = joint_entropy(K1, K2, alpha)
        cond = conditional_entropy(K1, K2, alpha)
        mi = mutual_information(K1, K2, alpha)
        assert cond == pytest.approx(joint - matrix_renyi_entropy(K2, alpha), abs=1e-12)
        assert mi == pytest.approx(
            matrix_renyi_entropy(K1, alpha) + matrix_renyi_entropy(K2, alpha) - joint,
            abs=1e-12,
        )
        assert mi == pytest.approx(mutual_information(K2, K1, alpha), abs=1e-12)


# --------------------------------------------------------------------- bounds

def test_bounds_vanish_on_equal_inputs():
    K = unit_gram(17, 6)
    loose, tight = trace_distance_bounds(K, K)
    assert loose == 0.0
    assert tight == 0.0


def test_bounds_diagonal_example():
    loose, tight = trace_distance_bounds(DIAG_1, DIAG_2)
    assert loose == pytest.approx(0.08228287850505184, abs=1e-14)
    assert tight == pytest.approx(0.715155873272387, abs=1e-14)
    # on this pair the loose bound lands exactly on the order-1 value
    assert loose == pytest.approx(UMEGAKI_DIAG, abs=1e-12)
    u = mirrored_limit_umegaki(DIAG_1, DIAG_2).value
    assert u <= loose + 1e-12
    assert u <= tight + 1e-12


def test_bounds_equal_minima_use_ceiling():
    K2 = GramMatrix(np.diag([0.3, 0.7]), normalization=UNIT_TRACE)
    _, tight = trace_distance_bounds(DIAG_1, K2)
    omega = 0.8
    assert tight == pytest.approx(0.7 * omega / 0.3, rel=1e-12)


def test_tight_bound_below_its_ceiling():
    for seed in range(5):
        K1, K2 = unit_gram(20 + seed, 6), unit_gram(40 + seed, 6)
        _, tight = trace_distance_bounds(K1, K2)
        w1 = np.linalg.eigvalsh(K1.values)
        l1_max = float(w1[-1])
        l1 = float(w1[0])
        l2 = float(np.linalg.eigvalsh(K2.values)[0])
        omega = float(np.sum(np.abs(K1.values - K2.values)))
        assert tight <= l1_max * omega / min(l1, l2) + 1e-12


def test_bounds_reject_rank_zero_and_mismatch():
    with pytest.raises(DegenerateMatrixError):
        trace_distance_bounds(GramMatrix(np.zeros((2, 2))), DIAG_1)
    with pytest.raises(ArgumentError):
        trace_distance_bounds(DIAG_1, GramMatrix(np.eye(3) / 3.0, normalization=UNIT_TRACE))


# --------------------------------------------------------------------- errors

def test_numerical_degeneracy_carries_diagnostics():
    err = NumericalDegeneracyError("collapsed", trace_value=-1e-18, clamp_count=3)
    assert err.trace_value == -1e-18
    assert err.clamp_count == 3
    assert "3 eigenvalues clamped" in str(err)
