"""One decomposition per Gram matrix: decomposition counts and reference values.

The estimators read every trace, sandwich and support test off the two
spectra and the eigenbasis overlap of their inputs. The reference values
below are composed in the standard basis instead: spectral functions
V f(lambda) V^T over each matrix's support, tr(AB) as the entrywise sum of
A * B and the support residual ||P0 U||_F, so the two routes share only
sym_eig.
"""

import hashlib
import math
import weakref
from collections import Counter

import numpy as np
import pytest

import gramxent.experiments
from gramxent import (
    UNIT_TRACE,
    ArgumentError,
    CrossGram,
    GramMatrix,
    KernelSpec,
    NumericalDegeneracyError,
    SampleSet,
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
    default_config,
    normalize_trace,
    random_orthogonal,
    run_convergence,
    run_mean_shift,
    run_property_suite,
    run_tripartite,
    run_variance_scale,
    trace_distance_bounds,
    tripartite_cross_entropy,
)
from gramxent.estimators import PRODUCT_ORDER_MAX, _gram_pair, _Pair, _spectrum
from gramxent.experiments import _bipartite_rows
from gramxent.psd_linalg import DEFAULT_SUPPORT_TOL, SupportReport, sym_eig

GAUSS = KernelSpec("gaussian", 1.0)


def _pair_of(K1, K2, raw=False):
    """The pair of K1's and K2's spectra."""
    return _Pair(_spectrum(K1), _spectrum(K2), raw)


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
        "mirrored": (lambda: mirrored_cross_entropy(K1, K2, 2.0), 2),
        "two-param": (lambda: mirrored_cross_entropy_two_param(K1, K2, 0.5, 0.75), 3),
        "umegaki": (lambda: mirrored_limit_umegaki(K1, K2), 2),
        "self-pair": (lambda: mirrored_cross_entropy_two_param(K1, K1, 0.5, 2.0), 1),
        "tripartite-square": (
            lambda: tripartite_cross_entropy(G1, gram_cross(GAUSS, X, Y), G2, 2.0), 1
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
    """Matrices numpy's eigh and eigvalsh decompose per public call: one per
    matrix whose spectrum the value needs (plus one for a mirrored sandwich
    at a non-integer beta)."""
    call, expected = _calls()[label]
    counts = _count_decompositions(monkeypatch, call)
    assert counts["eigh"] + counts["eigvalsh"] == expected, counts


def _matrices(A):
    """The matrices of one eigh or eigvalsh input: A itself, or each slice of a stack."""
    A = np.asarray(A)
    return A.reshape(-1, *A.shape[-2:]) if A.ndim > 2 else [A]


def _on_decompositions(monkeypatch, record):
    """Wrap numpy's eigh and eigvalsh so that each call first runs
    record(name, matrix) for each matrix it decomposes, each slice of a stack."""
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def wrapped(A, *args, _name=name, _original=original, **kwargs):
            for M in _matrices(A):
                record(_name, M)
            return _original(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapped)


def _count_decompositions(monkeypatch, call):
    counts = {"eigh": 0, "eigvalsh": 0}

    def counted(name, A):
        counts[name] += 1

    _on_decompositions(monkeypatch, counted)
    call()
    return counts


def test_runner_draw_decomposes_its_pair_once(monkeypatch):
    """Both measures at every default order from one eigh per Gram matrix;
    a mirrored value adds the eigvalsh of its sandwich only at a non-integer
    order (0.5 and 1.5 of the four)."""
    _, _, G1, G2 = _grams(0, 16, 16)
    K1, K2 = normalize_trace(G1), normalize_trace(G2)
    alphas = default_config("convergence").alpha_grid
    assert len(alphas) == 4
    counts = _count_decompositions(
        monkeypatch,
        lambda: _bipartite_rows("convergence", GAUSS.family, _pair_of(K1, K2), 16, 4, 0, alphas),
    )
    assert counts == {"eigh": 2, "eigvalsh": 2}


def test_property_suite_decomposes_each_pair_once(monkeypatch):
    """An instance decomposes K1 and K2 once for the base, self and perturbed
    pairs, and each of its other five pairs (conjugated, scaled, pinched,
    second draw, mixture) once per matrix; with the three Kronecker pairs of
    the seed that makes 2 + 10 + 7 = 19 eigh. The tripartite triple reads
    K1's spectrum off the base pair, scaled by tr(G1), and the scaled triple
    reads it off the scaled pair; neither adds one. A mirrored value
    or sandwich adds one matrix to its batch's stacked eigvalsh the first
    time its pair is asked for it at a non-integer (a, beta), and none at an
    integer beta, whose trace is read off matrix products."""
    counts = _count_decompositions(
        monkeypatch, lambda: run_property_suite(n_seeds=1, sizes=(4,))
    )
    assert counts == {"eigh": 19, "eigvalsh": 43}


def test_each_sandwich_is_decomposed_once_per_pair(monkeypatch):
    """Repeated mirrored values and sandwich traces at one (a, beta) share one
    eigvalsh and keep a fresh pair's bits; a new non-integer beta adds one
    more and an integer beta none."""
    _, _, G1, G2 = _grams(0, 12, 12)
    K1, K2 = normalize_trace(G1), normalize_trace(G2)
    pair = _pair_of(K1, K2)
    out = []

    def repeated():
        for _ in range(2):
            out.append(pair.mirrored(0.5, 0.5))
            out.append(pair.mirrored_trace(0.5, 0.5))

    assert _count_decompositions(monkeypatch, repeated) == {"eigh": 0, "eigvalsh": 1}
    assert out[0] == out[2] == _pair_of(K1, K2).mirrored(0.5, 0.5)
    assert out[1] == out[3] == _pair_of(K1, K2).mirrored_trace(0.5, 0.5)
    for beta, eigvalsh in ((0.75, 1), (2.0, 0)):
        counts = _count_decompositions(monkeypatch, lambda: pair.mirrored(0.5, beta))
        assert counts == {"eigh": 0, "eigvalsh": eigvalsh}, beta


def _duplicate_sample_gram():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((8, 4))
    return gram_univariate(GAUSS, SampleSet(np.vstack([X, X[:3]])))


@pytest.mark.parametrize(
    "G", [_grams(0, 12, 12)[2], _duplicate_sample_gram()], ids=["full-rank", "duplicates"]
)
def test_a_self_pair_is_decomposed_once(G, monkeypatch):
    """_gram_pair(K, K), the pair of a public estimator given K twice, takes one
    eigh and gives the bits of the pair of K and a copy of K."""
    K = normalize_trace(G)
    pairs = []
    counts = _count_decompositions(monkeypatch, lambda: pairs.append(_gram_pair(K, K)))
    assert counts == {"eigh": 1, "eigvalsh": 0}
    same = pairs[0]
    copy = _pair_of(K, GramMatrix(K.values.copy(), normalization=K.normalization))
    for a in (0.3, 0.5, 2.0, 4.0):
        assert same.nonmirrored(a) == copy.nonmirrored(a), a
        assert same.mirrored(a, a) == copy.mirrored(a, a), a
    assert same.umegaki() == copy.umegaki()


@pytest.mark.parametrize("k,eigvalsh", [(PRODUCT_ORDER_MAX, 0), (PRODUCT_ORDER_MAX + 1, 1)])
def test_integer_beta_products_stop_at_the_order_bound(k, eigvalsh, monkeypatch):
    """Up to the bound an integer beta reads tr(M^beta) off matrix products,
    clamping none of M's eigenvalues; past it M takes its eigvalsh."""
    _, _, G1, G2 = _grams(0, 12, 12)
    pair = _pair_of(normalize_trace(G1), normalize_trace(G2))
    out = []
    counts = _count_decompositions(
        monkeypatch, lambda: out.append(pair.mirrored_trace(0.5, float(k)))
    )
    assert counts == {"eigh": 0, "eigvalsh": eigvalsh}
    if eigvalsh == 0:
        assert out[0][1] == 0


def test_tripartite_runner_decomposes_k1_once_per_replicate(monkeypatch):
    """Every order, shift and scale of a replicate reads one eigvalsh of K1;
    the default run has 5 replicates and n != m, so no eigh at all."""
    config = default_config("tripartite")
    assert config.replicates == 5 and config.m != config.n_grid[0]
    counts = _count_decompositions(monkeypatch, lambda: run_tripartite(config))
    assert counts == {"eigh": 0, "eigvalsh": 5}


_RUNS = {
    "convergence": lambda: run_convergence(
        default_config("convergence", replicates=2, n_grid=(16, 64, 128))
    ),
    "mean-shift": lambda: run_mean_shift(default_config("mean-shift")),
    "variance-scale": lambda: run_variance_scale(default_config("variance-scale")),
    "tripartite": lambda: run_tripartite(default_config("tripartite")),
    "property-suite": lambda: run_property_suite(n_seeds=1),
}


@pytest.mark.parametrize(
    "label,expected",
    [
        ("mean-shift", {"eigh": 100, "eigvalsh": 180}),
        ("variance-scale", {"eigh": 60, "eigvalsh": 100}),
    ],
    ids=["mean-shift", "variance-scale"],
)
def test_sweep_runner_decomposes_the_red_gram_once_per_replicate(label, expected, monkeypatch):
    """Per kernel (two at the defaults) and replicate (five), one eigh of the
    red Gram and one per blue Gram of the grid (nine shifts, five scales); a
    mirrored value adds the eigvalsh of its sandwich at the non-integer orders
    0.5 and 1.5."""
    assert _count_decompositions(monkeypatch, _RUNS[label]) == expected


def _decomposed_inputs(monkeypatch, call):
    """A digest of the dtype, shape and bytes of every matrix handed to numpy's
    eigh or eigvalsh during call(), each slice of a stack on its own."""
    digests = []

    def recorded(name, M):
        head = f"{M.dtype}{M.shape}".encode()
        digests.append(hashlib.sha256(head + np.ascontiguousarray(M).tobytes()).hexdigest())

    _on_decompositions(monkeypatch, recorded)
    call()
    return digests


@pytest.mark.parametrize("label", sorted(_RUNS))
def test_no_matrix_is_decomposed_twice_per_run(label, monkeypatch):
    """Every runner and the property suite hand each matrix they decompose to
    eigh or eigvalsh once: a spectrum one pair or triple needs again is passed
    on, never recomputed."""
    digests = _decomposed_inputs(monkeypatch, _RUNS[label])
    assert digests
    repeated = {d: c for d, c in Counter(digests).items() if c > 1}
    assert not repeated, f"{len(repeated)} matrices decomposed more than once"


@pytest.mark.parametrize("label", ["convergence", "mean-shift", "variance-scale"])
def test_one_gram_is_alive_per_decomposition(label, monkeypatch):
    """Every bipartite runner checks, decomposes and releases one Gram before it
    builds the next, and its pairs hold spectra, no Gram: at each eigh or
    eigvalsh at most one GramMatrix of the decomposed size built in the run is
    alive. (The property suite keeps K1 to K4 alive for its later pairs.)"""
    made, live, pairs = [], [], []
    init = GramMatrix.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    def count_live(name, M):
        n = M.shape[0]
        live.append(sum(G is not None and G.n == n for G in (ref() for ref in made)))

    monkeypatch.setattr(GramMatrix, "__init__", tracked)
    _on_decompositions(monkeypatch, count_live)
    built = gramxent.experiments._Pair
    monkeypatch.setattr(
        gramxent.experiments, "_Pair", lambda *args: pairs.append(built(*args)) or pairs[-1]
    )
    _RUNS[label]()
    assert live and max(live) <= 1, Counter(live)
    assert pairs and not any(
        isinstance(v, GramMatrix) for pair in pairs for v in vars(pair).values()
    )


def _pair_measures(pair):
    """Every CrossEntropyResult a pair gives: both measures at four orders,
    the two-parameter measure at beta = 0.75 and the Umegaki limit."""
    out = []
    for a in (0.3, 0.5, 2.0, 4.0):
        out += [pair.nonmirrored(a), pair.mirrored(a, a)]
    return out + [pair.mirrored(0.5, 0.75), pair.umegaki()]


def _spectra_in_cases():
    """(K1, K2, raw): a full-rank pair, a duplicate-sample K2 whose support
    misses K1's (the +inf gate) and a raw pair."""
    _, _, G1, G2 = _grams(0, 12, 12)
    _, _, F1, _ = _grams(2, 11, 11)
    return {
        "full-rank": (normalize_trace(G1), normalize_trace(G2), False),
        "duplicates": (normalize_trace(F1), normalize_trace(_duplicate_sample_gram()), False),
        "raw": (G1, G2, True),
    }


@pytest.mark.parametrize("label", sorted(_spectra_in_cases()))
def test_a_pair_handed_its_spectra_matches_the_matrix_pair(label, monkeypatch):
    """_Pair given both spectra makes no decomposition, leaves them as
    they were and gives every result of _gram_pair, which decomposes K1 and K2
    itself as the public estimators do."""
    K1, K2, raw = _spectra_in_cases()[label]
    s1, s2 = _spectrum(K1), _spectrum(K2)
    before = [s[0].eigenvectors.tobytes() for s in (s1, s2)]
    pairs = []
    counts = _count_decompositions(monkeypatch, lambda: pairs.append(_Pair(s1, s2, raw)))
    assert counts == {"eigh": 0, "eigvalsh": 0}
    assert [s[0].eigenvectors.tobytes() for s in (s1, s2)] == before
    assert (pairs[0].n, pairs[0].tr1) == (K1.n, K1.trace())
    expected = _gram_pair(K1, K2, raw)
    assert pairs[0].overlap.tobytes() == expected.overlap.tobytes()
    assert _pair_measures(pairs[0]) == _pair_measures(expected)
    if label == "duplicates":
        assert not expected.support.included and expected.nonmirrored(2.0).value == math.inf


@pytest.mark.parametrize(
    "G", [_grams(0, 12, 12)[2], _duplicate_sample_gram()], ids=["full-rank", "duplicates"]
)
def test_a_self_pair_handed_its_spectrum_matches_the_matrix_self_pair(G, monkeypatch):
    """_Pair(s, s) for s = _spectrum(K) decomposes nothing, keeps the caller's
    eigenvectors and has the bits of _gram_pair(K, K)."""
    K = normalize_trace(G)
    s = _spectrum(K)
    before = s[0].eigenvectors.tobytes()
    pairs = []
    counts = _count_decompositions(monkeypatch, lambda: pairs.append(_Pair(s, s)))
    assert counts == {"eigh": 0, "eigvalsh": 0}
    assert s[0].eigenvectors.tobytes() == before
    expected = _gram_pair(K, K)
    assert pairs[0].overlap.tobytes() == expected.overlap.tobytes()
    assert _pair_measures(pairs[0]) == _pair_measures(expected)


def _poisoned(K, value):
    M = K.values.copy()
    M[0, 1] = M[1, 0] = value
    return GramMatrix(M, normalization=K.normalization)


def _entry_points(value):
    X, Y, G1, G2 = _grams(0, 6, 6)
    _, Z, _, G3 = _grams(0, 6, 7)
    K1, K2 = normalize_trace(G1), normalize_trace(G2)
    bad = _poisoned(K2, value)
    cross = gram_cross(GAUSS, X, Y).values.copy()
    cross[0, 1] = value
    return {
        "nonmirrored": lambda: nonmirrored_cross_entropy(K1, bad, 2.0),
        "mirrored": lambda: mirrored_cross_entropy(K1, bad, 2.0),
        "two-param": lambda: mirrored_cross_entropy_two_param(K1, bad, 0.5, 0.75),
        "umegaki": lambda: mirrored_limit_umegaki(K1, bad),
        "tripartite": lambda: tripartite_cross_entropy(
            _poisoned(G1, value), gram_cross(GAUSS, X, Y), G2, 2.0
        ),
        # K2 of another size and K12 are never decomposed, so they are
        # checked before the CIP is formed
        "tripartite-nonsquare-K2": lambda: tripartite_cross_entropy(
            G1, gram_cross(GAUSS, X, Z), _poisoned(G3, value), 2.0
        ),
        "tripartite-K12": lambda: tripartite_cross_entropy(G1, CrossGram(cross), G2, 2.0),
        "entropy": lambda: matrix_renyi_entropy(bad, 2.0),
        "bounds": lambda: trace_distance_bounds(K1, bad),
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


def _spectral(K, f):
    """V f(lambda) V^T over the support of K (a Gram or a plain array), 0 off it."""
    eig = sym_eig(K)
    V = eig.eigenvectors[:, : eig.rank]
    M = (V * f(eig.support)) @ V.T
    return 0.5 * (M + M.T)


def _power(K, p):
    return _spectral(K, lambda w: np.power(w, float(p)))


def _sandwich_trace(K1, K2, outer, inner, power):
    H = _power(K2, outer)
    M = H @ _power(K1, inner) @ H
    return float(np.trace(_power(0.5 * (M + M.T), power)))


@pytest.mark.parametrize("label,K1,K2", _pairs(), ids=[p[0] for p in _pairs()])
@pytest.mark.parametrize("a", [0.3, 0.5, 1.5, 2.0, 4.0])
def test_bipartite_values_match_standard_basis_reference(label, K1, K2, a):
    beta = max(a, 1.0 - a) + 0.25
    expected = {
        "nonmirrored": math.log(np.sum(_power(K1, a) * _power(K2, 1.0 - a))),
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
    expected = np.sum(K1.values * (_spectral(K1, np.log) - _spectral(K2, np.log))) / K1.trace()
    got = mirrored_limit_umegaki(K1, K2).value
    assert got == pytest.approx(expected, rel=1e-10, abs=1e-14)


def _support_reference(inner, outer):
    """The report of supp inner inside supp outer from ||P0 U||_F: U spans
    inner's range and P0 = N N^T projects onto outer's nullspace."""
    e_in, e_out = sym_eig(inner), sym_eig(outer)
    N = e_out.eigenvectors[:, e_out.rank :]
    residual = float(np.linalg.norm(N @ (N.T @ e_in.eigenvectors[:, : e_in.rank])))
    return SupportReport(e_in.rank, e_out.rank, residual <= DEFAULT_SUPPORT_TOL, residual)


def _assert_same_report(got, expected):
    assert (got.rank_1, got.rank_2, got.included) == (
        expected.rank_1,
        expected.rank_2,
        expected.included,
    )
    assert got.residual == pytest.approx(expected.residual, abs=1e-12)


@pytest.mark.parametrize("label,K1,K2", _pairs(), ids=[p[0] for p in _pairs()])
def test_support_reports_match_support_included(label, K1, K2):
    """Both directions, so the not-included (+inf) path is covered too."""
    for A, B in ((K1, K2), (K2, K1)):
        expected = _support_reference(A, B)
        for measure in (nonmirrored_cross_entropy, mirrored_cross_entropy):
            res = measure(A, B, 2.0)
            _assert_same_report(res.support, expected)
            assert math.isfinite(res.value) == expected.included
        _assert_same_report(
            mirrored_cross_entropy_two_param(A, B, 0.5, 0.75).support, expected
        )
        res = mirrored_limit_umegaki(A, B)
        _assert_same_report(res.support, expected)
    if label == "rank-deficient-K2":
        assert not _support_reference(K2, K1).included  # the +inf path ran


# ------------------------------------------------- integer-order sandwiches

def _sandwich(pair, a, beta):
    """The n x n sandwich M = B^T B whose power sum _Pair.mirrored_trace
    reads, built here from the pair's spectra and overlap, powers on the
    supports and B zero off them."""
    r1, r2 = pair.lam.size, pair.mu.size
    B = np.zeros_like(pair.overlap)
    B[:r1, :r2] = (
        (pair.lam ** (a / (2.0 * beta)))[:, None]
        * pair.overlap[:r1, :r2]
        * pair.mu ** ((1.0 - a) / (2.0 * beta))
    )
    return B.T @ B


def _trace_pairs():
    """(label, K1, K2, raw): the unit-trace pairs, rank-deficient K2 among
    them, plus raw Gram pairs."""
    pairs = [(label, K1, K2, False) for label, K1, K2 in _pairs()]
    for seed, n in ((4, 6), (5, 12)):
        _, _, G1, G2 = _grams(seed, n, n)
        pairs.append((f"raw-{n}", G1, G2, True))
    return pairs


@pytest.mark.parametrize(
    "label,K1,K2,raw", _trace_pairs(), ids=[p[0] for p in _trace_pairs()]
)
@pytest.mark.parametrize("a", [0.5, 2.0, 3.0])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_integer_beta_trace_is_the_sandwich_power_sum(label, K1, K2, raw, a, k):
    pair = _pair_of(K1, K2, raw)
    t, clamped = pair.mirrored_trace(a, float(k))
    expected = sym_eig(_sandwich(pair, a, k), vectors=False).power_sum(k)
    assert t == pytest.approx(expected, rel=1e-12)
    assert clamped == 0


@pytest.mark.parametrize(
    "label,K1,K2,raw", _trace_pairs(), ids=[p[0] for p in _trace_pairs()]
)
def test_a_value_does_not_depend_on_its_batch(label, K1, K2, raw):
    """One batch reads both measures and the two-parameter mirrored measure
    at beta = max(a, 1 - a) at six orders; each value has the bits of its
    order read alone on a fresh pair and of the public estimator."""
    orders = [0.3, 0.5, 0.7, 1.5, 2.0, 4.0]
    keys = [(a, a) for a in orders] + [(a, max(a, 1.0 - a)) for a in orders]
    non, mir = _pair_of(K1, K2, raw).values(orders, keys)
    alone = [_pair_of(K1, K2, raw).nonmirrored(a).value for a in orders]
    alone += [_pair_of(K1, K2, raw).mirrored(a, beta).value for a, beta in keys]
    public = [nonmirrored_cross_entropy(K1, K2, a, raw=raw).value for a in orders]
    public += [mirrored_cross_entropy(K1, K2, a, raw=raw).value for a in orders]
    public += [
        mirrored_cross_entropy_two_param(K1, K2, a, beta, raw=raw).value
        for a, beta in keys[len(orders):]
    ]
    batched = [float(v).hex() for v in (*non, *mir)]
    assert batched == [v.hex() for v in alone]
    assert batched == [v.hex() for v in public]


@pytest.mark.parametrize(
    "label,K1,K2,raw", _trace_pairs(), ids=[p[0] for p in _trace_pairs()]
)
def test_every_decomposed_sandwich_is_bitwise_symmetric(label, K1, K2, raw, monkeypatch):
    """Each sandwich M = C o (w w^T) that a non-integer beta hands to eigvalsh
    equals its transpose bit for bit, so no tolerance ever decides its
    symmetry: one at a time, and as the slices of one batch's stack."""
    handed = []
    original = np.linalg.eigvalsh

    def recorded(A, *args, **kwargs):
        handed.extend(np.all(A == np.swapaxes(A, -1, -2), axis=(-1, -2)).ravel().tolist())
        return original(A, *args, **kwargs)

    keys = [(0.5, 0.5), (0.3, 0.75), (2.0, 2.5), (4.0, 17.0)]
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    pair = _pair_of(K1, K2, raw)
    for key in keys:
        pair.mirrored_trace(*key)
    _pair_of(K1, K2, raw).traces((), keys)
    assert handed == [True] * 8


def test_overflowing_sandwich_raises_the_same_error_on_both_paths(monkeypatch):
    """At order 1000, K2's negative power overflows B: on an integer beta as
    on a non-integer one the overflowed M is an overflowed trace, reported
    before any power of M is taken, and no numpy warning leaks."""
    powers = []
    monkeypatch.setattr(np.linalg, "matrix_power", lambda *args: powers.append(args))
    _, K1, K2 = _pairs()[2]
    for beta in (1.0, 1.5, 2.0, 2.5):
        with pytest.raises(NumericalDegeneracyError, match="mirrored trace collapsed") as exc:
            mirrored_cross_entropy_two_param(K1, K2, 1000.0, beta)
        assert not math.isfinite(exc.value.trace_value)
    assert powers == []


def test_integer_beta_trace_past_the_float_range_raises():
    """At order 1600, M is finite but its powers overflow (and meet the zero
    rows of the rank-deficient M as inf * 0); the trace is a
    NumericalDegeneracyError on every path, not the support gate's +inf, and
    no numpy warning leaks."""
    for _, K1, K2 in _pairs():
        for beta in (15.0, 15.5, 16.0, 17.0):
            with pytest.raises(NumericalDegeneracyError, match="mirrored trace collapsed") as exc:
                mirrored_cross_entropy_two_param(K1, K2, 1600.0, beta)
            assert not (0 < exc.value.trace_value < math.inf)
