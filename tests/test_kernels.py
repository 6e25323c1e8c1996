"""Kernel evaluation and Gram construction."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramxent import (
    ArgumentError,
    DegenerateMatrixError,
    GramMatrix,
    KernelOverflowError,
    KernelSpec,
    SampleSet,
    gram_cross,
    gram_univariate,
    hadamard_joint,
    normalize_trace,
)
from gramxent.kernels import _kernel_block

GAUSS = KernelSpec("gaussian", 1.0)
EIP = KernelSpec("exponential-inner-product", 1.0)

EXP_MINUS_ONE = 0.36787944117144233


def oracle_gram(spec, X, Y):
    """Plain double-loop kernel evaluation, independent of the vectorized path."""
    n, m = len(X), len(Y)
    out = np.empty((n, m))
    for i in range(n):
        for j in range(m):
            if spec.family == "gaussian":
                diff = np.asarray(X[i]) - np.asarray(Y[j])
                out[i, j] = math.exp(-spec.bandwidth * float(diff @ diff))
            else:
                out[i, j] = math.exp(
                    spec.bandwidth * float(np.asarray(X[i]) @ np.asarray(Y[j]))
                )
    return out


def rand_samples(seed, n, d, scale=1.0):
    return SampleSet(scale * np.random.default_rng(seed).standard_normal((n, d)))


def test_kernel_spec_validation():
    with pytest.raises(ArgumentError):
        KernelSpec("triangle", 1.0)
    with pytest.raises(ArgumentError):
        KernelSpec("gaussian", 0.0)


def test_sample_set_validation():
    with pytest.raises(ArgumentError):
        SampleSet(np.ones(4))  # not 2-d
    with pytest.raises(ArgumentError):
        SampleSet(np.array([[1.0, np.nan]]))
    with pytest.raises(ArgumentError, match="n >= 1"):
        SampleSet(np.zeros((0, 2)))


# ------------------------------------------------------------- gram matrices

def test_gram_single_sample_is_one():
    G = gram_univariate(GAUSS, SampleSet(np.array([[2.0, -1.0]])))
    npt.assert_array_equal(G.values, [[1.0]])


def test_gram_identical_samples_all_ones():
    X = SampleSet(np.array([[0.5, 0.5], [0.5, 0.5]]))
    npt.assert_array_equal(gram_univariate(GAUSS, X).values, np.ones((2, 2)))


@pytest.mark.parametrize("spec", [GAUSS, EIP], ids=["gaussian", "eip"])
def test_gram_matches_double_loop_oracle(spec):
    X = rand_samples(7, 3, 4)
    G = gram_univariate(spec, X)
    npt.assert_allclose(G.values, oracle_gram(spec, X.data, X.data), atol=1e-14)


def test_gram_is_bit_exact_symmetric():
    """Both families' Grams are bit-symmetric, and the gaussian Grams round
    exactly as exp(-sigma * max(|a|^2 + |b|^2 - 2<a, b>, 0)) in that order:
    every result file's bytes rest on it, and a reordered sum would pass any
    tolerance-based check."""
    X = rand_samples(11, 17, 3)
    for spec in (GAUSS, EIP):
        V = gram_univariate(spec, X).values
        assert np.array_equal(V, V.T)

    spec = KernelSpec("gaussian", 0.7)

    def plain(A, B):
        sq_a, sq_b = np.sum(A * A, axis=1), np.sum(B * B, axis=1)
        D = np.maximum(sq_a[:, None] + sq_b[None, :] - 2.0 * (A @ B.T), 0.0)
        return np.exp(-spec.bandwidth * D)

    for d in (2, 10, 100):
        A, B = rand_samples(d, 40, d), rand_samples(d + 1, 23, d)
        square = plain(A.data, A.data)
        np.fill_diagonal(square, 1.0)
        assert np.array_equal(gram_univariate(spec, A).values, square)
        assert np.array_equal(gram_cross(spec, A, B).values, plain(A.data, B.data))


def test_gram_eip_overflow_names_pair():
    X = SampleSet(np.array([[0.0, 0.0], [40.0, 0.0], [0.1, 30.0]]))
    with pytest.raises(KernelOverflowError) as exc:
        gram_univariate(EIP, X)
    assert (exc.value.i, exc.value.j) == (1, 1)
    assert "(1, 1)" in str(exc.value)


@pytest.mark.parametrize("spec", [GAUSS, EIP], ids=["gaussian", "eip"])
@pytest.mark.parametrize("n", [2, 31, 257])
def test_gram_numerically_psd(spec, n):
    """Minimum eigenvalue stays above the -n*eps*lambda_max floor."""
    G = gram_univariate(spec, rand_samples(n, n, 3, scale=0.6)).values
    w = np.linalg.eigvalsh(G)
    assert w[0] >= -n * np.finfo(float).eps * w[-1]
    assert (G >= 0).all()


def test_gaussian_gram_translation_invariant():
    X = rand_samples(3, 12, 5)
    shift = np.array([3.0, -1.0, 0.5, 2.0, -7.0])
    G1 = gram_univariate(GAUSS, X).values
    G2 = gram_univariate(GAUSS, SampleSet(X.data + shift)).values
    npt.assert_allclose(G1, G2, atol=1e-12)


def test_eip_gram_translation_varying():
    X = rand_samples(3, 12, 5)
    G1 = gram_univariate(EIP, X).values
    G2 = gram_univariate(EIP, SampleSet(X.data + 1.0)).values
    assert np.abs(G1 - G2).max() > 1e-3


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=4),
)
def test_gram_psd_and_symmetric_property(seed, n, d):
    X = rand_samples(seed, n, d)
    for spec in (GAUSS, EIP):
        G = gram_univariate(spec, X)
        assert np.array_equal(G.values, G.values.T)
        w = np.linalg.eigvalsh(G.values)
        assert w[0] >= -n * np.finfo(float).eps * max(w[-1], 1.0)


# ----------------------------------------------------------------- gram_cross

def test_cross_equals_univariate_on_same_set():
    X = rand_samples(5, 6, 2)
    npt.assert_array_equal(
        gram_cross(GAUSS, X, X).values, gram_univariate(GAUSS, X).values
    )


def test_cross_single_points_unit_distance():
    X = SampleSet(np.array([[1.0, 0.0]]))
    Y = SampleSet(np.array([[0.0, 0.0]]))
    npt.assert_allclose(gram_cross(GAUSS, X, Y).values, [[EXP_MINUS_ONE]], rtol=1e-15)


def test_cross_matches_oracle():
    X = rand_samples(1, 2, 3)
    Y = rand_samples(2, 3, 3)
    C = gram_cross(GAUSS, X, Y)
    assert C.values.shape == (2, 3)
    npt.assert_allclose(C.values, oracle_gram(GAUSS, X.data, Y.data), atol=1e-14)


def test_cross_dimension_mismatch():
    with pytest.raises(ArgumentError):
        gram_cross(GAUSS, rand_samples(1, 2, 3), rand_samples(2, 2, 4))


# ------------------------------------------------------------ normalize_trace

def test_normalize_identity():
    G = normalize_trace(GramMatrix(np.eye(2)))
    npt.assert_array_equal(G.values, np.eye(2) / 2)
    assert G.normalization == "unit-trace"


def test_normalize_all_ones():
    G = normalize_trace(GramMatrix(np.ones((3, 3))))
    npt.assert_allclose(G.values, np.full((3, 3), 1.0 / 3.0), rtol=1e-15)


def test_normalize_idempotent_exact():
    G = normalize_trace(GramMatrix(np.diag([2.0, 3.0])))
    again = normalize_trace(G)
    assert again is G  # flag short-circuit, not merely close


def test_normalize_near_unit_trace_raw_input():
    V = np.diag([0.25, 0.75])
    npt.assert_allclose(normalize_trace(GramMatrix(V)).values, V, atol=1e-15)


def test_normalize_zero_trace_degenerate():
    with pytest.raises(DegenerateMatrixError):
        normalize_trace(GramMatrix(np.zeros((2, 2))))


def test_normalize_names_a_nonpositive_trace():
    """normalize_trace and the estimators state one positive-trace rule."""
    with pytest.raises(DegenerateMatrixError, match="nonpositive trace"):
        normalize_trace(GramMatrix(np.zeros((2, 2))))


# ------------------------------------------------------------- hadamard_joint

def test_hadamard_all_ones_fixed_point():
    ones = normalize_trace(GramMatrix(np.ones((4, 4))))
    J = hadamard_joint(ones, ones)
    npt.assert_allclose(J.values, np.ones((4, 4)) / 4.0, rtol=1e-15)


def test_hadamard_with_identity_extracts_diagonal():
    K1 = normalize_trace(gram_univariate(GAUSS, rand_samples(9, 4, 2)))
    ident = normalize_trace(GramMatrix(np.eye(4)))
    J = hadamard_joint(K1, ident)
    expected = np.diag(np.diag(K1.values))
    expected /= expected.trace()
    npt.assert_allclose(J.values, expected, rtol=1e-13)


def test_hadamard_oracle_and_unit_trace():
    A = normalize_trace(gram_univariate(GAUSS, rand_samples(21, 5, 3)))
    B = normalize_trace(gram_univariate(GAUSS, rand_samples(22, 5, 3)))
    J = hadamard_joint(A, B)
    raw = A.values * B.values
    npt.assert_allclose(J.values, raw / raw.trace(), rtol=1e-13)
    assert abs(J.values.trace() - 1.0) <= 1e-12
    # Schur product of PSD matrices stays PSD
    w = np.linalg.eigvalsh(J.values)
    assert w[0] >= -5 * np.finfo(float).eps * w[-1]


def test_hadamard_size_mismatch():
    A = normalize_trace(GramMatrix(np.eye(3)))
    B = normalize_trace(GramMatrix(np.eye(4)))
    with pytest.raises(ArgumentError):
        hadamard_joint(A, B)


def test_hadamard_zero_trace_degenerate():
    with pytest.raises(DegenerateMatrixError):
        hadamard_joint(GramMatrix(np.diag([1.0, 0.0])), GramMatrix(np.diag([0.0, 1.0])))


def test_unit_trace_flag_means_unit_trace():
    K = normalize_trace(gram_univariate(EIP, rand_samples(13, 9, 4)))
    assert abs(K.trace() - 1.0) <= 1e-12


# ------------------------------------------------------------------ bandwidth

@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_bandwidth_must_be_positive_and_finite(bad):
    with pytest.raises(ArgumentError, match="bandwidth must be positive and finite"):
        KernelSpec("gaussian", bad)


def test_huge_bandwidth_is_the_exact_limit():
    """sigma * ||s - a||^2 overflowing to inf gives the gaussian's exact
    exp(-inf) = 0 with no warning; the exponential-inner-product family raises."""
    X, Y = rand_samples(31, 5, 2), rand_samples(32, 4, 2)
    huge = KernelSpec("gaussian", 1e308)
    npt.assert_array_equal(gram_univariate(huge, X).values, np.eye(5))
    npt.assert_array_equal(gram_cross(huge, X, Y).values, np.zeros((5, 4)))
    with pytest.raises(KernelOverflowError):
        gram_univariate(KernelSpec("exponential-inner-product", 1e308), X)


def test_huge_samples_are_the_exact_limit():
    """Samples whose squares overflow: the distances overflow to inf, so the
    gaussian is exactly 0 between far points, with no inf - inf warning, and
    a small pair among them keeps its exact value."""
    X = SampleSet(np.array([[1e200, -1e200], [1.0, 2.0], [1.7e308, 0.0]]))
    Y = SampleSet(np.array([[1e200, 1e200], [1.0, 1.0]]))
    npt.assert_array_equal(gram_univariate(GAUSS, X).values, np.eye(3))
    npt.assert_array_equal(
        gram_cross(GAUSS, X, Y).values, [[0.0, 0.0], [0.0, EXP_MINUS_ONE], [0.0, 0.0]]
    )
    with pytest.raises(KernelOverflowError):
        gram_univariate(EIP, X)


def test_mixed_sign_overflowed_inner_product_is_an_overflow():
    """<a, b> = 2e400 summed as inf + inf + inf - inf is NaN in some BLAS
    kernels; it is reported as an overflow at its pair, not carried into the
    Gram. A d = 10 Gram of mixed-sign huge rows raises the same way. So does
    <s, a> = -inf + inf, which a BLAS dot can sum to -inf, so exp gives 0."""
    a, b = 1e200 * np.ones(4), 1e200 * np.array([1.0, 1.0, 1.0, -1.0])
    X = SampleSet(np.array([[1.0, 2.0, 3.0, 4.0], a]))
    with pytest.raises(KernelOverflowError) as exc:
        gram_cross(EIP, X, SampleSet(b[None, :]))
    assert (exc.value.i, exc.value.j, exc.value.exponent) == (1, 0, math.inf)
    rows = 1e200 * np.random.default_rng(0).standard_normal((8, 10))
    with pytest.raises(KernelOverflowError) as exc:
        gram_univariate(EIP, SampleSet(rows))
    assert exc.value.exponent == math.inf
    s, t = np.array([-1e200, 1e200]), np.array([1e200, 1e200])
    with pytest.raises(KernelOverflowError):
        gram_cross(EIP, SampleSet(s[None, :]), SampleSet(t[None, :]))


# -------------------------------------------------------------------- mirror

def _index_array_mirror(K):
    """The strict upper triangle copied onto the lower one by index arrays."""
    iu, ju = np.triu_indices(K.shape[0], k=1)
    K[ju, iu] = K[iu, ju]
    return K


@pytest.mark.parametrize("spec", [GAUSS, EIP], ids=["gaussian", "eip"])
@pytest.mark.parametrize(
    "n, d",
    [(1, 5), (2, 5), (17, 5), (128, 5), (17, 25), (255, 100)],
    ids=["1", "2", "17", "128", "17x25", "255x100"],
)
def test_gram_is_the_index_array_mirror_bit_for_bit(spec, n, d):
    """The builders mirror nothing: numpy's A @ A.T is a symmetric product,
    so the Gram is bit-symmetric as built. The last two shapes are ones where
    A @ B.T of a separate copy B of A can differ between its triangles."""
    rng = np.random.default_rng(n)
    X = SampleSet(0.3 * rng.standard_normal((n, d)))
    K = _kernel_block(spec, X.data, X.data)
    if spec is GAUSS:
        np.fill_diagonal(K, 1.0)
    got = gram_univariate(spec, X).values
    assert got.tobytes() == _index_array_mirror(K).tobytes()
    assert got.tobytes() == got.T.copy().tobytes()
