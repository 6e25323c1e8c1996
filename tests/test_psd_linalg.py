"""Spectral primitives: eigendecomposition, and the powers, logs and support
tests read off it."""

import numpy as np
import numpy.testing as npt
import pytest

from gramxent import ArgumentError, GramMatrix, sym_eig
from gramxent.estimators import _gram_pair
from gramxent.psd_linalg import SYMMETRY_RTOL, clamp_threshold
from test_spectral_core import _power, _spectral


def rand_psd(seed, n, rank=None):
    """Random PSD matrix with controlled rank, built from a tall factor."""
    rng = np.random.default_rng(seed)
    r = rank if rank is not None else n
    A = rng.standard_normal((n, r))
    return A @ A.T / r


def spectral_exp(S):
    """Test-local exponential of a symmetric matrix, which the log inverts."""
    w, V = np.linalg.eigh(S)
    return (V * np.exp(w)) @ V.T


# -------------------------------------------------------------------- sym_eig

def test_sym_eig_diagonal():
    dec = sym_eig(GramMatrix(np.diag([3.0, 1.0])))
    npt.assert_allclose(dec.eigenvalues, [3.0, 1.0])
    # eigenvectors are the axes up to sign
    npt.assert_allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-14)


def test_sym_eig_rank_one():
    dec = sym_eig(GramMatrix(np.ones((2, 2))))
    npt.assert_allclose(dec.eigenvalues, [2.0, 0.0], atol=1e-15)


def test_sym_eig_reconstruction_and_orthonormality():
    G = rand_psd(0, 8)
    dec = sym_eig(GramMatrix(G))
    V, w = dec.eigenvectors, dec.eigenvalues
    assert np.all(np.diff(w) <= 0), "eigenvalues must be sorted descending"
    npt.assert_allclose(V.T @ V, np.eye(8), atol=1e-10)
    recon = (V * w) @ V.T
    assert np.linalg.norm(recon - G) / np.linalg.norm(G) < 1e-10


def test_an_eigenvalue_at_the_clamp_threshold_is_clamped_and_the_next_float_kept():
    """With lambda_max = 1 and n = 3, tau = 3 eps exactly: the support is the
    eigenvalues strictly above it, a leading run of the sorted spectrum."""
    tau = 3 * np.finfo(float).eps
    above = np.nextafter(tau, np.inf)
    assert clamp_threshold([tau, 1.0, above]) == tau
    G = GramMatrix(np.diag([tau, 1.0, above]))
    dec = sym_eig(G)
    assert (dec.rank, dec.clamp_count) == (2, 1)
    npt.assert_array_equal(dec.eigenvalues, [1.0, above, tau])
    npt.assert_array_equal(dec.support, [1.0, above])
    assert np.shares_memory(dec.support, dec.eigenvalues)
    assert dec.power_sum(1.0) == 1.0 + above


def test_sym_eig_rejects_asymmetric():
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ArgumentError):
        sym_eig(GramMatrix(M))


def test_sym_eig_rejects_a_non_square_array():
    with pytest.raises(ArgumentError, match="square matrix, got shape \\(2, 3\\)"):
        sym_eig(np.zeros((2, 3)))


def test_a_complex_array_is_rejected_not_cast_to_its_real_part():
    """The real part of this Hermitian matrix is 0.5 I; its eigenvalues are 0.7
    and 0.3."""
    M = np.array([[0.5, 0.2j], [-0.2j, 0.5]])
    with pytest.raises(ArgumentError, match="complex"):
        sym_eig(M)


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_a_non_finite_entry_is_reported_before_the_shape(value):
    M = np.ones((2, 3))
    M[1, 2] = value
    with pytest.raises(ArgumentError, match="non-finite"):
        sym_eig(M)


def test_the_asymmetry_bound_is_inclusive():
    """An asymmetry of exactly n * SYMMETRY_RTOL * max|A| passes; the next
    float above it is rejected."""
    n, scale = 3, 4.0
    bound = SYMMETRY_RTOL * scale * n
    M = scale * np.eye(n)
    M[0, 2] = bound
    assert sym_eig(M).rank == n
    M[0, 2] = np.nextafter(bound, np.inf)
    with pytest.raises(ArgumentError, match="not symmetric"):
        sym_eig(M)


@pytest.mark.parametrize("n", [0, 3])
def test_an_all_zero_matrix_has_rank_zero(n):
    dec = sym_eig(np.zeros((n, n)))
    assert (dec.rank, dec.clamp_count) == (0, n)


# ------------------------------------------- spectral functions of sym_eig
# The standard-basis reference of tests/test_spectral_core.py, V f(lambda) V^T
# over the support, checked against closed forms before it is trusted.

def test_power_identity_exponent_is_copy():
    G = rand_psd(1, 5)
    npt.assert_allclose(_power(G, 1.0), G, atol=1e-12)
    assert sym_eig(G).clamp_count == 0


def test_power_identity_exponent_is_support_restricted():
    """p = 1 drops off-support and negative eigenvalues like any other p."""
    G = np.diag([1.0, 1e-20, -1e-3])
    out = _power(G, 1.0)
    npt.assert_allclose(out, np.diag([1.0, 0.0, 0.0]), atol=1e-15)
    assert sym_eig(G).clamp_count == 2
    npt.assert_allclose(out, _power(G, 1.0000001), atol=1e-6)


def test_power_square_root_diagonal():
    npt.assert_allclose(_power(np.diag([4.0, 1.0]), 0.5), np.diag([2.0, 1.0]), atol=1e-14)


def test_power_cube_matches_repeated_multiplication():
    G = rand_psd(2, 6)
    explicit = G @ G @ G
    assert np.linalg.norm(_power(G, 3.0) - explicit) / np.linalg.norm(explicit) < 1e-9


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5, -0.5])
@pytest.mark.parametrize("b", [0.5, 1.0, 1.5, -0.5])
def test_power_exponent_additivity(a, b):
    G = rand_psd(3, 7)  # full rank
    lhs = _power(G, a + b)
    rhs = _power(G, a) @ _power(G, b)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-8


def test_power_commutes_with_input():
    G = rand_psd(4, 6)
    P = _power(G, 0.7)
    assert np.linalg.norm(P @ G - G @ P) < 1e-9


def test_power_negative_is_pseudo_inverse():
    """Off-support directions map to zero for negative exponents too."""
    G = np.diag([2.0, 0.5, 0.0])
    npt.assert_allclose(_power(G, -1.0), np.diag([0.5, 2.0, 0.0]), atol=1e-13)
    assert sym_eig(G).clamp_count == 1


def test_power_counts_clamped_eigenvalues():
    assert sym_eig(rand_psd(5, 6, rank=4)).clamp_count == 2


def test_log_identity_is_zero():
    npt.assert_allclose(_spectral(np.eye(4), np.log), np.zeros((4, 4)), atol=1e-14)


def test_log_diagonal():
    out = _spectral(np.diag([np.e, 1.0]), np.log)
    npt.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-14)


def test_log_zero_off_support():
    out = _spectral(np.diag([2.0, 0.0]), np.log)
    npt.assert_allclose(out, np.diag([np.log(2.0), 0.0]), atol=1e-14)


def test_log_inverts_spectral_exp():
    rng = np.random.default_rng(6)
    S = rng.standard_normal((5, 5))
    S = 0.3 * (S + S.T)
    assert np.linalg.norm(_spectral(spectral_exp(S), np.log) - S) < 1e-9


# ------------------------------------------------------ a pair's support test

def test_support_full_rank_outer_always_included():
    inner = GramMatrix(rand_psd(7, 5, rank=2))
    outer = GramMatrix(rand_psd(8, 5))
    rep = _gram_pair(inner, outer, raw=True).support
    assert rep.included
    assert rep.residual <= 1e-12
    assert rep.rank_1 == 2 and rep.rank_2 == 5


def test_support_reflexive():
    K = GramMatrix(rand_psd(9, 4, rank=3))
    assert _gram_pair(K, K, raw=True).support.included


def test_support_disjoint_rank_one():
    inner = GramMatrix(np.diag([0.0, 1.0]))
    outer = GramMatrix(np.diag([1.0, 0.0]))
    rep = _gram_pair(inner, outer, raw=True).support
    assert not rep.included
    assert rep.residual == pytest.approx(1.0, abs=1e-12)


def test_support_monotone_under_psd_widening():
    """Adding PSD mass to the outer matrix can only help inclusion."""
    for seed in range(10):
        inner = GramMatrix(rand_psd(3 * seed, 6, rank=3))
        outer = GramMatrix(rand_psd(3 * seed + 1, 6, rank=4))
        widened = GramMatrix(outer.values + rand_psd(3 * seed + 2, 6, rank=2))
        if _gram_pair(inner, outer, raw=True).support.included:
            assert _gram_pair(inner, widened, raw=True).support.included


def test_support_size_mismatch():
    with pytest.raises(ArgumentError):
        _gram_pair(GramMatrix(np.eye(2)), GramMatrix(np.eye(3)), raw=True)
