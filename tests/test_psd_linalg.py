"""Spectral primitives: eigendecomposition, powers, logs, support checks."""

import numpy as np
import numpy.testing as npt
import pytest

from gramxent import (
    ArgumentError,
    DegenerateMatrixError,
    GramMatrix,
    matrix_log,
    matrix_power,
    support_included,
    sym_eig,
    trace_product,
)


def rand_psd(seed, n, rank=None):
    """Random PSD matrix with controlled rank, built from a tall factor."""
    rng = np.random.default_rng(seed)
    r = rank if rank is not None else n
    A = rng.standard_normal((n, r))
    return A @ A.T / r


def spectral_exp(S):
    """Test-local exponential of a symmetric matrix (oracle for matrix_log)."""
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


def test_sym_eig_rejects_asymmetric():
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ArgumentError):
        sym_eig(GramMatrix(M))


# --------------------------------------------------------------- matrix_power

def test_power_identity_exponent_is_copy():
    G = rand_psd(1, 5)
    out = matrix_power(GramMatrix(G), 1.0)
    npt.assert_allclose(out.values, G, atol=1e-12)
    assert out.clamp_count == 0


def test_power_identity_exponent_is_support_restricted():
    """p = 1 drops off-support and negative eigenvalues like any other p."""
    G = GramMatrix(np.diag([1.0, 1e-20, -1e-3]))
    out = matrix_power(G, 1.0)
    npt.assert_allclose(out.values, np.diag([1.0, 0.0, 0.0]), atol=1e-15)
    assert out.clamp_count == 2
    npt.assert_allclose(out.values, matrix_power(G, 1.0000001).values, atol=1e-6)


def test_power_square_root_diagonal():
    out = matrix_power(GramMatrix(np.diag([4.0, 1.0])), 0.5)
    npt.assert_allclose(out.values, np.diag([2.0, 1.0]), atol=1e-14)


def test_power_cube_matches_repeated_multiplication():
    G = rand_psd(2, 6)
    out = matrix_power(GramMatrix(G), 3.0)
    explicit = G @ G @ G
    assert np.linalg.norm(out.values - explicit) / np.linalg.norm(explicit) < 1e-9


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5, -0.5])
@pytest.mark.parametrize("b", [0.5, 1.0, 1.5, -0.5])
def test_power_exponent_additivity(a, b):
    G = rand_psd(3, 7)  # full rank
    lhs = matrix_power(GramMatrix(G), a + b).values
    rhs = matrix_power(GramMatrix(G), a).values @ matrix_power(GramMatrix(G), b).values
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-8


def test_power_commutes_with_input():
    G = rand_psd(4, 6)
    P = matrix_power(GramMatrix(G), 0.7).values
    assert np.linalg.norm(P @ G - G @ P) < 1e-9


def test_power_negative_is_pseudo_inverse():
    """Off-support directions map to zero for negative exponents too."""
    G = np.diag([2.0, 0.5, 0.0])
    out = matrix_power(GramMatrix(G), -1.0)
    npt.assert_allclose(out.values, np.diag([0.5, 2.0, 0.0]), atol=1e-13)
    assert out.clamp_count == 1


def test_power_counts_clamped_eigenvalues():
    G = rand_psd(5, 6, rank=4)
    out = matrix_power(GramMatrix(G), 0.5)
    assert out.clamp_count == 2


def test_power_negative_of_rank_zero_is_degenerate():
    with pytest.raises(DegenerateMatrixError):
        matrix_power(GramMatrix(np.zeros((3, 3))), -1.0)


# ----------------------------------------------------------------- matrix_log

def test_log_identity_is_zero():
    out = matrix_log(GramMatrix(np.eye(4)))
    npt.assert_allclose(out.values, np.zeros((4, 4)), atol=1e-14)


def test_log_diagonal():
    out = matrix_log(GramMatrix(np.diag([np.e, 1.0])))
    npt.assert_allclose(out.values, np.diag([1.0, 0.0]), atol=1e-14)


def test_log_zero_off_support():
    out = matrix_log(GramMatrix(np.diag([2.0, 0.0])))
    npt.assert_allclose(out.values, np.diag([np.log(2.0), 0.0]), atol=1e-14)


def test_log_inverts_spectral_exp():
    rng = np.random.default_rng(6)
    S = rng.standard_normal((5, 5))
    S = 0.3 * (S + S.T)
    out = matrix_log(GramMatrix(spectral_exp(S)))
    assert np.linalg.norm(out.values - S) < 1e-9


def test_log_rank_zero_is_degenerate():
    with pytest.raises(DegenerateMatrixError):
        matrix_log(GramMatrix(np.zeros((2, 2))))


# ----------------------------------------------------------- support_included

def test_support_full_rank_outer_always_included():
    inner = GramMatrix(rand_psd(7, 5, rank=2))
    outer = GramMatrix(rand_psd(8, 5))
    rep = support_included(inner, outer)
    assert rep.included
    assert rep.residual <= 1e-12
    assert rep.rank_1 == 2 and rep.rank_2 == 5


def test_support_reflexive():
    K = GramMatrix(rand_psd(9, 4, rank=3))
    assert support_included(K, K).included


def test_support_disjoint_rank_one():
    inner = GramMatrix(np.diag([0.0, 1.0]))
    outer = GramMatrix(np.diag([1.0, 0.0]))
    rep = support_included(inner, outer)
    assert not rep.included
    assert rep.residual == pytest.approx(1.0, abs=1e-12)


def test_support_monotone_under_psd_widening():
    """Adding PSD mass to the outer matrix can only help inclusion."""
    for seed in range(10):
        inner = GramMatrix(rand_psd(3 * seed, 6, rank=3))
        outer = GramMatrix(rand_psd(3 * seed + 1, 6, rank=4))
        widened = GramMatrix(outer.values + rand_psd(3 * seed + 2, 6, rank=2))
        if support_included(inner, outer).included:
            assert support_included(inner, widened).included


def test_support_size_mismatch():
    with pytest.raises(ArgumentError):
        support_included(GramMatrix(np.eye(2)), GramMatrix(np.eye(3)))


def test_support_tolerance_must_be_positive():
    K = GramMatrix(np.eye(2))
    with pytest.raises(ArgumentError):
        support_included(K, K, tol=0.0)


# -------------------------------------------------------------- trace_product

def test_trace_product_identity_pair():
    assert trace_product(np.eye(3), np.eye(3)) == 3.0


def test_trace_product_identity_absorbs():
    B = rand_psd(10, 4)
    assert trace_product(np.eye(4), B) == pytest.approx(np.trace(B), rel=1e-14)


def test_trace_product_matches_explicit_product():
    A, B = rand_psd(11, 6), rand_psd(12, 6)
    explicit = float(np.trace(A @ B))
    assert trace_product(A, B) == pytest.approx(explicit, rel=1e-12)


def test_trace_product_symmetric_exactly():
    A, B = rand_psd(13, 5), rand_psd(14, 5)
    assert trace_product(A, B) == trace_product(B, A)


def test_trace_product_size_mismatch():
    with pytest.raises(ArgumentError):
        trace_product(np.eye(2), np.eye(3))
