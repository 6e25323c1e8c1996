"""Partitions, pinching, random instances, and the property suite itself."""

import re

import numpy as np
import numpy.testing as npt
import pytest

import gramxent.estimators
from gramxent import (
    ArgumentError,
    GramMatrix,
    Partition,
    pinch,
    random_gram,
    random_orthogonal,
    run_property_suite,
)

PROPERTY_NAMES = [
    "nullity",
    "non-negativity",
    "cip-non-negativity",
    "unitary-invariance",
    "scaling-law",
    "tensor-additivity",
    "order-monotonicity",
    "measure-ordering",
    "pinching-dpi",
    "continuity",
    "midpoint-convexity",
]


# ------------------------------------------------------------------ Partition

def test_partition_counts_indices():
    p = Partition(((0, 2), (1,), (3, 4)))
    assert p.n == 5


@pytest.mark.parametrize(
    "blocks",
    [
        ((0, 1), (3,)),        # gap at 2
        ((0, 1), (1, 2)),      # repeat
        ((0,), ()),            # empty block
        (),                    # no blocks at all
        ((0, 1), (2, 2)),      # repeat inside one block
    ],
)
def test_partition_rejects_non_partitions(blocks):
    with pytest.raises(ArgumentError):
        Partition(blocks)


# ---------------------------------------------------------------------- pinch

def test_pinch_zeroes_off_blocks_and_keeps_diagonal():
    G = random_gram(0, 4)
    p = Partition(((0, 1), (2, 3)))
    out = pinch(G, p)
    assert out.values[0, 2] == 0.0
    assert out.values[3, 1] == 0.0
    npt.assert_array_equal(np.diag(out.values), np.diag(G.values))
    assert out.values.trace() == G.values.trace()
    assert out.normalization == G.normalization


def test_pinch_idempotent():
    G = random_gram(1, 6)
    p = Partition(((0, 1, 2), (3, 4), (5,)))
    once = pinch(G, p)
    twice = pinch(once, p)
    npt.assert_array_equal(once.values, twice.values)


def test_pinch_refinement_composes():
    """Coarse-then-fine pinching equals pinching by the fine partition alone."""
    G = random_gram(2, 6)
    coarse = Partition(((0, 1, 2), (3, 4, 5)))
    fine = Partition(((0, 1), (2,), (3,), (4, 5)))
    npt.assert_array_equal(
        pinch(pinch(G, coarse), fine).values, pinch(G, fine).values
    )


def test_pinch_size_mismatch():
    with pytest.raises(ArgumentError):
        pinch(random_gram(3, 5), Partition(((0, 1), (2, 3))))


# ----------------------------------------------------------- random instances

def test_random_orthogonal_is_orthogonal():
    Q = random_orthogonal(0, 7)
    npt.assert_allclose(Q.T @ Q, np.eye(7), atol=1e-10)
    assert abs(abs(np.linalg.det(Q)) - 1.0) < 1e-10


def test_random_orthogonal_deterministic():
    npt.assert_array_equal(random_orthogonal(5, 4), random_orthogonal(5, 4))
    assert not np.array_equal(random_orthogonal(5, 4), random_orthogonal(6, 4))


def test_random_gram_unit_trace_psd():
    G = random_gram(7, 9)
    assert G.normalization == "unit-trace"
    assert G.trace() == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(G.values).min() > -1e-10


def test_random_gram_deterministic():
    npt.assert_array_equal(random_gram(8, 5).values, random_gram(8, 5).values)


# ------------------------------------------------------------- property suite

def small_suite(**kwargs):
    return run_property_suite(
        seed=1, sizes=(4, 8), alpha_grid=(0.5, 2.0), n_seeds=2, **kwargs
    )


def test_suite_passes_and_reports_every_property():
    reports = small_suite()
    assert [r.name for r in reports] == PROPERTY_NAMES
    for r in reports:
        assert r.passed, f"{r.name}: {r.max_violation:.3g} > {r.tolerance:.3g}"
        assert r.instances > 0
        assert r.max_violation <= r.tolerance


def test_suite_deterministic():
    assert small_suite() == small_suite()


def test_scaling_law_catches_a_wrong_raw_trace(monkeypatch):
    """Every raw-mode log tr(K1) off by log 2 breaks the scaling law and
    nothing else: the law compares the raw scaled pair with the unit-trace
    base pair, so an error that does not depend on scale cannot cancel."""
    monkeypatch.setattr(
        gramxent.estimators, "_positive_trace", lambda tr, name: 2.0 * tr
    )
    reports = run_property_suite(n_seeds=1, sizes=(4,))
    assert [r.name for r in reports if not r.passed] == ["scaling-law"]


@pytest.mark.parametrize(
    "kwargs, named",
    [
        (dict(n_seeds=0), "n_seeds"),
        (dict(sizes=()), "sizes"),
        (dict(alpha_grid=()), "orders"),
        (dict(sizes=(4, 1)), "sizes"),
    ],
)
def test_suite_refuses_to_pass_vacuously(kwargs, named):
    """An empty run checks nothing and a 1 x 1 pair has nothing to compare;
    either is an argument error, not a pass."""
    with pytest.raises(ArgumentError, match=named):
        run_property_suite(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(sizes=(4, 4)), "sizes entries must be distinct, got (4, 4)"),
        (dict(alpha_grid=(2, 2.0)), "alpha_grid entries must be distinct, got (2, 2.0)"),
    ],
    ids=["sizes", "alpha_grid"],
)
def test_suite_rejects_a_repeated_grid_entry(kwargs, message):
    """A repeated size or order would count the same checks twice and
    overstate the report's instances; it is the experiments' error."""
    with pytest.raises(ArgumentError, match=re.escape(message)):
        run_property_suite(n_seeds=1, **kwargs)


def test_suite_default_grid_runs_clean():
    """One seed at the default sizes and orders, as a cheap canary."""
    reports = run_property_suite(seed=0, n_seeds=1)
    assert all(r.passed for r in reports)
