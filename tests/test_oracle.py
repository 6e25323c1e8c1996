"""Arbitrary-precision references for the bipartite measures.

The pair is the two unit-trace 16-point gaussian Grams of
``_large_order_draws()`` (d = 3, cond 110 and 238). mpmath decomposes each
Gram once with ``mp.eigsy``, at a precision set from the dynamic range of the
widest sandwich K2^p K1 K2^p, and every power, log and sandwich is restricted
to the support as ``psd_linalg`` does it (eigenvalues above n * eps * max
count; eps is mpmath's at that precision). Each float64 value must match its
reference to 1e-12 relative.

The mirrored measure below order 0.2 does not yet (ROADMAP direction 1): the
sandwich's spectrum spans cond(K2)^(2p) cond(K1), beyond 1e21 at order 0.1,
``eigvalsh`` resolves it only to eps * ||M|| absolute, and the clamped
eigenvalues still weigh in tr(M^a) at a < 1. Those two orders are strict
xfails, so the fix flips them.
"""

import math

import pytest
from mpmath import mp

from gramxent.estimators import _Pair, _spectrum
from test_estimators import _large_order_draws, unit

ORDERS = (0.05, 0.1, 0.2, 0.5, 2.0, 4.0)
RTOL = 1e-12
K1, K2 = (unit(S) for S in _large_order_draws())
PAIR = _Pair(_spectrum(K1), _spectrum(K2))


def _working_dps():
    """Decimal digits spanned by the widest sandwich over ORDERS, plus 20."""
    c1, c2 = (s[0] / s[-1] for s in (PAIR.lam, PAIR.mu))
    p = max(abs(1.0 - a) / (2.0 * a) for a in ORDERS)
    return math.ceil(2.0 * p * math.log10(c2) + math.log10(c1)) + 20


DPS = _working_dps()


def _eig(M):
    E, Q = mp.eigsy(M)
    return [E[i] for i in range(E.rows)], Q


def _kept(E):
    """The support rule of psd_linalg at the working precision."""
    tau = len(E) * mp.eps * max(E)
    return [x > tau for x in E]


def _on_support(e, f):
    """Q diag(f(lambda)) Q^T over the support, 0 off it."""
    E, Q = e
    return Q * mp.diag([f(x) if keep else 0 for x, keep in zip(E, _kept(E))]) * Q.T


def _trace(M):
    return mp.fsum(M[i, i] for i in range(M.rows))


class _Reference:
    """K1 and K2 decomposed once at ``dps`` digits, each measure read off them;
    an order's value is (a-1)^-1 log(t / tr K1) for its trace t."""

    def __init__(self, dps):
        self.dps = dps
        with mp.workdps(dps):
            self.e1, self.e2 = (_eig(mp.matrix(K.values.tolist())) for K in (K1, K2))
            self.K1 = _on_support(self.e1, lambda x: x)
            self.tr1 = _trace(self.K1)

    def _value(self, a, t):
        return float(mp.log(t / self.tr1) / (a - 1))

    def nonmirrored(self, a):
        with mp.workdps(self.dps):
            P1 = _on_support(self.e1, lambda x: x**a)
            P2 = _on_support(self.e2, lambda x: x ** (1 - a))
            return self._value(a, _trace(P1 * P2))

    def mirrored(self, a):
        with mp.workdps(self.dps):
            H = _on_support(self.e2, lambda x: x ** ((1 - a) / (2 * a)))
            M = H * self.K1 * H
            E, _ = _eig((M + M.T) / 2)
            return self._value(a, mp.fsum(x**a for x, keep in zip(E, _kept(E)) if keep))

    def umegaki(self):
        """tr(K1 (log K1 - log K2)) / tr K1."""
        with mp.workdps(self.dps):
            L = _on_support(self.e1, mp.log) - _on_support(self.e2, mp.log)
            return float(_trace(self.K1 * L) / self.tr1)


@pytest.fixture(scope="module")
def reference():
    return _Reference(DPS)


def test_the_working_precision_is_enough(reference):
    """At the widest sandwich (order 0.05), twice the digits change nothing
    that float64 can see."""
    once, twice = reference.mirrored(0.05), _Reference(2 * DPS).mirrored(0.05)
    assert once == pytest.approx(twice, rel=1e-15)


@pytest.mark.parametrize("a", ORDERS)
def test_nonmirrored_matches_the_oracle(reference, a):
    assert PAIR.nonmirrored(a).value == pytest.approx(reference.nonmirrored(a), rel=RTOL)


def test_umegaki_matches_the_oracle(reference):
    assert PAIR.umegaki().value == pytest.approx(reference.umegaki(), rel=RTOL)


_CLAMPED_SANDWICH = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP direction 1: eigvalsh of the sandwich loses its small "
    "eigenvalues, which weigh in tr(M^a) at a < 1",
)


@pytest.mark.parametrize(
    "a", [pytest.param(a, marks=_CLAMPED_SANDWICH) for a in (0.05, 0.1)] + [0.2, 0.5, 2.0, 4.0]
)
def test_mirrored_matches_the_oracle(reference, a):
    assert PAIR.mirrored(a, a).value == pytest.approx(reference.mirrored(a), rel=RTOL)
