"""Entanglement bookkeeping: what a gate costs in ebits.

Every attempt consumes the partial pair, worth its entropy of
entanglement; in deterministic mode a failure additionally consumes one
Bell pair (one ebit).  The expected total cost of a gate at angle
``theta`` using resource angle ``alpha`` is therefore

    cost(theta, alpha) = 1 - p_max(theta, alpha) + entropy(alpha)

Minimizing over ``alpha`` tells whether running on a partial pair ever
beats simply using a Bell pair (cost exactly 1).  It does for small
enough gate angles; :func:`threshold_theta` locates the break-even
angle, which sits near 0.234 pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .povm import (HALF_PI, ProtocolParams, _check_alpha, _closed_form, _trig,
                   _where, _xp)

__all__ = [
    "EntanglementReport",
    "average_cost",
    "binary_entropy",
    "min_cost_over_alpha",
    "resource_entropy",
    "threshold_theta",
]

#: Costs this close to 1 are treated as "not better than a Bell pair".
#: The band absorbs last-ulp noise in the cost evaluation; real margins
#: near the threshold are orders of magnitude larger.
BREAK_EVEN_BAND = 1e-12

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi ~ 0.618


def _entropy(p):
    """Binary entropy in bits of a float or an array ``p`` in [0, 1].

    ``0 log 0`` is 0: a zero argument reaches the log as 1, and the
    leading ``0.0 -`` makes that result +0.0 rather than -0.0.
    """
    q = 1.0 - p
    return (0.0 - p * np.log2(_where(p > 0.0, p, 1.0))
            - q * np.log2(_where(q > 0.0, q, 1.0)))


def _resource_entropy(alpha):
    """Entanglement of the resource pair at a float or an array ``alpha``."""
    c = _xp(alpha).cos(alpha / 2.0)
    return _entropy(c * c)


def binary_entropy(p: float) -> float:
    """Shannon entropy of a bit in base 2, with ``0 log 0 := 0``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    return float(_entropy(p))


def resource_entropy(alpha: float) -> float:
    """Entanglement of the resource pair in ebits.

    The reduced state of either half has eigenvalues ``cos(alpha/2)^2``
    and ``sin(alpha/2)^2``, so this is their binary entropy: 0 as
    ``alpha -> 0`` and exactly 1 ebit at ``alpha = pi/2``.
    """
    _check_alpha(alpha)
    return float(_resource_entropy(alpha))


@dataclass(frozen=True)
class EntanglementReport:
    """Cost breakdown for one parameter point."""

    theta: float
    alpha: float
    p_max: float
    entropy: float
    avg_cost: float


def _alpha_terms(alpha):
    """``(cos(alpha), sin(alpha), resource entropy)`` for ``_costs``."""
    return (*_trig(alpha), _resource_entropy(alpha))


def _costs(ct, st, ca, sa, e):
    """``(cross, band, x, y, p_max, avg_cost)`` from ``_trig(theta)`` and
    ``_alpha_terms(alpha)``, as floats or arrays (broadcast); the caller
    validates the angles, as for ``povm._closed_form``."""
    cross, band, x, y, _ = _closed_form(ct, st, ca, sa)
    p = x + y
    return cross, band, x, y, p, 1.0 - p + e


def average_cost(params: ProtocolParams) -> EntanglementReport:
    """Expected ebits per deterministically completed gate."""
    ca, sa, e = _alpha_terms(params.alpha)
    p, cost = _costs(*_trig(params.theta), ca, sa, e)[4:]
    return EntanglementReport(theta=params.theta, alpha=params.alpha,
                              p_max=p, entropy=float(e), avg_cost=float(cost))


#: The resource angles ``min_cost_over_alpha`` scans, and their terms.
_SCAN_ALPHAS = np.linspace(HALF_PI / 1000, HALF_PI, 1000)
_SCAN_TERMS = _alpha_terms(_SCAN_ALPHAS)


def min_cost_over_alpha(theta: float, tol: float = 1e-6) -> tuple[float, float]:
    """Best resource angle for a given gate angle.

    Scans 1000 grid points over (0, pi/2], then sharpens the best
    bracket by golden-section search down to width ``tol`` (radians).
    Returns ``(alpha_star, cost_star)``; when nothing beats the Bell
    endpoint the endpoint itself is returned with its exact cost.
    """
    if not 0.0 < theta <= HALF_PI:
        raise ValueError(f"theta must lie in (0, pi/2], got {theta!r}")
    if not 1e-8 <= tol <= 1e-3:
        raise ValueError(f"tol must lie in [1e-8, 1e-3], got {tol!r}")
    trig = _trig(theta)
    alphas = _SCAN_ALPHAS
    costs = _costs(*trig, *_SCAN_TERMS)[5]
    i = int(np.argmin(costs))
    best_alpha = float(alphas[i])
    best_cost = float(costs[i])

    lo = float(alphas[max(i - 1, 0)])
    hi = float(alphas[min(i + 1, len(alphas) - 1)])

    def cost(a: float) -> float:
        return _costs(*trig, *_alpha_terms(a))[5]

    # Golden-section: keeps a shrinking bracket around the interior
    # minimum; one new evaluation per iteration.
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = cost(c), cost(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = cost(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = cost(d)
    refined_alpha = c if fc < fd else d
    refined_cost = min(fc, fd)
    if refined_cost < best_cost:
        return float(refined_alpha), float(refined_cost)
    return best_alpha, best_cost


def threshold_theta(tol: float = 1e-4) -> float:
    """Largest gate angle at which a partial pair still beats a Bell pair.

    Below the threshold the minimized cost drops strictly under 1; at
    and above it the minimum is the Bell endpoint at exactly 1.
    Bisection on that predicate over (0.1 pi, 0.4 pi), to a width of
    ``tol`` in units of pi.
    """
    if not 1e-6 <= tol <= 1e-3:
        raise ValueError(f"tol must lie in [1e-6, 1e-3] (units of pi), got {tol!r}")

    def beats_bell(theta: float) -> bool:
        return min_cost_over_alpha(theta, tol=1e-8)[1] < 1.0 - BREAK_EVEN_BAND

    lo, hi = 0.1 * math.pi, 0.4 * math.pi
    if not beats_bell(lo) or beats_bell(hi):
        raise RuntimeError(
            "threshold bracket (0.1 pi, 0.4 pi) does not straddle break-even")
    while hi - lo > tol * math.pi:
        mid = 0.5 * (lo + hi)
        if beats_bell(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
