"""POVM construction and success-probability optimization.

Bob's measurement on his half ``b`` of the shared resource pair has three
outcomes: two success branches described by rank-one elements ``E1`` and
``E2`` (the implemented gate differs by a correctable sign between them)
and a failure remainder ``E3 = I - E1 - E2``.  The weights ``(x, y)`` on
the success elements are free parameters constrained only by positivity
of ``E3``; the total success probability is ``x + y`` regardless of the
input state, so maximizing it is a tiny semidefinite problem with a
closed-form answer that splits into two cases.

This module provides both routes to that answer: the closed forms for
trace, determinant and the optimal weights, and an independent grid
search (:func:`pmax_oracle`) that decides feasibility purely through
eigenvalues of the constructed ``E3`` matrix.  Tests hold the two routes
against each other.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CaseLabel",
    "OptimumResult",
    "PovmSet",
    "PovmWeights",
    "ProtocolParams",
    "bell_conversion_prob",
    "build_povm",
    "det_e3",
    "discriminant",
    "optimum",
    "povm_vectors",
    "pmax_oracle",
    "tr_e3",
]

HALF_PI = math.pi / 2

#: Width of the band around the case boundary treated as "boundary".
CASE_BAND = 1e-12

#: Positivity slack for eigenvalue-based feasibility checks.
EIG_TOL = 1e-12


def _cos(angle: float) -> float:
    """Cosine with values within 1e-15 of zero snapped to exactly 0.0.

    ``math.cos(math.pi / 2)`` is ~6e-17 rather than 0, which would make
    quantities that are exactly 1 at a maximally entangled resource come
    out one ulp short.  The snap window is far below any angle spacing
    used anywhere, so it only affects the intended exact case.
    """
    c = math.cos(angle)
    return 0.0 if abs(c) < 1e-15 else c


@dataclass(frozen=True)
class ProtocolParams:
    """Gate angle ``theta`` and resource angle ``alpha``, both in radians.

    The resource pair is ``cos(alpha/2)|00> + i sin(alpha/2)|11>`` with
    ``alpha`` in (0, pi/2]; ``alpha = pi/2`` is a Bell pair.  The target
    is the two-qubit rotation ``cos(theta/2) I + i sin(theta/2) sz x sz``
    with ``theta`` in (0, pi/2].  With a Bell resource every such gate is
    within reach in one shot, so the wider range ``theta`` in (-pi, pi]
    is admitted when ``alpha = pi/2`` exactly; the one-bell recovery step
    relies on that.
    """

    theta: float
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.alpha)):
            raise ValueError("angles must be finite")
        if not 0.0 < self.alpha <= HALF_PI:
            raise ValueError(f"alpha must lie in (0, pi/2], got {self.alpha!r}")
        if self.alpha == HALF_PI:
            if not -math.pi < self.theta <= math.pi:
                raise ValueError(
                    f"theta must lie in (-pi, pi] when alpha = pi/2, got {self.theta!r}"
                )
        elif not 0.0 < self.theta <= HALF_PI:
            raise ValueError(f"theta must lie in (0, pi/2], got {self.theta!r}")

    # Cached trig shorthands used throughout the closed forms.
    @property
    def cos_half_alpha(self) -> float:
        return math.cos(self.alpha / 2)

    @property
    def sin_half_alpha(self) -> float:
        return math.sin(self.alpha / 2)

    @property
    def cos_alpha(self) -> float:
        return _cos(self.alpha)

    @property
    def cos_theta(self) -> float:
        return _cos(self.theta)

    @property
    def sin_theta(self) -> float:
        return math.sin(self.theta)


@dataclass(frozen=True)
class PovmWeights:
    """Nonnegative weights on the two success elements."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("weights must be finite")
        if self.x < 0.0 or self.y < 0.0:
            raise ValueError(f"weights must be >= 0, got ({self.x!r}, {self.y!r})")


class CaseLabel(enum.Enum):
    """Which branch of the closed-form optimum applies."""

    CASE_I = "I"
    CASE_II = "II"
    BOUNDARY = "boundary"


@dataclass(frozen=True, eq=False)
class PovmSet:
    """The three measurement operators for given parameters and weights.

    ``positive`` records whether ``E3`` passed the eigenvalue check; an
    infeasible weight choice still yields a ``PovmSet`` (callers decide
    whether to reject it), just flagged.
    """

    params: ProtocolParams
    weights: PovmWeights
    e1: np.ndarray = field(repr=False)
    e2: np.ndarray = field(repr=False)
    e3: np.ndarray = field(repr=False)
    min_eig_e3: float
    positive: bool


@dataclass(frozen=True)
class OptimumResult:
    """Optimal weights and success probability for one parameter point."""

    case: CaseLabel
    x: float
    y: float
    p_max: float

    @property
    def weights(self) -> PovmWeights:
        return PovmWeights(self.x, self.y)


def povm_vectors(params: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized vectors whose outer products form ``E1`` and ``E2``.

    They are built so that conditioning qubit ``b`` of the entangled
    carrier state on either vector turns the carrier into the target
    rotation (up to a known sign the parties undo afterwards).
    """
    c = params.cos_half_alpha
    s = params.sin_half_alpha
    ct = math.cos(params.theta / 2)
    st = math.sin(params.theta / 2)
    v1 = np.array([ct / c, st / s])
    v2 = np.array([st / c, -ct / s])
    return v1, v2


def build_povm(params: ProtocolParams, weights: PovmWeights) -> PovmSet:
    """Assemble ``E1 = x v1 v1^T``, ``E2 = y v2 v2^T`` and the remainder.

    Positivity of ``E3`` is certified directly from its eigenvalues with
    slack ``EIG_TOL``; ``E1`` and ``E2`` are PSD by construction.  A zero
    weight gives an exact zero element: at a tiny ``alpha`` the vectors
    overflow, and ``0 * inf`` would be NaN.
    """
    v1, v2 = povm_vectors(params)
    e1 = weights.x * np.outer(v1, v1) if weights.x else np.zeros((2, 2))
    e2 = weights.y * np.outer(v2, v2) if weights.y else np.zeros((2, 2))
    e3 = np.eye(2) - e1 - e2
    min_eig = float(np.linalg.eigvalsh(e3)[0])
    for m in (e1, e2, e3):
        m.flags.writeable = False
    return PovmSet(params, weights, e1, e2, e3,
                   min_eig_e3=min_eig, positive=min_eig >= -EIG_TOL)


def tr_e3(params: ProtocolParams, weights: PovmWeights) -> float:
    """Closed-form trace of the failure element."""
    c2 = params.cos_half_alpha ** 2
    s2 = params.sin_half_alpha ** 2
    ct2 = math.cos(params.theta / 2) ** 2
    st2 = math.sin(params.theta / 2) ** 2
    return (2.0
            - weights.x * (ct2 / c2 + st2 / s2)
            - weights.y * (st2 / c2 + ct2 / s2))


def det_e3(params: ProtocolParams, weights: PovmWeights) -> float:
    """Closed-form determinant of the failure element.

    Written in the product form centred on the positivity hyperbola,
    which stays accurate right where the optimum sits (the determinant
    vanishes there).
    """
    ca = params.cos_alpha
    ct = params.cos_theta
    st = params.sin_theta
    sa2 = math.sin(params.alpha) ** 2
    a = (1.0 + ct * ca) / 2.0
    b = (1.0 - ct * ca) / 2.0
    d = ca * ca * st * st / 4.0
    return 4.0 / sa2 * ((weights.x - a) * (weights.y - b) - d)


def discriminant(params: ProtocolParams) -> float:
    """Decides which closed-form case is optimal.

    Negative values mean the unconstrained tangency point of the success
    probability with the positivity hyperbola has ``y >= 0`` (case I);
    positive values mean that point is cut off by ``y >= 0`` and the
    optimum sits on the axis (case II).  The sign equals the sign of
    ``cos(alpha) (sin(theta) + cos(theta)) - 1``.
    """
    ca = params.cos_alpha
    ct = params.cos_theta
    st = params.sin_theta
    return ca * st * (ca * (st + ct) - 1.0) / (2.0 * (1.0 - ct * ca))


def optimum(params: ProtocolParams) -> OptimumResult:
    """Closed-form optimal weights and maximal success probability.

    Case I applies when ``cos(alpha) (sin(theta) + cos(theta)) <= 1``:
    both weights are positive and ``p_max = 1 - sin(theta) cos(alpha)``.
    Case II applies otherwise: ``y = 0`` and ``x`` takes its largest
    value permitted by positivity.  Points within ``CASE_BAND`` of the
    crossover are labelled boundary and use the case I values (the two
    forms agree there).
    """
    ca = params.cos_alpha
    ct = params.cos_theta
    st = params.sin_theta
    crossover = ca * (st + ct) - 1.0
    if crossover > CASE_BAND:
        x = (1.0 - ca * ca) / (2.0 * (1.0 - ct * ca))
        return OptimumResult(CaseLabel.CASE_II, x, 0.0, x)
    label = CaseLabel.BOUNDARY if crossover > -CASE_BAND else CaseLabel.CASE_I
    # On the crossover curve the second weight is an exact zero; round-off
    # may land a hair below it, which would be rejected as a weight.
    x = max((1.0 + ct * ca - st * ca) / 2.0, 0.0)
    y = max((1.0 - ct * ca - st * ca) / 2.0, 0.0)
    return OptimumResult(label, x, y, x + y)


def bell_conversion_prob(alpha: float) -> float:
    """Success probability of distilling the resource into a Bell pair.

    ``2 sin(alpha/2)^2 = 1 - cos(alpha)``: the benchmark any direct
    protocol has to beat, since a Bell pair implements the gate surely.
    """
    ProtocolParams(HALF_PI, alpha)  # reuse the domain check on alpha
    return 1.0 - _cos(alpha)


BOX = 1.2


def _best_feasible_y(xs: np.ndarray, p1: np.ndarray, p2: np.ndarray,
                     iters: int = 48) -> np.ndarray:
    """Largest feasible ``y`` in [0, BOX] for each ``x``, by bisection.

    Feasibility means the smallest eigenvalue of the assembled
    ``E3 = I - x P1 - y P2`` is at least ``-EIG_TOL``.  Because ``P2`` is
    PSD the feasible ``y`` form an interval starting at 0, so bisection
    on the eigenvalue sign is exact.  Entries return NaN when even
    ``y = 0`` is infeasible for that ``x``.
    """
    eye = np.eye(2)

    def min_eig(ys: np.ndarray) -> np.ndarray:
        mats = (eye[None, :, :]
                - xs[:, None, None] * p1[None, :, :]
                - ys[:, None, None] * p2[None, :, :])
        return np.linalg.eigvalsh(mats)[:, 0]

    lo = np.zeros_like(xs)
    alive = min_eig(lo) >= -EIG_TOL
    hi = np.full_like(xs, BOX)
    top = min_eig(hi) >= -EIG_TOL
    lo[top] = BOX
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        ok = min_eig(mid) >= -EIG_TOL
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    lo[~alive] = np.nan
    return lo


def pmax_oracle(params: ProtocolParams,
                resolution: float = 1e-5) -> tuple[float, float, float]:
    """Brute-force check value for :func:`optimum`, sharing no formulas.

    Maximizes ``x + y`` over the box ``[0, BOX]^2``.  Feasibility is
    decided solely by the eigenvalues of the assembled ``E3`` matrix
    (never by the closed-form trace/determinant, which are what this
    oracle is meant to check).  The search scans a grid of ``x`` values,
    solves the largest feasible ``y`` for each by eigenvalue bisection,
    and re-grids around the incumbent until the ``x`` step is below
    ``resolution / 10``.  The feasible region is convex and the
    objective linear, so the scan over ``x`` maximizes a concave
    function and the refinement cannot get trapped.  Ties are broken
    toward lexicographically smaller ``(x, y)``.
    """
    if not 1e-7 <= resolution <= 1e-2:
        raise ValueError(f"resolution must lie in [1e-7, 1e-2], got {resolution!r}")
    v1, v2 = povm_vectors(params)
    p1 = np.outer(v1, v1)
    p2 = np.outer(v2, v2)

    x_lo, x_hi, pts = 0.0, BOX, 1201
    best = (0.0, 0.0, 0.0)  # (x, y) = (0, 0) is always feasible: E3 = I
    while True:
        xs = np.linspace(x_lo, x_hi, pts)
        step = xs[1] - xs[0]
        ys = _best_feasible_y(xs, p1, p2)
        p = xs + ys
        p[np.isnan(p)] = -np.inf
        order = np.lexsort((ys, xs, -p))
        i = order[0]
        if p[i] > best[2] or (p[i] == best[2] and (xs[i], ys[i]) < best[:2]):
            best = (float(xs[i]), float(ys[i]), float(p[i]))
        if step < resolution / 10.0:
            return best
        x_lo = max(0.0, best[0] - 2.0 * step)
        x_hi = min(BOX, best[0] + 2.0 * step)
        pts = 81
