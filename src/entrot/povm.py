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
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .qmath import psd_sqrt2

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

#: Half-width of the band around the case boundary treated as
#: "boundary", relative to the two terms whose difference is the crossover.
CASE_BAND = 1e-12

#: The smallest normal double.  Weights below it are set to 0, as their
#: element ``x v v^T`` can overflow; resource angles below it are
#: rejected, as their half-angle sine loses its precision or vanishes.
_NORMAL_MIN = sys.float_info.min

#: Positivity slack for eigenvalue-based feasibility checks.
EIG_TOL = 1e-12


def _xp(value):
    """``numpy`` for an array, ``math`` for a float.

    The two give the same bits for ``cos`` and ``sin`` here, and ``math``
    spares a float the cost of a numpy call.
    """
    return np if isinstance(value, np.ndarray) else math


def _where(cond, a, b):
    """``a`` where ``cond`` holds, else ``b``: elementwise on arrays.

    Both sides are evaluated first, on floats as on arrays, so neither
    may raise or warn anywhere in the domain.
    """
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _cos(angle):
    """Cosine, of a float or an array, with values within 1e-15 of zero
    snapped to exactly 0.0.

    ``math.cos(math.pi / 2)`` is ~6e-17 rather than 0, which would make
    quantities that are exactly 1 at a maximally entangled resource come
    out one ulp short.  The snap window is far below any angle spacing
    used anywhere, so it only affects the intended exact case.
    """
    c = _xp(angle).cos(angle)
    return _where(abs(c) < 1e-15, 0.0, c)


def _check_alpha(alpha: float) -> None:
    """Reject a resource angle outside (0, pi/2] or below ``_NORMAL_MIN``:
    the one check on ``alpha`` for every function that takes it."""
    if not 0.0 < alpha <= HALF_PI:
        raise ValueError(f"alpha must lie in (0, pi/2], got {alpha!r}")
    if alpha < _NORMAL_MIN:
        raise ValueError(f"alpha must be at least {_NORMAL_MIN!r}, the "
                         f"smallest normal float, got {alpha!r}")


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
        _check_alpha(self.alpha)
        if self.alpha == HALF_PI:
            if not -math.pi < self.theta <= math.pi:
                raise ValueError(
                    f"theta must lie in (-pi, pi] when alpha = pi/2, got {self.theta!r}"
                )
        elif not 0.0 < self.theta <= HALF_PI:
            raise ValueError(f"theta must lie in (0, pi/2], got {self.theta!r}")

    # Plain trig properties, recomputed on each access (nothing is
    # cached).  The half-angle pair builds the POVM vectors and the
    # branch amplitudes; the optimum's closed forms use ``_trig``.
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


def _in_domain(theta: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Elementwise: whether :class:`ProtocolParams` admits ``(theta,
    alpha)``, by the same predicates as its ``__post_init__`` and
    :func:`_check_alpha`, as arrays."""
    return (np.isfinite(theta) & np.isfinite(alpha)
            & (0.0 < alpha) & (alpha <= HALF_PI) & (alpha >= _NORMAL_MIN)
            & np.where(alpha == HALF_PI,
                       (-math.pi < theta) & (theta <= math.pi),
                       (0.0 < theta) & (theta <= HALF_PI)))


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

    @cached_property
    def sqrt_e3(self) -> np.ndarray:
        """PSD square root of ``E3``, computed on first use: the failure
        branch's Kraus operator, whose rows also give the ``b`` weights
        and the residual angle."""
        root = psd_sqrt2(self.e3)
        root.flags.writeable = False
        return root


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
    # + 0.0 turns -0.0 into 0.0: equal thetas, equal vectors
    st = math.sin(params.theta / 2) + 0.0
    v1 = np.array([ct / c, st / s])
    v2 = np.array([st / c, -ct / s])
    return v1, v2


def _min_eig2(a, b, d):
    """The smaller eigenvalue of the real symmetric ``[[a, b], [b, d]]``,
    for floats or arrays: ``(a + d)/2 - hypot((a - d)/2, b)``, accurate to
    a few ulps of the largest entry."""
    return 0.5 * (a + d) - np.hypot(0.5 * (a - d), b)


def build_povm(params: ProtocolParams, weights: PovmWeights) -> PovmSet:
    """Assemble ``E1 = x v1 v1^T``, ``E2 = y v2 v2^T`` and the remainder.

    Positivity of ``E3`` is certified from its smallest eigenvalue
    (:func:`_min_eig2`) with slack ``EIG_TOL``; ``E1`` and ``E2`` are PSD
    by construction.  A zero weight gives an exact zero element: at a
    tiny ``alpha`` the vectors overflow, and ``0 * inf`` would be NaN.

    Sets are memoised on ``(params, weights)``, so every attempt at a
    point shares one set and one ``sqrt_e3``.  Keys that compare equal
    give the same bytes (a ``-0.0`` weight builds a zero element, as
    ``0.0`` does), and a set and its arrays are read-only.  A shared
    set's ``params`` and ``weights`` are the first caller's, equal to
    every later caller's.
    """
    return _povm_set(params, weights)


# Split from build_povm, which perfbench/run.py traces by name: an
# lru_cache object is not a plain function (tests/test_api.py).
@lru_cache(maxsize=64)
def _povm_set(params: ProtocolParams, weights: PovmWeights) -> PovmSet:
    """:func:`build_povm`'s work, once per distinct key."""
    v1, v2 = povm_vectors(params)
    # below alpha ~ 1e-154 an outer product can overflow to inf; that only
    # drives min_eig to -inf, which flags the weights infeasible
    with np.errstate(over="ignore"):
        e1 = weights.x * np.outer(v1, v1) if weights.x else np.zeros((2, 2))
        e2 = weights.y * np.outer(v2, v2) if weights.y else np.zeros((2, 2))
    e3 = np.eye(2) - e1 - e2
    min_eig = float(_min_eig2(e3[0, 0], e3[0, 1], e3[1, 1]))
    for m in (e1, e2, e3):
        m.flags.writeable = False
    return PovmSet(params, weights, e1, e2, e3,
                   min_eig_e3=min_eig, positive=min_eig >= -EIG_TOL)


def _success_invariants(params: ProtocolParams,
                        weights: PovmWeights) -> tuple[float, float]:
    """Trace and determinant of ``E1 + E2``, for :func:`tr_e3` and
    :func:`det_e3`.

    They come from ``u1 = sqrt(x) v1`` and ``u2 = sqrt(y) v2``: ``|u1|^2 +
    |u2|^2`` and ``(u1 x u2)^2``, where ``|v1 x v2| = 1 / (cos(alpha/2)
    sin(alpha/2))``.  Dividing sines rather than their squares keeps every
    factor finite, so both are finite for any weights that make ``E3``
    positive (then they lie in [0, 2] and [0, 1]).
    """
    c = params.cos_half_alpha
    s = params.sin_half_alpha
    ct = math.cos(params.theta / 2)
    st = math.sin(params.theta / 2)
    rx = math.sqrt(weights.x)
    ry = math.sqrt(weights.y)
    u = (rx * ct / c, rx * st / s, ry * st / c, ry * ct / s)
    cross = rx * ry / c / s
    return sum(v * v for v in u), cross * cross


def tr_e3(params: ProtocolParams, weights: PovmWeights) -> float:
    """Closed-form trace of the failure element, ``2 - tr(E1 + E2)``."""
    return 2.0 - _success_invariants(params, weights)[0]


def det_e3(params: ProtocolParams, weights: PovmWeights) -> float:
    """Closed-form determinant of the failure element, ``1 - tr(E1 + E2)
    + det(E1 + E2)``.

    Accurate to a few ulps for positive ``E3`` at every ``alpha``,
    including at the optimum, where it vanishes.
    """
    trace, det = _success_invariants(params, weights)
    return 1.0 - trace + det


#: Case labels by ``_case``'s index: the number of band edges the
#: crossover lies above.
_CASES = (CaseLabel.CASE_I, CaseLabel.BOUNDARY, CaseLabel.CASE_II)


def _case(cross, band):
    """Index into ``_CASES`` from ``_closed_form``'s crossover and band."""
    return 1 * (cross > -band) + (cross > band)


def _trig(angle):
    """``(cos, sin)`` of a float or an array, the cosine snapped."""
    return _cos(angle), _xp(angle).sin(angle)


def _twice_complement(ca, c, a, b, k):
    """``2 (1 - cos(alpha) cos(phi)) k^2`` from ``ca = cos(alpha)``, ``c =
    cos(phi)``, ``a = sin(alpha) k`` and ``b = sin(phi) k``, for a power
    of two ``k``.

    The difference cancels as both angles shrink, so where ``cos(alpha)
    cos(phi) > 1/2`` it comes from the sum of squares ``sin(alpha)^2 +
    sin(phi)^2 + (cos(alpha) - cos(phi))^2``.  Elsewhere it is taken as
    written, which keeps a Bell resource (cosine 0) exact.
    """
    cc = ca * c
    e = (ca - c) * k
    return _where(cc > 0.5, a * a + b * b + e * e, 2.0 * (1.0 - cc) * k * k)


def _closed_form(ct, st, ca, sa):
    """The two-regime optimum from ``_trig(theta) + _trig(alpha)``, as
    floats or arrays (broadcast).

    Returns ``(cross, band, x, y, den)``: ``_case(cross, band)`` is the
    case and ``cos(alpha) sin(theta) cross / den`` the discriminant.  The
    angles are not validated here: callers pass only points that
    :class:`ProtocolParams` accepts.

    With ``hi``/``lo`` the larger/smaller of ``cos(theta)`` and
    ``sin(theta)``, the crossover is ``cos(alpha) lo - (1 - cos(alpha)
    hi)``, which keeps its accuracy as ``alpha`` and either ``theta`` or
    ``pi/2 - theta`` shrink.  Case I's ``y`` is minus half of it and ``x =
    y + cos(theta) cos(alpha)``; case II's ``x`` is ``sin(alpha)^2 / (2 (1
    - cos(theta) cos(alpha)))``.  ``cross``, ``band`` and ``den`` are
    scaled by ``s^2``, ``s`` a power of two near ``1 / (sin(alpha) +
    |sin(theta)|)``, so that squares of sines cannot underflow at tiny
    angles; the scaling is exact.  Weights below ``_NORMAL_MIN`` are 0,
    which also clears the negative ``y`` of case II and the round-off
    below 0 on the crossover curve.
    """
    big = sa + abs(st)
    xp = _xp(big)
    s = xp.ldexp(1.0, -xp.frexp(big)[1])
    a = sa * s
    cos_first = ct > st
    hi, lo = _where(cos_first, ct, st), _where(cos_first, st, ct)
    lo_s = lo * s
    far = _twice_complement(ca, hi, a, lo_s, s)  # 2 (1 - ca hi) s^2
    den = far + 2.0 * ca * (hi - ct) * s * s  # 2 (1 - ca ct) s^2
    near = ca * lo_s * s
    cross = near - far / 2.0
    band = CASE_BAND * (near + far / 2.0)
    y = cross / -2.0 / s / s
    x = _where(cross > band, a * a / den, y + ct * ca)
    return (cross, band, _where(x < _NORMAL_MIN, 0.0, x),
            _where(y < _NORMAL_MIN, 0.0, y), den)


def discriminant(params: ProtocolParams) -> float:
    """Decides which closed-form case is optimal.

    Negative values mean the unconstrained tangency point of the success
    probability with the positivity hyperbola has ``y >= 0`` (case I);
    positive values mean that point is cut off by ``y >= 0`` and the
    optimum sits on the axis (case II).  The sign equals the sign of
    ``cos(alpha) (sin(theta) + cos(theta)) - 1``.
    """
    ct, st = _trig(params.theta)
    ca, sa = _trig(params.alpha)
    cross, _, _, _, den = _closed_form(ct, st, ca, sa)
    return ca * st * (cross / den) + 0.0  # + 0.0 turns -0.0 into 0.0


def optimum(params: ProtocolParams) -> OptimumResult:
    """Closed-form optimal weights and maximal success probability.

    Case I applies when ``cos(alpha) (sin(theta) + cos(theta)) <= 1``:
    both weights are positive and ``p_max = 1 - sin(theta) cos(alpha)``.
    Case II applies otherwise: ``y = 0`` and ``x`` takes its largest
    value permitted by positivity.  Points within ``CASE_BAND`` (relative)
    of the crossover are labelled boundary and use the case I values (the
    two forms agree there).
    """
    cross, band, x, y, _ = _closed_form(*_trig(params.theta),
                                        *_trig(params.alpha))
    return OptimumResult(_CASES[_case(cross, band)], x, y, x + y)


def bell_conversion_prob(alpha: float) -> float:
    """Success probability of distilling the resource into a Bell pair.

    ``2 sin(alpha/2)^2 = 1 - cos(alpha)``: the benchmark any direct
    protocol has to beat, since a Bell pair implements the gate surely.
    """
    _check_alpha(alpha)
    ca, sa = _trig(alpha)
    return _twice_complement(ca, 1.0, sa, 0.0, 1.0) / 2.0


BOX = 1.2

#: Bisection steps per ``y`` in :func:`_best_feasible_y`; 48 halvings of
#: ``BOX`` leave an interval below 1e-14.
_Y_BISECTIONS = 48

#: The smallest resource angle :func:`pmax_oracle` accepts.  The entries
#: of ``v2 v2^T`` grow like ``1 / sin(alpha/2)^2`` and overflow below
#: ``alpha`` ~ 1e-154.
ORACLE_MIN_ALPHA = 1e-150


def _e3_min_eig(xs: np.ndarray, p1: np.ndarray, p2: np.ndarray):
    """The smallest eigenvalue of ``E3 = I - x P1 - y P2`` at each ``x``
    in ``xs``, as a function of ``ys``, read from the assembled matrix's
    three entries by :func:`_min_eig2`.  The ``x`` side of each entry is
    formed once; each call only subtracts ``y P2``.
    """
    a0 = 1.0 - xs * p1[0, 0]
    b0 = -xs * p1[0, 1]
    d0 = 1.0 - xs * p1[1, 1]

    def min_eig(ys: np.ndarray) -> np.ndarray:
        return _min_eig2(a0 - ys * p2[0, 0], b0 - ys * p2[0, 1],
                         d0 - ys * p2[1, 1])

    return min_eig


def _best_feasible_y(xs: np.ndarray, p1: np.ndarray,
                     p2: np.ndarray) -> np.ndarray:
    """Largest feasible ``y`` in [0, BOX] for each ``x``, by bisection.

    Feasibility means the smallest eigenvalue of the assembled
    ``E3 = I - x P1 - y P2``, taken from its three entries
    (:func:`_e3_min_eig`), is at least ``-EIG_TOL``.  Because ``P2`` is
    PSD the feasible ``y`` form an interval starting at 0, so bisection
    on the eigenvalue sign is exact.  Entries return NaN when even
    ``y = 0`` is infeasible for that ``x``.
    """
    min_eig = _e3_min_eig(xs, p1, p2)
    lo = np.zeros_like(xs)
    alive = min_eig(lo) >= -EIG_TOL
    hi = np.full_like(xs, BOX)
    top = min_eig(hi) >= -EIG_TOL
    lo[top] = BOX
    for _ in range(_Y_BISECTIONS):
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
    decided solely by the smallest eigenvalue of the assembled ``E3``
    matrix, computed from its three entries (never from the closed-form
    trace/determinant, which are what this oracle is meant to check).
    The search scans a grid of ``x`` values, solves the largest feasible
    ``y`` for each by eigenvalue bisection, and re-grids around the
    incumbent until the ``x`` step is below ``resolution / 10``.  The
    feasible region is convex and the objective linear, so the scan over
    ``x`` maximizes a concave function and the refinement cannot get
    trapped.  Ties are broken toward lexicographically smaller ``(x, y)``.

    ``alpha`` must be at least ``ORACLE_MIN_ALPHA``: below it the squared
    entries of ``P1`` and ``P2`` overflow, and ``ValueError`` is raised.
    """
    if not 1e-7 <= resolution <= 1e-2:
        raise ValueError(f"resolution must lie in [1e-7, 1e-2], got {resolution!r}")
    if params.alpha < ORACLE_MIN_ALPHA:
        raise ValueError(f"the search oracle needs alpha >= {ORACLE_MIN_ALPHA!r}, "
                         f"got {params.alpha!r}")
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
