"""Self-consistency checks tying the closed forms to the simulator.

Each named check exercises one cross-cutting identity: matrix builds
against closed-form traces and determinants, optimizer output against
feasibility, protocol runs against the analytic success law, and so on.
``run_checks`` executes a level ("quick" well under 5 s, "full" also
covering oracle grids, sampling statistics and the break-even angle) and
returns one result per check; anything False signals a real defect, and
a check that raises is reported as failed with the exception's text.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import entanglement, montecarlo, povm, protocol
from .qmath import apply_gate, fidelity, haar_state

__all__ = ["CheckResult", "all_passed", "run_checks"]

#: name -> (runs at the quick level, check).  A check draws from its own
#: stream and returns ``(passed, detail)``.
_CHECKS: dict[str, tuple[bool, Callable[..., tuple[bool, str]]]] = {}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _register(name: str, quick: bool):
    def deco(fn):
        _CHECKS[name] = (quick, fn)
        return fn
    return deco


def _params(rng: np.random.Generator, lo: float,
            alpha_hi: float = 0.5) -> povm.ProtocolParams:
    """A point with theta in [lo, 0.5) pi and alpha in [lo, alpha_hi) pi."""
    theta = rng.uniform(lo, 0.5) * math.pi
    alpha = rng.uniform(lo, alpha_hi) * math.pi
    return povm.ProtocolParams(theta, alpha)


def _worst_gap(rng: np.random.Generator, draws: int,
               gap: Callable[..., float]) -> float:
    """Largest ``gap(params, weights, povm_set)`` over random feasible
    points, each the optimum at a random point shrunk toward the origin."""
    worst = 0.0
    for _ in range(draws):
        params = _params(rng, 0.1)
        best = povm.optimum(params)
        f = rng.uniform(0.0, 1.0)
        w = povm.PovmWeights(f * best.x, f * best.y)
        worst = max(worst, gap(params, w, povm.build_povm(params, w)))
    return worst


def _seeded_run(rng: np.random.Generator, alpha_hi: float = 0.5,
                deterministic: bool = False):
    """One optimal-weight run at a random point on a Haar input, with a
    drawn seed; returns ``(params, input_state, outcome)``."""
    params = _params(rng, 0.1, alpha_hi)
    best = povm.optimum(params)
    state = haar_state(("A", "B"), rng.standard_normal(8))
    out = protocol.run_once(params, best.weights, state,
                            seed=int(rng.integers(2 ** 63)),
                            deterministic=deterministic)
    return params, state, out


def _failed_runs(rng: np.random.Generator, deterministic: bool) -> list:
    """Up to 25 failed runs at alpha < 0.4 pi, in at most 500 tries."""
    failed = []
    tried = 0
    while len(failed) < 25 and tried < 500:
        tried += 1
        run = _seeded_run(rng, 0.4, deterministic)
        if run[2].branch == 3:
            failed.append(run)
    return failed


def _target_fidelity(theta: float, state, out) -> float:
    """Fidelity of a run's final state with ``CR(theta)`` on its input."""
    target = apply_gate(state, protocol.controlled_rotation(theta), ("A", "B"))
    return fidelity(target, out.final_state)


@_register("povm_completeness", quick=True)
def _check_completeness(rng: np.random.Generator) -> tuple[bool, str]:
    worst = _worst_gap(rng, 50, lambda params, w, s: float(
        np.abs(s.e1 + s.e2 + s.e3 - np.eye(2)).max()))
    return worst <= 1e-12, f"max |E1+E2+E3 - I| = {worst:.3e} over 50 draws"


@_register("tr_e3_formula", quick=True)
def _check_tr(rng: np.random.Generator) -> tuple[bool, str]:
    worst = _worst_gap(rng, 200, lambda params, w, s: abs(
        povm.tr_e3(params, w) - float(np.trace(s.e3).real)))
    return (worst <= 1e-12,
            f"max |closed form - trace| = {worst:.3e} over 200 draws")


@_register("det_e3_formula", quick=True)
def _check_det(rng: np.random.Generator) -> tuple[bool, str]:
    worst = _worst_gap(rng, 200, lambda params, w, s: abs(
        povm.det_e3(params, w) - float(np.linalg.det(s.e3).real)))
    return (worst <= 1e-12,
            f"max |closed form - det| = {worst:.3e} over 200 draws")


@_register("discriminant_case_split", quick=True)
def _check_discriminant(rng: np.random.Generator) -> tuple[bool, str]:
    bad = 0
    for _ in range(200):
        params = _params(rng, 0.05)
        crossover = params.cos_alpha * (params.sin_theta
                                        + math.cos(params.theta)) - 1.0
        if abs(crossover) < 1e-6:
            continue  # too close to the boundary to have a clean sign
        disc = povm.discriminant(params)
        best = povm.optimum(params)
        want = (povm.CaseLabel.CASE_II if crossover > 0
                else povm.CaseLabel.CASE_I)
        if best.case is not want or (disc > 0) != (crossover > 0):
            bad += 1
    return bad == 0, f"{bad} sign/case mismatches over 200 draws"


@_register("optimum_feasible", quick=True)
def _check_optimum(rng: np.random.Generator) -> tuple[bool, str]:
    worst_eig = 0.0
    worst_det = 0.0
    for _ in range(100):
        params = _params(rng, 0.05)
        best = povm.optimum(params)
        s = povm.build_povm(params, best.weights)
        if not s.positive:
            return False, (f"optimum infeasible at theta={params.theta}, "
                           f"alpha={params.alpha}")
        worst_eig = max(worst_eig, -min(s.min_eig_e3, 0.0))
        worst_det = max(worst_det, abs(povm.det_e3(params, best.weights)))
    return (worst_det <= 1e-10,
            f"min eig >= -{worst_eig:.3e}, |det E3| <= {worst_det:.3e} "
            f"(optimum sits on the boundary)")


@_register("case_boundary_continuity", quick=True)
def _check_boundary(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(50):
        theta = rng.uniform(0.3, 0.5) * math.pi
        k = 1.0 / (math.sin(theta) + math.cos(theta))
        if not 0.0 < k < 1.0:
            continue
        alpha = math.acos(k)  # crossover line between the two regimes
        lo = povm.optimum(povm.ProtocolParams(theta, alpha - 1e-9)).p_max
        hi = povm.optimum(povm.ProtocolParams(theta, alpha + 1e-9)).p_max
        worst = max(worst, abs(hi - lo))
    return worst <= 1e-7, f"max jump across the regime boundary = {worst:.3e}"


@_register("bell_resource_projective", quick=True)
def _check_bell(rng: np.random.Generator) -> tuple[bool, str]:
    for _ in range(20):
        theta = rng.uniform(0.05, 0.5) * math.pi
        params = povm.ProtocolParams(theta, povm.HALF_PI)
        best = povm.optimum(params)
        s = povm.build_povm(params, best.weights)
        norm3 = float(np.abs(s.e3).max())
        if best.p_max != 1.0 or norm3 > 1e-12:
            return False, (f"p_max={best.p_max!r}, |E3|={norm3:.3e} "
                           f"at theta={theta}")
    return True, "p_max is exactly 1 and E3 vanishes at a Bell resource"


@_register("protocol_success_fidelity", quick=True)
def _check_protocol(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 1.0
    tried = 0
    for _ in range(30):
        params, state, out = _seeded_run(rng)
        if out.branch == 3:
            continue
        tried += 1
        worst = min(worst, _target_fidelity(params.theta, state, out))
    return (tried > 0 and worst >= 1.0 - 1e-12,
            f"min success fidelity = {worst:.15f} over {tried} successes")


@_register("cost_identity", quick=True)
def _check_cost(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(100):
        rep = entanglement.average_cost(_params(rng, 0.05))
        worst = max(worst, abs(rep.avg_cost - (1.0 - rep.p_max + rep.entropy)))
    bell_cost = entanglement.average_cost(
        povm.ProtocolParams(0.3 * math.pi, povm.HALF_PI)).avg_cost
    return (worst <= 1e-15 and bell_cost == 1.0,
            f"identity residual <= {worst:.3e}; "
            f"cost at Bell resource = {bell_cost!r}")


@_register("pmax_oracle_agreement", quick=False)
def _check_oracle(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(12):
        params = _params(rng, 0.1)
        analytic = povm.optimum(params).p_max
        _, _, numeric = povm.pmax_oracle(params, resolution=1e-5)
        worst = max(worst, abs(analytic - numeric))
    return (worst <= 1e-4,
            f"max |closed form - numeric search| = {worst:.3e} "
            f"over 12 random points")


@_register("monte_carlo_success_rate", quick=False)
def _check_mc(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for theta, alpha in ((0.5, 1 / 3), (0.25, 1 / 6), (0.5, 0.25)):
        params = povm.ProtocolParams(theta * math.pi, alpha * math.pi)
        stats = montecarlo.monte_carlo(params, 20000,
                                       seed=int(rng.integers(2 ** 63)))
        worst = max(worst, abs(stats.z_score))
    return (worst <= 4.5,
            f"max |z| = {worst:.2f} over 3 configurations, 2e4 trials")


@_register("residual_reconstruction", quick=False)
def _check_residual(rng: np.random.Generator) -> tuple[bool, str]:
    failed = _failed_runs(rng, deterministic=False)
    worst = min([1.0] + [_target_fidelity(out.residual.theta_f, state, out)
                         for _, state, out in failed])
    return (len(failed) > 0 and worst >= 1.0 - 1e-10,
            f"min residual fidelity = {worst:.15f} over "
            f"{len(failed)} failures")


@_register("deterministic_completion", quick=False)
def _check_deterministic(rng: np.random.Generator) -> tuple[bool, str]:
    failed = _failed_runs(rng, deterministic=True)
    bad_bell = sum(out.bell_pairs_consumed != 1 for _, _, out in failed)
    worst = min([1.0] + [_target_fidelity(params.theta, state, out)
                         for params, state, out in failed])
    return (len(failed) > 0 and bad_bell == 0 and worst >= 1.0 - 1e-10,
            f"min recovered fidelity = {worst:.15f} over "
            f"{len(failed)} failures, {bad_bell} wrong pair counts")


@_register("break_even_angle", quick=False)
def _check_threshold(rng: np.random.Generator) -> tuple[bool, str]:
    value = entanglement.threshold_theta(tol=1e-4)
    return (0.232 * math.pi <= value <= 0.236 * math.pi,
            f"break-even angle = {value / math.pi:.5f} pi")


def _run(name: str, check: Callable[..., tuple[bool, str]],
         rng: np.random.Generator) -> CheckResult:
    """A check's result; one that raises fails, naming the exception."""
    try:
        passed, detail = check(rng)
    except Exception as exc:
        return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")
    return CheckResult(name, passed, detail)


def run_checks(level: str = "quick", seed: int = 0) -> list[CheckResult]:
    """Run every check at the given level; returns one result per check.

    Each check draws from its own stream: channel 3 of ``seed``, jumped
    by the CRC-32 of the check's name.  So a check's draws depend on its
    name and the seed alone, not on which other checks run."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    base = protocol._rng_from_seed(seed, 3).bit_generator
    return [_run(name, check, np.random.Generator(
                base.jumped(zlib.crc32(name.encode()))))
            for name, (quick, check) in sorted(_CHECKS.items())
            if quick or level == "full"]


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
