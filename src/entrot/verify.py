"""Self-consistency checks tying the closed forms to the simulator.

Each named check exercises one cross-cutting identity: matrix builds
against closed-form traces and determinants, optimizer output against
feasibility, protocol runs against the analytic success law, and so on.
A check only measures: it returns a list of measurements, each
``(label, samples, side, bound)``, and one judge decides whether they
pass and writes the detail line (the rule is on :class:`CheckResult`).
``run_checks`` executes a level ("quick" well under 5 s, "full" also
covering oracle grids, sampling statistics and the break-even angle) and
returns one result per check; anything False signals a real defect, and
a check that raises is reported as failed with the exception's text.
"""

from __future__ import annotations

import math
import operator
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import entanglement, montecarlo, povm, protocol
from .qmath import apply_gate, fidelity, haar_state

__all__ = ["CheckResult", "all_passed", "run_checks"]

#: ``(label, samples, side, bound)``: ``samples`` is one number or a list
#: of one per draw, and ``side`` is ``"<="``, ``">="`` or ``"=="``.
Measurement = tuple[str, float | list[float], str, float]

#: name -> (runs at the quick level, check).  A check draws from its own
#: stream and returns its measurements; it never compares one with its
#: bound, which is the judge's job alone.
_CHECKS: dict[str, tuple[bool, Callable[..., list[Measurement]]]] = {}

#: side -> (a sample lies on that side of the bound, a key that grows as
#: a sample moves toward failing)
_SIDES = {"<=": (operator.le, lambda s, bound: s),
          ">=": (operator.ge, lambda s, bound: -s),
          "==": (operator.eq, lambda s, bound: abs(s - bound))}


@dataclass(frozen=True)
class CheckResult:
    """One check's verdict.

    ``detail`` shows each of the check's measurements as
    ``<label> = <worst sample> <side> <bound> over <number of samples>``,
    numbers at 12 significant digits, joined by ``"; "``.  The worst
    sample is a NaN if there is one, else the largest for ``<=``, the
    least for ``>=`` and the farthest from the bound for ``==``; with no
    samples it reads ``nan``.  ``passed`` holds when every measurement
    has samples and each sample lies on its side of the bound, which a
    NaN never does.  A check that raises fails with the detail
    ``raised <exception type>: <message>``.
    """

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


def _gaps(rng: np.random.Generator, draws: int,
          gap: Callable[..., float]) -> list[float]:
    """``gap(params, weights, povm_set)`` at random feasible points, each
    the optimum at a random point shrunk toward the origin."""
    gaps = []
    for _ in range(draws):
        params = _params(rng, 0.1)
        best = povm.optimum(params)
        f = rng.uniform(0.0, 1.0)
        w = povm.PovmWeights(f * best.x, f * best.y)
        gaps.append(gap(params, w, povm.build_povm(params, w)))
    return gaps


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


def _infidelity(theta: float, state, out) -> float:
    """``1 - F`` of a run's final state with ``CR(theta)`` on its input."""
    target = apply_gate(state, protocol.controlled_rotation(theta), ("A", "B"))
    return 1.0 - fidelity(target, out.final_state)


@_register("povm_completeness", quick=True)
def _check_completeness(rng: np.random.Generator) -> list[Measurement]:
    return [("max |E1+E2+E3 - I|", _gaps(rng, 50, lambda params, w, s: float(
        np.abs(s.e1 + s.e2 + s.e3 - np.eye(2)).max())), "<=", 1e-12)]


@_register("tr_e3_formula", quick=True)
def _check_tr(rng: np.random.Generator) -> list[Measurement]:
    return [("|closed form - trace|", _gaps(rng, 200, lambda params, w, s: abs(
        povm.tr_e3(params, w) - float(np.trace(s.e3).real))), "<=", 1e-12)]


@_register("det_e3_formula", quick=True)
def _check_det(rng: np.random.Generator) -> list[Measurement]:
    return [("|closed form - det|", _gaps(rng, 200, lambda params, w, s: abs(
        povm.det_e3(params, w) - float(np.linalg.det(s.e3).real))),
        "<=", 1e-12)]


@_register("discriminant_case_split", quick=True)
def _check_discriminant(rng: np.random.Generator) -> list[Measurement]:
    mismatches = []
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
        mismatches.append(int(best.case is not want
                              or (disc > 0) != (crossover > 0)))
    return [("sign/case mismatches", mismatches, "==", 0)]


@_register("optimum_feasible", quick=True)
def _check_optimum(rng: np.random.Generator) -> list[Measurement]:
    eigs, dets = [], []
    for _ in range(100):
        params = _params(rng, 0.05)
        best = povm.optimum(params)
        eigs.append(povm.build_povm(params, best.weights).min_eig_e3)
        dets.append(abs(povm.det_e3(params, best.weights)))
    # the optimum sits on the boundary, where E3 is singular
    return [("min eig E3", eigs, ">=", -povm.EIG_TOL),
            ("|det E3|", dets, "<=", 1e-10)]


@_register("case_boundary_continuity", quick=True)
def _check_boundary(rng: np.random.Generator) -> list[Measurement]:
    jumps = []
    for _ in range(50):
        theta = rng.uniform(0.3, 0.5) * math.pi
        k = 1.0 / (math.sin(theta) + math.cos(theta))
        if not 0.0 < k < 1.0:
            continue
        alpha = math.acos(k)  # crossover line between the two regimes
        lo = povm.optimum(povm.ProtocolParams(theta, alpha - 1e-9)).p_max
        hi = povm.optimum(povm.ProtocolParams(theta, alpha + 1e-9)).p_max
        jumps.append(abs(hi - lo))
    return [("jump across the regime boundary", jumps, "<=", 1e-7)]


@_register("bell_resource_projective", quick=True)
def _check_bell(rng: np.random.Generator) -> list[Measurement]:
    shortfalls, norm3 = [], []
    for _ in range(20):
        theta = rng.uniform(0.05, 0.5) * math.pi
        params = povm.ProtocolParams(theta, povm.HALF_PI)
        best = povm.optimum(params)
        shortfalls.append(1.0 - best.p_max)
        s = povm.build_povm(params, best.weights)
        norm3.append(float(np.abs(s.e3).max()))
    return [("1 - p_max at a Bell resource", shortfalls, "==", 0.0),
            ("max |E3| at a Bell resource", norm3, "<=", 1e-12)]


@_register("protocol_success_fidelity", quick=True)
def _check_protocol(rng: np.random.Generator) -> list[Measurement]:
    gaps = []
    for _ in range(30):
        params, state, out = _seeded_run(rng)
        if out.branch != 3:
            gaps.append(_infidelity(params.theta, state, out))
    return [("1 - success fidelity", gaps, "<=", 1e-12)]


@_register("cost_identity", quick=True)
def _check_cost(rng: np.random.Generator) -> list[Measurement]:
    reps = [entanglement.average_cost(_params(rng, 0.05)) for _ in range(100)]
    bell_cost = entanglement.average_cost(
        povm.ProtocolParams(0.3 * math.pi, povm.HALF_PI)).avg_cost
    return [("|cost - (1 - p_max + entropy)|",
             [abs(r.avg_cost - (1.0 - r.p_max + r.entropy)) for r in reps],
             "<=", 1e-15),
            ("cost - 1 at a Bell resource", bell_cost - 1.0, "==", 0.0)]


@_register("pmax_oracle_agreement", quick=False)
def _check_oracle(rng: np.random.Generator) -> list[Measurement]:
    gaps = []
    for _ in range(12):
        params = _params(rng, 0.1)
        analytic = povm.optimum(params).p_max
        _, _, numeric = povm.pmax_oracle(params, resolution=1e-5)
        gaps.append(abs(analytic - numeric))
    return [("|closed form - numeric search|", gaps, "<=", 1e-4)]


@_register("monte_carlo_success_rate", quick=False)
def _check_mc(rng: np.random.Generator) -> list[Measurement]:
    z = []
    for theta, alpha in ((0.5, 1 / 3), (0.25, 1 / 6), (0.5, 0.25)):
        params = povm.ProtocolParams(theta * math.pi, alpha * math.pi)
        stats = montecarlo.monte_carlo(params, 20000,
                                       seed=int(rng.integers(2 ** 63)))
        z.append(abs(stats.z_score))
    return [("|z| of 2e4 trials", z, "<=", 4.5)]


@_register("residual_reconstruction", quick=False)
def _check_residual(rng: np.random.Generator) -> list[Measurement]:
    return [("1 - residual fidelity",
             [_infidelity(out.residual.theta_f, state, out)
              for _, state, out in _failed_runs(rng, deterministic=False)],
             "<=", 1e-10)]


@_register("deterministic_completion", quick=False)
def _check_deterministic(rng: np.random.Generator) -> list[Measurement]:
    failed = _failed_runs(rng, deterministic=True)
    return [("1 - recovered fidelity",
             [_infidelity(params.theta, state, out)
              for params, state, out in failed], "<=", 1e-10),
            ("Bell pairs per failure",
             [out.bell_pairs_consumed for _, _, out in failed], "==", 1)]


@_register("break_even_angle", quick=False)
def _check_threshold(rng: np.random.Generator) -> list[Measurement]:
    turns = entanglement.threshold_theta(tol=1e-4) / math.pi
    return [("break-even angle / pi", turns, ">=", 0.232),
            ("break-even angle / pi", turns, "<=", 0.236)]


def _judge(measurements: list[Measurement]) -> tuple[bool, str]:
    """``(passed, detail)`` of a check's measurements, by the rule stated
    on :class:`CheckResult`."""
    passed, parts = True, []
    for label, samples, side, bound in measurements:
        samples = samples if isinstance(samples, list) else [samples]
        on_side, toward_failing = _SIDES[side]
        worst = max(samples, default=math.nan, key=lambda s: (
            math.isnan(s), toward_failing(s, bound)))
        passed = (passed and bool(samples)
                  and all(on_side(s, bound) for s in samples))
        parts.append(f"{label} = {worst:.12g} {side} {bound:.12g} "
                     f"over {len(samples)}")
    return passed, "; ".join(parts)


def _run(name: str, check: Callable[..., list[Measurement]],
         rng: np.random.Generator) -> CheckResult:
    """A check's result; one that raises fails, naming the exception."""
    try:
        passed, detail = _judge(check(rng))
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
