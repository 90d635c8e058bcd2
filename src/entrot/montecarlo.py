"""Batched Monte Carlo estimation of protocol statistics.

Runs many independent protocol attempts in vectorized form and reports
success rates, fidelities and entanglement spending.  At a fixed
parameter point and POVM, one attempt is a finite tree of classical
transcripts: Alice's sign, Bob's POVM branch and, after a failure, the
``b`` outcome and the recovery's sign and branch.  None of their
probabilities depends on the data state, and every leaf acts on (A, B)
as a constant diagonal unitary.

So each call first builds a *transcript table*: it runs the reference
step functions of :mod:`entrot.protocol` on one fixed probe state, with
a deviate from the middle of each outcome's interval, and reads each
leaf's diagonal off the probe.  The labels (branch, Bell pairs, the
folding of a vanishing failure branch) are whatever those steps
returned.  A trial then needs no state simulation.  Its deviates pick a
leaf by the thresholds :func:`~entrot.protocol.run_once` applies, set
at the constant probabilities (1/2 for a sign, ``x`` and ``x + y`` for
the branch, the normalized ``c^2 r_j0^2 + s^2 r_j1^2`` for ``b``)
instead of each state's Born weights, which equal them up to round-off.
Its fidelity follows from the leaf's diagonal and the input.  So a
batch trial and a single run given the same deviates pick the same
branches unless a deviate falls within round-off of a threshold.  All
randomness derives from one 64-bit seed through counter-based streams,
making every summary bit-for-bit reproducible.

Draw layout per trial (columns of the decision matrix):

==  =========================================
0   Alice's x-basis outcome
1   POVM branch
2   failure b outcome
3   recovery x-basis outcome (deterministic mode)
4   recovery POVM branch (deterministic mode)
==  =========================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .entanglement import resource_entropy
from .povm import PovmWeights, ProtocolParams, build_povm, optimum
from .protocol import (_rng_from_seed, controlled_rotation, failure_residual,
                       finish_success, initial_register, recover_with_bell,
                       step1_alice, step2_bob, step3_bob, step4_bob_povm,
                       wrap_angle)
from .qmath import StateVector, psd_sqrt2

__all__ = ["SummaryStats", "monte_carlo"]

#: Trials are processed in blocks of this size to bound memory.
_CHUNK = 1 << 16

#: Stream tags mixed into the Philox key (high 64 bits).  Tag 0 is never
#: used here: it is the plain single-run keying, and reusing it would
#: make batch trials overlap with individually seeded runs.
_DECISION_CHANNEL = 1
_INPUT_CHANNEL = 2

#: The table is read off this data state.  Its amplitudes all differ in
#: modulus, so a leaf that moved weight between basis states would fail
#: the unit-modulus check instead of passing for a diagonal.
_PROBE = StateVector(("A", "B"),
                     np.array([1.0, 2.0j, -3.0, -4.0j]) / math.sqrt(30.0))

#: Deviate thresholds of a fair x-basis outcome, and of the recovery
#: POVM's branches (weights 1/2, 1/2 at a Bell resource, never failing).
_SIGN_EDGES = (0.5,)
_RECOVERY_EDGES = (0.5, 1.0)

#: How far a leaf's diagonal may stray from unit modulus, and the leaf
#: probabilities' sum from 1, before the table is rejected.
_UNIT_TOL = 1e-12
_SUM_TOL = 1e-9


def _haar_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Basis weights ``|phi_k|^2`` of ``n`` Haar-random two-qubit states,
    the states :func:`~entrot.qmath.haar_state` builds from each row of
    8 normals.  The fidelity of a diagonal leaf needs nothing else."""
    z = rng.standard_normal((n, 8))
    weight = z[:, :4] ** 2 + z[:, 4:] ** 2
    weight /= weight.sum(axis=1, keepdims=True)
    return weight


def _bins(edges):
    """Cut [0, 1) at ``edges``.  Yields each bin's width and a deviate
    inside it, as far from its ends as rounding allows (None when the
    bin is empty)."""
    cuts = (0.0, *edges, 1.0)
    for lo, hi in zip(cuts, cuts[1:]):
        mid = lo + 0.5 * (hi - lo)
        inside = (mid if mid < hi else lo) if lo < hi else None
        yield max(hi - lo, 0.0), inside


def _reading(state: StateVector) -> np.ndarray:
    """The diagonal that took the probe to ``state``."""
    return state.permuted(("A", "B")).amps / _PROBE.amps


def _b_edge(params: ProtocolParams, e3: np.ndarray) -> float:
    """Threshold of the failure ``b`` outcome: the weight of ``b = 0``.

    Row ``j`` of the failure Kraus operator leaves weight
    ``c^2 r_j0^2 + s^2 r_j1^2`` on ``b = j``, whatever the data state.
    """
    r = psd_sqrt2(e3).real
    pb = ((params.cos_half_alpha * r[:, 0]) ** 2
          + (params.sin_half_alpha * r[:, 1]) ** 2)
    return float(pb[0] / (pb[0] + pb[1]))


def _recovery_table(theta_remaining: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals and Bell pairs of the recovery, per (sign, branch) bin."""
    phases = np.full((2, 3, 4), np.nan, dtype=complex)
    bell = np.zeros((2, 3), dtype=np.int64)
    for i, (_, u_x) in enumerate(_bins(_SIGN_EDGES)):
        for k, (_, u_povm) in enumerate(_bins(_RECOVERY_EDGES)):
            if u_povm is not None:
                state, _, bell[i, k] = recover_with_bell(
                    _PROBE, theta_remaining, u_x, u_povm)
                phases[i, k] = _reading(state)
    return phases, bell


@dataclass(frozen=True, eq=False)
class _TranscriptTable:
    """Every transcript of one attempt, one leaf per cell of deviate bins.

    Draw column ``k`` is cut into bins at ``edges[k]``; a trial's leaf is
    the row-major index of its bins.  ``overlap`` holds each leaf's
    diagonal times the conjugate target diagonal, NaN where a failure
    is left unrecovered.
    """

    edges: tuple[np.ndarray, ...]
    branch: np.ndarray
    bell: np.ndarray
    overlap: np.ndarray


def _transcript_table(params: ProtocolParams, weights: PovmWeights,
                      deterministic: bool) -> _TranscriptTable:
    """Run the reference steps once per leaf on the probe.

    Prefixes are shared: steps 1-3 run once per sign and the POVM once
    per branch bin, and each recovery sub-table, which depends only on
    the ``b`` outcome, is built once and multiplied into its leaves.  A
    column a transcript does not consult repeats the leaf along its axis.
    Raises ``ValueError`` for a non-positive POVM (from the POVM step),
    and when a leaf's probability or diagonal breaks the premise.
    """
    povm = build_povm(params, weights)
    edges = [_SIGN_EDGES, (weights.x, weights.x + weights.y)]
    if deterministic:
        # column 2 is cut at the b threshold once a branch bin fails
        edges += [(1.0,), _SIGN_EDGES, _RECOVERY_EDGES]
    shape = tuple(len(e) + 1 for e in edges)
    phases = np.full(shape + (4,), np.nan, dtype=complex)
    branch = np.zeros(shape, dtype=np.int64)
    bell = np.zeros(shape, dtype=np.int64)
    b_bins = None
    recovery: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    start = initial_register(params.alpha, _PROBE)
    for i, (_, u_x) in enumerate(_bins(edges[0])):
        reg, message = step1_alice(start, u_x)
        reg = step3_bob(step2_bob(reg, message))
        for k, (_, u_povm) in enumerate(_bins(edges[1])):
            if u_povm is None:
                continue
            got, post = step4_bob_povm(reg, povm, u_povm)
            branch[i, k] = got
            if got != 3:
                phases[i, k] = _reading(finish_success(got, post)[0])
                continue
            if not deterministic:
                continue
            if b_bins is None:
                edges[2] = (_b_edge(params, povm.e3),)
                b_bins = list(_bins(edges[2]))
            for j, (_, u_b) in enumerate(b_bins):
                if u_b is None:
                    continue
                residual, rest = failure_residual(post, povm, u_b)
                if residual.b_outcome not in recovery:
                    recovery[residual.b_outcome] = _recovery_table(
                        wrap_angle(params.theta - residual.theta_f))
                rec_phases, bell[i, k, j] = recovery[residual.b_outcome]
                phases[i, k, j] = _reading(rest) * rec_phases

    # Bin widths are clipped at 0, so each column's widths sum to at least
    # 1, with equality only for ordered edges in [0, 1].  Leaf
    # probabilities summing to 1 are therefore also finite and in [0, 1].
    prob = reduce(np.multiply.outer,
                  [np.array([w for w, _ in _bins(e)]) for e in edges])
    if not abs(prob.sum() - 1.0) <= _SUM_TOL:
        raise ValueError(
            f"transcript probabilities at {params} with {weights} are not "
            f"a distribution")
    live = (prob > 0.0) & ((branch != 3) | deterministic)
    modulus = np.abs(phases[live])
    if not (np.isfinite(modulus).all()
            and np.abs(modulus - 1.0).max(initial=0.0) <= _UNIT_TOL):
        raise ValueError(
            f"a transcript at {params} with {weights} does not act as a "
            f"diagonal unitary on the data")
    target = controlled_rotation(params.theta).diagonal()
    return _TranscriptTable(
        edges=tuple(np.array(e, dtype=float) for e in edges),
        branch=branch.reshape(-1), bell=bell.reshape(-1),
        overlap=(target.conj() * phases).reshape(-1, 4))


def _simulate_chunk(table: _TranscriptTable, weight: np.ndarray,
                    draws: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block of trials on inputs with basis weights ``weight``.

    Returns ``(branch, fidelity, bell_pairs)`` per trial.  A leaf with
    diagonal ``d`` maps an input ``phi`` to ``d * phi``, so its fidelity
    against the target applied to ``phi`` is
    ``|sum_k |phi_k|^2 conj(target_k) d_k|^2``.  It is NaN for a branch-3
    trial left unrecovered (non-deterministic mode).
    """
    leaf = np.zeros(draws.shape[0], dtype=np.intp)
    for col, edges in enumerate(table.edges):
        u = draws[:, col]
        leaf *= edges.size + 1
        for edge in edges:
            leaf += u >= edge
    overlap = np.einsum("nk,nk->n", weight, table.overlap[leaf])
    return (table.branch[leaf], overlap.real ** 2 + overlap.imag ** 2,
            table.bell[leaf])


@dataclass(frozen=True)
class SummaryStats:
    """Aggregates over a batch of protocol attempts.

    ``mean_fidelity`` is against the target gate and averages the trials
    that finish with it applied: the success branches, plus recovered
    failures in deterministic mode (where it covers every trial).  It is
    None when no trial finished.  ``empirical_p`` counts branches 1-2
    over all trials; ``z_score`` compares it with ``analytic_p = x + y``
    under the binomial standard error.  ``mean_ebits`` is the resource
    entropy plus Bell pairs spent per trial.
    """

    params: ProtocolParams
    weights: PovmWeights
    trials: int
    seed: int
    deterministic: bool
    branch_counts: tuple[int, int, int]
    success_count: int
    empirical_p: float
    analytic_p: float
    z_score: float
    mean_fidelity: float | None
    mean_bell_pairs: float
    mean_ebits: float


def monte_carlo(params: ProtocolParams, trials: int, seed: int,
                weights: PovmWeights | None = None,
                input_state: StateVector | None = None,
                deterministic: bool = False) -> SummaryStats:
    """Estimate protocol statistics over ``trials`` independent attempts.

    ``weights`` defaults to the optimal POVM for ``params``.  With
    ``input_state=None`` every trial gets a fresh Haar-random data state;
    otherwise the given state (on qubits ``A``, ``B``) is reused.  The
    decision deviates and the random inputs come from two disjoint
    streams derived from ``seed``, so results are reproducible and
    independent of chunking.
    """
    if not isinstance(trials, (int, np.integer)) or isinstance(trials, bool):
        raise TypeError(f"trials must be an integer, got {type(trials).__name__}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    fixed_weight = None
    if input_state is not None:
        if set(input_state.qubits) != {"A", "B"}:
            raise ValueError(
                f"input must live on qubits A and B, got {input_state.qubits}")
        if abs(input_state.norm() - 1.0) > 1e-9:
            raise ValueError("input state must be normalized")
        fixed_weight = np.abs(input_state.permuted(("A", "B")).amps) ** 2
    dec_rng = _rng_from_seed(seed, _DECISION_CHANNEL)
    in_rng = _rng_from_seed(seed, _INPUT_CHANNEL)
    if weights is None:
        weights = optimum(params).weights
    table = _transcript_table(params, weights, deterministic)

    counts = np.zeros(3, dtype=np.int64)
    fid_sum = 0.0
    fid_n = 0
    bell_sum = 0
    done = 0
    while done < trials:
        n = min(_CHUNK, trials - done)
        draws = dec_rng.random((n, 5))
        if fixed_weight is None:
            weight = _haar_weights(in_rng, n)
        else:
            weight = np.broadcast_to(fixed_weight, (n, 4))
        branch, fid, bell = _simulate_chunk(table, weight, draws)
        counts += np.bincount(branch, minlength=4)[1:4]
        have = ~np.isnan(fid)
        fid_sum += float(fid[have].sum())
        fid_n += int(have.sum())
        bell_sum += int(bell.sum())
        done += n

    success = int(counts[0] + counts[1])
    empirical_p = success / trials
    analytic_p = weights.x + weights.y
    se = math.sqrt(analytic_p * (1.0 - analytic_p) / trials)
    if se == 0.0:
        z = 0.0 if empirical_p == analytic_p else math.copysign(
            math.inf, empirical_p - analytic_p)
    else:
        z = (empirical_p - analytic_p) / se
    mean_bell = bell_sum / trials
    return SummaryStats(
        params=params, weights=weights, trials=int(trials), seed=int(seed),
        deterministic=deterministic,
        branch_counts=(int(counts[0]), int(counts[1]), int(counts[2])),
        success_count=success, empirical_p=empirical_p,
        analytic_p=analytic_p, z_score=z,
        mean_fidelity=(fid_sum / fid_n) if fid_n else None,
        mean_bell_pairs=mean_bell,
        mean_ebits=resource_entropy(params.alpha) + mean_bell)
