"""Batched Monte Carlo estimation of protocol statistics.

Runs many independent protocol attempts in vectorized form and reports
success rates, fidelities and entanglement spending.  At a fixed
parameter point and POVM, one attempt is a finite tree of classical
transcripts: Alice's sign, Bob's POVM branch and, after a failure, the
``b`` outcome and the recovery's sign and branch.  None of their
probabilities depends on the data state, and every leaf acts on (A, B)
as a constant diagonal unitary.

So each call first looks up a *transcript table*, built once per
parameter point, POVM and mode and then kept in a small memo: it walks
the protocol's attempt, the one generator behind
:func:`~entrot.protocol.run_once`, on one fixed probe state, with a
deviate from the middle of each outcome's interval, and reads each
leaf's diagonal off the probe, in the walk's own register order: the
probe's amplitudes all differ in modulus, so a leaf read in any other
order fails the table's unit-modulus check.  The labels (branch, Bell
pairs, the folding of a vanishing failure branch) are whatever that walk
returned.  Alice's sign is one bin, in the attempt and in the recovery:
after her controlled phase the two values of ``a`` sit on different
values of ``b``, so her -1 arm is her +1 arm with its ``b = 1``
amplitudes negated, and Bob's ``sz`` negates them back exactly.  The
signs differ only in the transcript, so the table walks one of them and
cuts no column for either.  A trial then needs no state simulation.
Its deviates pick a leaf by the thresholds
:func:`~entrot.protocol.run_once` applies, set at the constant
probabilities (``x`` and ``x + y`` for the branch, and for ``b`` the
weight of ``b = 0`` that :func:`~entrot.protocol._failure_law` gives)
instead of each state's Born weights, which equal them up to round-off.
A failure's recovery leaves are the transcript table of the recovery
attempt for the rotation the walk says it owes, walked the same way.
So a batch trial and a single run given the same branch, ``b`` and
recovery-branch deviates, whatever their signs, pick the same branches
unless a deviate falls within round-off of a threshold.

A trial's fidelity depends on its input only through the input's basis
weights, and for Haar inputs their second moments are known in closed
form.  So no input is drawn: each leaf's fidelity is exact for a fixed
input and averaged over Haar inputs otherwise, and a call only counts
how many trials reach each leaf.  A trial draws one raw 64-bit word per
column of its table: the branch, and in deterministic mode the
failure's ``b`` outcome and the recovery's branch.  A sign picks no
leaf, so it draws no word.  The words come row-major from one
counter-based stream derived from a 64-bit seed, making every summary
bit-for-bit reproducible.  A word ``w`` stands for the deviate
``(w >> 11) * 2**-53`` that ``Generator.random`` makes of it, and the
table holds each threshold as the least word whose deviate reaches it,
so a leaf is picked by integer comparisons that agree exactly with the
deviates' own.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import pairwise

import numpy as np

from .entanglement import resource_entropy
from .povm import PovmWeights, ProtocolParams, optimum
from .protocol import (_check_input, _failure_law, _recovery, _rng_from_seed,
                       _walk, controlled_rotation)
from .qmath import StateVector

__all__ = ["SummaryStats", "monte_carlo"]

#: Trials are processed in blocks of this size to bound memory.
_CHUNK = 1 << 14

#: Fidelities are summed exactly, truncated to units of 2**-_FID_BITS,
#: so the mean is the correctly rounded quotient of an exact integer sum.
_FID_BITS = 53

#: Stream tag mixed into the Philox key (high 64 bits).  Tag 0 is never
#: used here: it is the plain single-run keying, and reusing it would
#: make batch trials overlap with individually seeded runs.
_DECISION_CHANNEL = 1

#: The table is read off this data state.  Its amplitudes all differ in
#: modulus, so a leaf that moved weight between basis states would fail
#: the unit-modulus check instead of passing for a diagonal.
_PROBE = StateVector(("A", "B"),
                     np.array([1.0, 2.0j, -3.0, -4.0j]) / math.sqrt(30.0))

#: How far a leaf's diagonal may stray from unit modulus, and the leaf
#: probabilities' sum from 1, before the table is rejected.
_UNIT_TOL = 1e-12
_SUM_TOL = 1e-9


def _fid_units(count: np.ndarray, fid: np.ndarray) -> int:
    """Exact sum of ``count[l]`` trials at fidelity ``fid[l]`` in units of
    ``2**-_FID_BITS``, each fidelity truncated to whole units."""
    units = (fid * 2.0 ** _FID_BITS).astype(np.int64)
    return sum(int(n) * int(u) for n, u in zip(count, units))


def _bins(edges):
    """Cut [0, 1) at ``edges``.  Yields the index of each nonempty bin and
    a deviate inside it, as far from its ends as rounding allows."""
    for i, (lo, hi) in enumerate(pairwise((0.0, *edges, 1.0))):
        if lo < hi:
            mid = lo + 0.5 * (hi - lo)
            yield i, (mid if mid < hi else lo)


def _word(edge: float) -> int:
    """The least raw word ``w`` whose deviate ``u = (w >> 11) * 2**-53``
    is at least ``edge < 1``.

    Deviates are whole multiples of ``2**-53`` and ``edge * 2**53`` is
    exact, so ``u >= edge`` exactly when ``w >= _word(edge)``.  Edges
    are never negative, and ``_word(0.0) == _word(-0.0) == 0``.
    """
    return math.ceil(edge * 2.0 ** 53) << 11


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _reading(state: StateVector) -> np.ndarray:
    """The diagonal that took the probe to ``state``, read in the walk's
    own register order."""
    return state.amps / _PROBE.amps


@dataclass(frozen=True, eq=False)
class _TranscriptTable:
    """Every transcript of one attempt, one leaf per cell of deviate bins.

    Word ``k`` of a trial is cut into bins at ``edges[k]``; a trial's leaf
    is the row-major index of its bins.  ``cuts[k]`` holds the same edges as
    raw words (:func:`_word`), less any at or above 1, which no deviate
    reaches.  ``phases`` holds each leaf's diagonal, NaN where a failure
    is left unrecovered, and ``overlap`` the same times the conjugate
    target diagonal.  Tables are memoised and shared, so every array is
    read-only.
    """

    edges: tuple[np.ndarray, ...]
    cuts: tuple[np.ndarray, ...]
    branch: np.ndarray
    bell: np.ndarray
    phases: np.ndarray
    overlap: np.ndarray


# Room for two points in both modes: four root tables and up to four
# recovery sub-tables, with slack.  A raised error is not cached.
@lru_cache(maxsize=16)
def _transcript_table(params: ProtocolParams, weights: PovmWeights,
                      deterministic: bool) -> _TranscriptTable:
    """Walk the protocol's attempt on the probe, one deviate per bin.

    :func:`~entrot.protocol._walk` shares prefixes, so steps 1-3 run
    once, for the one sign bin, and the POVM once per branch bin.  Walk
    columns 1 and 2 (branch and ``b``) are table columns 0 and 1.  A
    plain table has only the branch column, offers the failure's ``b``
    as one whole bin and leaves those leaves NaN.  A failure's recovery
    depends only on the ``b`` outcome; its sub-table is this walk of the
    recovery attempt, which the memo builds once per outcome, with its
    one column, the recovery's branch, spliced in as the last and its
    leaves multiplied into the failure's.  A column a transcript does
    not consult repeats the leaf along its axis.
    Raises ``ValueError`` for a non-positive POVM (from the POVM step),
    and when a leaf's probability or diagonal breaks the premise.
    """
    edges = [(weights.x, weights.x + weights.y)]
    if deterministic:
        # columns 1 and 2 stay one whole bin until a failure cuts them at
        # the b threshold and at the recovery attempt's own branch edges
        edges += [(1.0,), (1.0, 1.0)]
    # a leading axis of one bin for the sign, so the walk's bins index it
    shape = (1, *(len(e) + 1 for e in edges))
    phases = np.full(shape + (4,), np.nan, dtype=complex)
    branch = np.zeros(shape, dtype=np.int64)
    bell = np.zeros(shape, dtype=np.int64)

    def pick(column, povm):
        if column == 2 and deterministic:
            edges[1] = (_failure_law(povm)[0],)
        # the sign, and a plain table's b, are one whole bin and no column
        return _bins(edges[column - 1] if 0 < column <= len(edges) else ())

    for bins, got, _, state, _, owed in _walk(params, weights, _PROBE, pick):
        branch[bins[:2]] = got
        if owed is None:
            phases[bins] = _reading(state)
        elif deterministic:
            phases[bins] = _reading(state)
            attempt = _recovery(owed)
            if attempt is not None:
                sub = _transcript_table(*attempt, False)
                edges[2:] = sub.edges
                phases[bins] *= sub.phases
                bell[bins] = 1  # the recovery's resource, a Bell pair

    # Bin widths are clipped at 0, so each column's widths sum to at least
    # 1, with equality only for ordered edges in [0, 1].  Leaf
    # probabilities summing to 1 are therefore also finite and in [0, 1].
    prob = reduce(np.multiply.outer, [
        np.array([max(hi - lo, 0.0) for lo, hi in pairwise((0.0, *e, 1.0))])
        for e in edges])
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
    phases = phases.reshape(-1, 4)
    return _TranscriptTable(
        edges=tuple(_frozen(np.array(e, dtype=float)) for e in edges),
        cuts=tuple(_frozen(np.array([_word(x) for x in e if x < 1.0],
                                    dtype=np.uint64)) for e in edges),
        branch=_frozen(branch.reshape(-1)), bell=_frozen(bell.reshape(-1)),
        phases=_frozen(phases), overlap=_frozen(target.conj() * phases))


def _leaves(table: _TranscriptTable, words: np.ndarray) -> np.ndarray:
    """The leaf each row of raw words ``words`` picks, in the smallest
    unsigned dtype that holds every leaf index."""
    leaf = np.zeros(words.shape[0],
                    dtype=np.min_scalar_type(table.branch.size - 1))
    for col, (edges, cuts) in enumerate(zip(table.edges, table.cuts)):
        w = words[:, col]
        leaf *= edges.size + 1
        for cut in cuts:
            leaf += w >= cut
    return leaf


def _leaf_fidelity(overlap: np.ndarray,
                   weight: np.ndarray | None = None) -> np.ndarray:
    """Fidelity of each leaf, one per row ``c`` of ``overlap``.

    A leaf maps an input ``phi`` to ``d * phi``, so against the target
    applied to ``phi`` its fidelity is ``|sum_k w_k c_k|^2`` with basis
    weights ``w_k = |phi_k|^2``: exact for the fixed ``weight``.  With
    ``weight=None`` it is averaged over Haar inputs, whose weights are
    Dirichlet(1, 1, 1, 1) with ``E[w_k w_l] = (1 + delta_kl) / 20``.  NaN
    for a leaf whose ``c`` is NaN (a failure left unrecovered).
    """
    if weight is None:
        total = overlap.sum(axis=1)
        return (total.real ** 2 + total.imag ** 2
                + (overlap.real ** 2 + overlap.imag ** 2).sum(axis=1)) / 20.0
    total = overlap @ weight
    return total.real ** 2 + total.imag ** 2


@dataclass(frozen=True)
class SummaryStats:
    """Aggregates over a batch of protocol attempts.

    ``mean_fidelity`` is against the target gate and averages over the
    trials that finish with it applied: the success branches, plus
    recovered failures in deterministic mode (where it covers every
    trial).  Each such trial contributes its fidelity given its
    transcript: exact for a fixed input, and averaged over Haar inputs
    otherwise.  It is None when no trial finished.  ``empirical_p``
    counts branches 1-2 over all trials; ``z_score`` compares it with
    ``analytic_p = x + y``, capped at 1, under the binomial standard
    error: 0 when they agree at a certain law, infinite when they differ.
    ``mean_ebits`` is the resource entropy plus Bell pairs spent per
    trial.
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
    ``input_state=None`` the data state of every trial is Haar-random,
    and the fidelity is averaged over it exactly; otherwise the given
    state (on qubits ``A``, ``B``) is reused.  The decision words are
    the only draws, from one stream derived from ``seed``, so results
    are reproducible and independent of chunking, and every count is
    the same for any input.
    """
    if not isinstance(trials, (int, np.integer)) or isinstance(trials, bool):
        raise TypeError(f"trials must be an integer, got {type(trials).__name__}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    trials = int(trials)
    fixed_weight = None
    if input_state is not None:
        _check_input(input_state)
        fixed_weight = np.abs(input_state.permuted(("A", "B")).amps) ** 2
    bits = _rng_from_seed(seed, _DECISION_CHANNEL).bit_generator
    if weights is None:
        weights = optimum(params).weights
    table = _transcript_table(params, weights, deterministic)

    hist = np.zeros(table.branch.size, dtype=np.int64)
    for done in range(0, trials, _CHUNK):
        n = min(_CHUNK, trials - done)
        words = bits.random_raw(len(table.edges) * n).reshape(n, -1)
        hist += np.bincount(_leaves(table, words), minlength=hist.size)

    counts = [int(hist[table.branch == b].sum()) for b in (1, 2, 3)]
    reached = np.flatnonzero(hist)
    fid = _leaf_fidelity(table.overlap[reached], fixed_weight)
    have = ~np.isnan(fid)
    finished = hist[reached[have]]
    fid_units = _fid_units(finished, fid[have])
    fid_n = int(finished.sum())

    success = counts[0] + counts[1]
    empirical_p = success / trials
    analytic_p = weights.x + weights.y
    # x + y may round above 1, and a tiny law's variance may underflow
    law = min(analytic_p, 1.0)
    var = law * (1.0 - law) / trials
    se = (math.sqrt(var) if var >= sys.float_info.min
          else math.sqrt(law) * math.sqrt((1.0 - law) / trials))
    gap = empirical_p - law
    z = gap / se if se else math.copysign(math.inf, gap) if gap else 0.0
    mean_bell = int(hist @ table.bell) / trials
    return SummaryStats(
        params=params, weights=weights, trials=trials, seed=int(seed),
        deterministic=deterministic,
        branch_counts=tuple(counts),
        success_count=success, empirical_p=empirical_p,
        analytic_p=analytic_p, z_score=z,
        mean_fidelity=(fid_units / (fid_n << _FID_BITS)) if fid_n else None,
        mean_bell_pairs=mean_bell,
        mean_ebits=resource_entropy(params.alpha) + mean_bell)
