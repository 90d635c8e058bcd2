"""Batched sampling engine: agreement with single runs and statistics."""

import dataclasses
import json
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrot import montecarlo, protocol
from entrot.cli import main
from entrot.entanglement import average_cost, resource_entropy
from entrot.montecarlo import SummaryStats, monte_carlo
from entrot.povm import (HALF_PI, PovmWeights, ProtocolParams, build_povm,
                         optimum)
from entrot.protocol import (_execute, _failure_law, _recovery,
                             _rng_from_seed, controlled_rotation,
                             recover_with_bell, run_once, wrap_angle)
from entrot.qmath import (StateVector, apply_gate, fidelity, haar_state,
                          psd_sqrt2)


def scaled_weights(params, factor):
    best = optimum(params)
    return PovmWeights(best.x * factor, best.y * factor)


def engine_words(seed, m):
    """The first ``m`` raw words of the decision stream of ``seed``."""
    bits = _rng_from_seed(seed, montecarlo._DECISION_CHANNEL).bit_generator
    return bits.random_raw(m)


def engine_streams(seed, n, table, deterministic):
    """The raw decision words ``monte_carlo`` reads on ``table`` for ``n``
    trials, one row per trial and one column per table column.  Column 0,
    the branch, is the stream's first ``n`` words.  In deterministic mode
    the ``j``-th failure (a branch word in a bin that ``table.leaf`` sends
    to leaf 2, where the table has a failure level) reads the ``j``-th
    word pair after them as its ``b`` and recovery branch.  A success,
    and a plain failure, read no more words: their tail comes from
    :func:`other_deviates`, so it may move no leaf."""
    k = len(table.edges)
    words = engine_words(seed, 3 * n)
    rows = other_deviates(seed, n, k)
    rows = (rows * 2.0 ** 53).astype(np.uint64) << np.uint64(11)
    rows[:, 0] = words[:n]
    if deterministic and k > 1:
        fail = table.leaf[(words[:n, None] >= table.cuts[0]).sum(axis=1)] == 2
        rows[fail, 1:] = words[n:n + 2 * fail.sum()].reshape(-1, 2)
    return rows


def tree_leaves(table, words, deterministic):
    """The leaf each row of raw words picks in one mode: the leaf of its
    branch bin, and in deterministic mode, for a failure (leaf 2), leaf 3
    plus the failure leaf its ``b`` and recovery-branch words pick."""
    leaf = table.leaf[(words[:, :1] >= table.cuts[0]).sum(axis=1)]
    if deterministic and len(table.edges) > 1:
        fail = leaf == 2
        leaf[fail] = 3 + montecarlo._leaves(table, words[fail, 1:])
    return leaf


def leaf_branch(leaf):
    """The branch of each leaf: leaf ``k < 3`` is branch ``k + 1``, and
    every leaf of the failure level is branch 3."""
    return np.minimum(leaf, 2) + 1


def deviates(words):
    """The doubles ``Generator.random`` makes of raw Philox words."""
    return (words >> 11) * 2.0 ** -53


def input_normals(seed, n):
    """``haar_state`` normals for ``n`` test inputs, from a stream of
    ``seed`` (tag 2) disjoint from the engine's decision deviates."""
    return _rng_from_seed(seed, 2).standard_normal((n, 8))


def other_deviates(seed, n, k):
    """``k`` deviates per trial for the draws the engine does not read
    (the signs, and the tail of a success or of a plain failure), from a
    stream of ``seed`` (tag 3) disjoint from the engine's and the
    inputs'."""
    return _rng_from_seed(seed, 3).random((n, k))


def single_run_draws(seed, draws):
    """The five ``_execute`` draws of each trial whose table deviates are
    the rows of ``draws``: table columns 0, 1 and 2 are the branch, ``b``
    and recovery branch (layout columns 1, 2 and 4), and every other
    column comes from :func:`other_deviates`."""
    n, k = draws.shape
    runs = other_deviates(seed, n, 5)
    runs[:, [1, 2, 4][:k]] = draws
    return runs


# ------------------------------------------- engine equivalence

#: (theta, alpha, weight scale or None for the optimum, fixed basis input
#: or None for Haar inputs, the branches that must occur)
EQUIVALENCE_CASES = {
    "case_II_y_zero": (math.pi / 4, math.pi / 6, None, None, {1, 3}),
    "case_I": (0.45 * math.pi, 0.35 * math.pi, None, None, {1, 2, 3}),
    "scaled_weights": (0.42 * math.pi, 0.31 * math.pi, 0.85, None, {1, 2, 3}),
    "bell_resource": (0.4 * math.pi, math.pi / 2, None, None, {1, 2}),
    "zero_weights": (0.3 * math.pi, 0.2 * math.pi, 0.0, None, {3}),
    "basis_input": (0.42 * math.pi, 0.31 * math.pi, 0.85, "10", {1, 2, 3}),
    # E3 = 0.3 I, so the b = 1 residual is theta_f = pi: nothing remains
    "bell_half_turn": (math.pi, math.pi / 2, 0.7, None, {1, 2, 3}),
}


def case_point(case):
    """The parameters and POVM weights of an equivalence case."""
    theta, alpha, scale, _, _ = EQUIVALENCE_CASES[case]
    params = ProtocolParams(theta, alpha)
    w = optimum(params).weights if scale is None else scaled_weights(params,
                                                                     scale)
    return params, w


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("case", EQUIVALENCE_CASES)
def test_matches_single_run_engine_trial_by_trial(case, deterministic):
    """Same deviates in, same branches and spending out; the leaf's
    fidelity on each trial's own input is the single run's."""
    _, _, _, basis, branches = EQUIVALENCE_CASES[case]
    params, w = case_point(case)
    n, seed = 300, 77
    table = montecarlo._transcript_table(params, w)

    # the stream's words and numpy's own doubles of them agree bit for
    # bit: the table's word cuts rely on this
    numpy_draws = _rng_from_seed(seed, montecarlo._DECISION_CHANNEL).random(
        3 * n)
    assert np.array_equal(deviates(engine_words(seed, 3 * n)).view(np.uint64),
                          numpy_draws.view(np.uint64))
    words = engine_streams(seed, n, table, deterministic)
    draws = deviates(words)
    # the signs come from another stream, so no sign may move a leaf
    runs = single_run_draws(seed, draws)
    if basis is None:
        states = [haar_state(("A", "B"), z) for z in input_normals(seed, n)]
    else:
        states = [StateVector.basis(("A", "B"), basis)] * n

    leaf = tree_leaves(table, words, deterministic)
    assert set(leaf_branch(leaf).tolist()) == branches

    gate = controlled_rotation(params.theta)
    for i, state in enumerate(states):
        out = _execute(params, w, state, runs[i], deterministic, seed=0)
        assert out.branch == leaf_branch(leaf[i])
        assert out.bell_pairs_consumed == table.bell[leaf[i]]
        fid = montecarlo._leaf_fidelity(table.overlap[leaf[i:i + 1]],
                                        np.abs(state.amps) ** 2)[0]
        if out.branch == 3 and not deterministic:
            # leaf 2, the failure left unrecovered, has no diagonal
            assert leaf[i] == 2 and math.isnan(fid)
            assert out.residual is not None
        else:
            want = fidelity(apply_gate(state, gate, ("A", "B")),
                            out.final_state)
            assert fid == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("case", ["case_II_y_zero", "case_I",
                                  "scaled_weights", "bell_half_turn"])
def test_a_trial_reads_its_branch_word_and_a_failure_a_word_pair(
        case, deterministic):
    """``monte_carlo`` reads trial ``i``'s branch from word ``i`` of the
    decision stream and, in deterministic mode, the ``j``-th failure's
    ``b`` and recovery branch from the ``j``-th word pair after the
    branch words, over several blocks: its counts, Bell pairs and mean
    fidelity are those of the leaves the words pick, bit for bit."""
    params, w = case_point(case)
    n, seed = 2 * montecarlo._CHUNK + 123, 19
    got = monte_carlo(params, n, seed, weights=w, deterministic=deterministic)
    table = montecarlo._transcript_table(params, w)
    assert len(table.edges) == 3
    leaf = tree_leaves(table, engine_streams(seed, n, table, deterministic),
                       deterministic)
    hist = np.bincount(leaf, minlength=table.prob.size)
    counts = tuple(np.bincount(leaf_branch(leaf), minlength=4)[1:].tolist())
    # a trial finishes the gate on any leaf but leaf 2
    reached = np.flatnonzero(hist)
    reached = reached[reached != 2]
    finished = hist[reached]
    fid = montecarlo._leaf_fidelity(table.overlap[reached])
    want = dataclasses.replace(
        got, branch_counts=counts, success_count=counts[0] + counts[1],
        empirical_p=(counts[0] + counts[1]) / n,
        mean_bell_pairs=int(hist @ table.bell) / n,
        mean_fidelity=montecarlo._fid_units(finished, fid)
        / (int(finished.sum()) << montecarlo._FID_BITS))
    assert got == want


@pytest.mark.parametrize("case", EQUIVALENCE_CASES)
def test_deterministic_branch_counts_are_the_plain_ones(case):
    """Both modes read each trial's branch from the same word, so at one
    seed and weights they count the same branches."""
    params, w = case_point(case)
    for n, seed in ((1, 3), (5000, 8), (2 * montecarlo._CHUNK + 7, 9)):
        plain = monte_carlo(params, n, seed, weights=w)
        det = monte_carlo(params, n, seed, weights=w, deterministic=True)
        assert det.branch_counts == plain.branch_counts
        assert det.z_score == plain.z_score


#: Edges at and next to the ends of [0, 1], and the middle.
WORD_EDGES = [0.0, 1.0, 0.5, 2.0 ** -1074, 1.0 - 2.0 ** -53]


def _case_edges():
    """Every edge of every equivalence case's table."""
    return {float(e) for case in EQUIVALENCE_CASES
            for col in montecarlo._transcript_table(*case_point(case)).edges
            for e in col}


# -0.0 goes in by hand, as the set would fold it into 0.0
@pytest.mark.parametrize("edge",
                         [-0.0, *sorted(set(WORD_EDGES) | _case_edges())])
def test_word_cut_is_exact_at_the_edge(edge):
    """A raw word reaches an edge's cut exactly when its deviate reaches
    the edge, on both sides of the cut and of the deviate steps next to
    it; at 0.0 and -0.0 that cut is word 0.  An edge at or above 1 has
    no cut: no word's deviate reaches 1."""
    if edge >= 1.0:
        assert deviates(np.uint64(2 ** 64 - 1)) < 1.0
        return
    cut = montecarlo._word(edge)
    assert 0 <= cut < 2 ** 64 and (cut == 0) == (edge == 0.0)
    words = [w for w in (cut - 2 ** 11, cut - 1, cut, cut + 2 ** 11 - 1,
                         cut + 2 ** 11) if 0 <= w < 2 ** 64]
    for w in words:
        assert ((w >> 11) * 2.0 ** -53 >= edge) == (w >= cut), w
    as_array = np.array(words, dtype=np.uint64)
    assert np.array_equal(deviates(as_array) >= edge,
                          as_array >= np.uint64(cut))


def float_failure_leaves(table, draws):
    """The failure leaf ``3b + r`` each row of deviates ``draws`` picks at
    the float edges of the ``b`` and recovery-branch columns 1 and 2."""
    b, r = ((draws[:, col, None] >= table.edges[col]).sum(axis=1)
            for col in (1, 2))
    return 3 * b + r


def float_leaves(table, draws, deterministic):
    """The leaf each row of deviates ``draws`` picks at the float edges."""
    leaf = table.leaf[(draws[:, :1] >= table.edges[0]).sum(axis=1)]
    if deterministic and len(table.edges) > 1:
        fail = leaf == 2
        leaf[fail] = 3 + float_failure_leaves(table, draws[fail])
    return leaf


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("case", EQUIVALENCE_CASES)
def test_word_leaves_are_the_deviate_leaves(case, deterministic):
    """A table's cuts are its edges below 1 as words.  On 1e5 seeded rows,
    and on rows of words at and next to every cut, the words pick the
    leaf their deviates pick, in the tree and on the failure level."""
    table = montecarlo._transcript_table(*case_point(case))
    for edges, cuts in zip(table.edges, table.cuts):
        assert cuts.dtype == np.uint64
        assert cuts.tolist() == [montecarlo._word(e) for e in edges
                                 if e < 1.0]
    near = sorted({c + d for cuts in table.cuts for c in cuts.tolist()
                   for d in (-2 ** 11, -1, 0, 2 ** 11 - 1, 2 ** 11)
                   if 0 <= c + d < 2 ** 64})
    k = len(table.edges)
    words = np.concatenate([
        engine_streams(list(EQUIVALENCE_CASES).index(case), 100_000, table,
                       deterministic),
        np.repeat(np.array(near, dtype=np.uint64)[:, None], k, axis=1)])
    draws = deviates(words)
    assert np.array_equal(tree_leaves(table, words, deterministic),
                          float_leaves(table, draws, deterministic))
    if k > 1:
        leaf = montecarlo._leaves(table, words[:, 1:])
        assert leaf.dtype == np.uint8
        assert np.array_equal(leaf, float_failure_leaves(table, draws))


@pytest.fixture(scope="module")
def haar_weights():
    """Basis weights of 20 000 inputs from entrot's own Haar sampler."""
    return np.array([np.abs(haar_state(("A", "B"), z).amps) ** 2
                     for z in input_normals(31, 20_000)])


@pytest.mark.parametrize("delta", [0.3, 1.1, math.pi / 2, math.pi - 0.2])
def test_haar_average_of_a_residual_gate(delta, haar_weights):
    """A leaf that applies the target up to a residual gate of angle
    ``delta`` has ``c_k = exp(-i delta s_k / 2)``, s = (1, -1, -1, 1).
    Its fidelity varies with the input, so the Haar average has to
    carry the second moments of the input weights:
    ``1 - (4/5) sin^2(delta / 2)``, and the sample mean agrees."""
    c = np.exp(-0.5j * delta * np.array([1.0, -1.0, -1.0, 1.0]))
    mean = montecarlo._leaf_fidelity(c[None, :])[0]
    assert mean == pytest.approx(1.0 - 0.8 * math.sin(delta / 2) ** 2,
                                 abs=1e-15)
    sample = np.abs(haar_weights @ c) ** 2
    se = sample.std(ddof=1) / math.sqrt(sample.size)
    assert abs(sample.mean() - mean) < 5 * se
    # on one fixed input, the leaf's fidelity is the states' own
    for z in input_normals(32, 50):
        phi = haar_state(("A", "B"), z)
        exact = montecarlo._leaf_fidelity(c[None, :], np.abs(phi.amps) ** 2)
        assert exact[0] == pytest.approx(
            fidelity(phi, StateVector(("A", "B"), c * phi.amps)), abs=1e-12)


def _born_thresholds(theta, alpha, weights, phi, u_sign):
    """Steps 1-4 simulated on every row of ``phi``, the way a
    state-simulating engine thresholds its deviates: the sign is +1 where
    ``u_sign`` is below p(+1) of each trial's own state, as in a single
    run, and after it come the branch thresholds ``(p1, p1 + p2)`` and
    the register (n, A, B, b) the POVM acts on."""
    c, s = math.cos(alpha / 2), math.sin(alpha / 2)
    pair = np.array([[c, 0.0], [0.0, 1j * s]])            # (a, b)
    reg = np.einsum("ab,nxy->naxyb", pair, phi.reshape(-1, 2, 2))
    reg[:, 1, 1] *= -1.0                                  # CZ on (a, A)
    arms = ((reg[:, 0] + reg[:, 1]) / math.sqrt(2),       # <+|_a, <-|_a
            (reg[:, 0] - reg[:, 1]) / math.sqrt(2))
    p_arm = [np.sum(np.abs(arm) ** 2, axis=(1, 2, 3)) for arm in arms]
    plus = u_sign < p_arm[0] / (p_arm[0] + p_arm[1])
    reg = np.where(plus[:, None, None, None], arms[0], arms[1])
    reg = reg / np.sqrt(np.sum(np.abs(reg) ** 2, axis=(1, 2, 3)))[:, None,
                                                                  None, None]
    reg[~plus, :, :, 1] *= -1.0                           # Bob's sz after -1
    reg[:, :, 1, 1] *= -1.0                               # CZ on (B, b)
    povm = build_povm(ProtocolParams(theta, alpha), weights)
    p1, p2 = (np.einsum("nxyb,bc,nxyc->n", reg.conj(), e, reg).real
              for e in (povm.e1, povm.e2))
    return np.stack([p1, p1 + p2], axis=1), reg, povm


def _bin(u, edges):
    return (u[:, None] >= edges).sum(axis=1)


@pytest.mark.parametrize("theta,alpha", [
    (math.pi / 4, math.pi / 6),
    (0.45 * math.pi, 0.35 * math.pi),
    (0.4 * math.pi, math.pi / 2),
], ids=["case_II", "case_I", "bell_resource"])
def test_constant_thresholds_match_born_weights(theta, alpha):
    """The table thresholds every draw at a constant probability, where
    a state simulation thresholds it at the Born weight of each trial's
    own state.  Over 2**17 Haar trials no draw may land between the two,
    on any column the transcript consults (recovery included).  The
    table has no sign column: each trial's signs are drawn from another
    stream, by the single run's rule."""
    params = ProtocolParams(theta, alpha)
    w = optimum(params).weights
    table = montecarlo._transcript_table(params, w)
    branch_e = table.edges[0]
    n = 1 << 17
    draws = deviates(engine_streams(5, n, table, deterministic=True))
    signs = other_deviates(5, n, 2)
    z = input_normals(5, n)
    phi = z[:, :4] + 1j * z[:, 4:]
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)

    t_branch, reg, povm = _born_thresholds(theta, alpha, w, phi, signs[:, 0])
    old = (draws[:, 0:1] >= t_branch).sum(axis=1)
    new = _bin(draws[:, 0], branch_e)
    mismatches = int(np.sum(old != new))

    fail = np.flatnonzero(new == 2)
    if fail.size:
        _, b_e, rbranch_e = table.edges
        k3 = psd_sqrt2(povm.e3)
        m = np.einsum("cb,nxyb->nxyc", k3, reg[fail])
        pb = np.sum(np.abs(m) ** 2, axis=(1, 2))
        j_new = _bin(draws[fail, 1], b_e)
        mismatches += int(np.sum((draws[fail, 1] >= pb[:, 0] / pb.sum(1))
                                 != j_new))
        r = k3.real
        for j in (0, 1):
            rows = fail[j_new == j]
            theta_f = wrap_angle(2.0 * math.atan2(
                r[j, 1] * params.sin_half_alpha,
                r[j, 0] * params.cos_half_alpha))
            rem = wrap_angle(theta - theta_f)
            if rows.size == 0 or rem == 0.0:
                continue
            cond = m[j_new == j][..., j].reshape(-1, 4)
            cond /= np.linalg.norm(cond, axis=1, keepdims=True)
            t_rbranch, _, _ = _born_thresholds(
                rem, math.pi / 2, PovmWeights(0.5, 0.5), cond, signs[rows, 1])
            mismatches += int(np.sum(
                (draws[rows, 2:3] >= t_rbranch).sum(axis=1)
                != _bin(draws[rows, 2], rbranch_e)))
    assert mismatches == 0


#: Rotations a failure may leave owed, each with a recovery attempt.
OWED = [0.3, -2.9, math.pi, 1e-300, -1e-9]


@pytest.mark.parametrize("remaining", OWED)
def test_walked_recovery_is_the_public_recovery(remaining):
    """A failure's recovery sub-table is the transcript table of the
    recovery attempt.  Each live leaf's diagonal is, bit for bit, what
    ``recover_with_bell`` does to the probe at that leaf's branch deviate,
    for either sign: both of a branch's signs land on its one leaf."""
    sub = montecarlo._transcript_table(*_recovery(remaining))
    (edges,) = sub.edges
    leaves = set()
    for u_povm in (0.25, 0.75):
        leaf = int((u_povm >= edges).sum())
        leaves.add(leaf)
        for u_x in (0.25, 0.75):
            state, _, pairs = recover_with_bell(montecarlo._PROBE, remaining,
                                                u_x, u_povm)
            assert pairs == 1 and sub.bell[leaf] == 0
            assert np.array_equal(sub.phases[leaf], montecarlo._reading(state))
    assert len(leaves) == 2
    assert _recovery(0.0) is None and _recovery(-0.0) is None


def sign_subtrees(params, weights, deterministic):
    """Walk an attempt on the probe with both of Alice's signs offered,
    and each later column cut as the table cuts it.  Per sign, maps the
    bins after the sign's to the leaf's branch, owed rotation (hex) and
    diagonal."""
    def pick(column, povm):
        edges = [(0.5,), (weights.x, weights.x + weights.y),
                 (_failure_law(povm)[0],) if deterministic else ()]
        return montecarlo._bins(edges[column])

    subtrees = ({}, {})
    for bins, branch, _, state, _, owed in montecarlo._walk(
            params, weights, montecarlo._PROBE, pick):
        subtrees[bins[0]][bins[1:]] = (
            branch, None if owed is None else owed.hex(),
            montecarlo._reading(state))
    return subtrees


def assert_one_sign_suffices(params, weights, deterministic):
    """Both signs give the same leaves, bit for bit; returns the
    rotations the failures owe."""
    plus, minus = sign_subtrees(params, weights, deterministic)
    assert plus and plus.keys() == minus.keys()
    for bins, (branch, owed, diagonal) in plus.items():
        assert minus[bins][:2] == (branch, owed)
        assert np.array_equal(minus[bins][2], diagonal)
    return {float.fromhex(owed) for _, owed, _ in plus.values() if owed}


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("case", EQUIVALENCE_CASES)
def test_alices_sign_never_changes_a_leaf(case, deterministic):
    """The premise of the table's one sign bin: Alice's -1 arm is her +1
    arm with its ``b = 1`` amplitudes negated, and Bob's ``sz`` negates
    them back exactly.  So the two sign subtrees agree in every branch,
    owed rotation and diagonal, and so do those of each recovery."""
    owed = assert_one_sign_suffices(*case_point(case), deterministic)
    for remaining in owed if deterministic else ():
        attempt = _recovery(remaining)
        if attempt is not None:
            assert_one_sign_suffices(*attempt, False)


@pytest.mark.parametrize("remaining", OWED)
def test_a_recovery_sign_never_changes_a_leaf(remaining):
    assert_one_sign_suffices(*_recovery(remaining), False)


@pytest.mark.parametrize("deterministic,cells", [(False, 3), (True, 18)])
def test_a_sign_is_one_bin(deterministic, cells):
    """The table walks one sign per attempt and cuts no column for it.
    Its first column is the branch, cut at ``(x, x + y)`` into three
    bins, and ``leaf`` sends each bin to the leaf of the branch the walk
    returned there: leaf ``k < 3`` is branch ``k + 1``, with that
    branch's diagonal.  Where the walk fails, leaf 2 is reached and a
    failure level follows: the failure's ``b`` (one edge) and the
    recovery's branch (two), whose leaves ``3 + 3b + r`` make 9 in all.
    A recovery attempt never fails, so its table is the branch level
    alone.  Both modes read this one tree: a plain call its branch
    column, 3 cells, and a deterministic call at a failing point every
    column, ``3 * 2 * 3 = 18`` cells, whose failure cells
    :func:`_leaves` sends one to one onto leaves 3-8."""
    points = ([case_point(case) for case in EQUIVALENCE_CASES]
              + [_recovery(remaining) for remaining in OWED])
    for params, w in points:
        table = montecarlo._transcript_table(params, w)
        walked, _ = sign_subtrees(params, w, False)
        for bins, (branch, _, diagonal) in walked.items():
            assert table.leaf[bins[0]] == branch - 1
            if branch != 3:
                assert np.array_equal(table.phases[branch - 1], diagonal)
        fails = table.prob[2] > 0.0
        assert fails == any(b == 3 for b, _, _ in walked.values())
        sizes = [2, 1, 2] if fails else [2]
        assert [e.size for e in table.edges] == sizes
        assert len(table.cuts) == len(sizes)
        assert table.edges[0].tolist() == [w.x, w.x + w.y]
        leaves = 9 if fails else 3
        assert table.leaf.size == 3
        assert all(len(a) == leaves for a in (
            table.prob, table.bell, table.phases, table.overlap))
        read = table.edges if deterministic else table.edges[:1]
        assert math.prod(e.size + 1 for e in read) == (
            cells if fails else 3)
        if deterministic and fails:
            # the least word of each nonempty bin of the b and recovery
            # columns
            b, r = (np.unique(np.append(np.uint64(0), c))
                    for c in table.cuts[1:])
            words = np.array([[u, v] for u in b for v in r], np.uint64)
            leaf = montecarlo._leaves(table, words)
            assert len(set(leaf.tolist())) == len(words)
            assert set(leaf.tolist()) <= set(range(6))
    for remaining in OWED:
        assert len(montecarlo._transcript_table(*_recovery(remaining)).edges
                   ) == 1


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("case", ["case_II_y_zero", "case_I",
                                  "bell_half_turn"])
def test_failures_read_one_failure_law(case, deterministic):
    """A failed run's residual angle and the table's ``b`` threshold are
    both the failure law's, bit for bit."""
    params, w = case_point(case)
    weight, theta_f = _failure_law(build_povm(params, w))
    table = montecarlo._transcript_table(params, w)
    assert [e.hex() for e in table.edges[1]] == [weight.hex()]
    outcomes = set()
    for seed, z in enumerate(input_normals(11, 64)):
        out = run_once(params, w, haar_state(("A", "B"), z), seed,
                       deterministic)
        if out.residual is not None:
            b = out.residual.b_outcome
            assert out.residual.theta_f.hex() == theta_f[b].hex()
            outcomes.add(b)
    assert outcomes == {0, 1}


def reached(table, deterministic):
    """The leaves a trial can reach in one mode: the branch leaves in a
    plain call, and in a deterministic one every leaf but leaf 2 where
    the table has a failure level."""
    leaves = np.arange(table.prob.size)
    return leaves != 2 if deterministic and leaves.size > 3 else leaves < 3


@pytest.mark.parametrize("case", EQUIVALENCE_CASES)
def test_leaf_law_sums_to_1_in_each_mode(case):
    """``prob`` is a law over the leaves each mode reaches.  A Bell pair
    is spent exactly by a failure that owes a rotation, so ``prob @
    bell`` is the failure rate ``1 - min(x + y, 1)`` where every
    failure owes one, and less where some failure owes nothing."""
    params, w = case_point(case)
    table = montecarlo._transcript_table(params, w)
    assert (table.prob >= 0.0).all()
    for deterministic in (False, True):
        assert table.prob[reached(table, deterministic)].sum() == \
            pytest.approx(1.0, abs=1e-15)
    weight, theta_f = _failure_law(build_povm(params, w))
    owes = [wrap_angle(params.theta - t) != 0.0 for t, p in
            zip(theta_f, (weight, 1.0 - weight)) if p > 0.0]
    rate = 1.0 - min(w.x + w.y, 1.0)
    if all(owes):
        assert table.prob @ table.bell == pytest.approx(rate, abs=1e-15)
    else:
        assert table.prob @ table.bell < rate


#: 0.999 quantiles of the chi-square law, by degrees of freedom.
CHI2_999 = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515,
            6: 22.458, 7: 24.322, 8: 26.124}


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("case", ["case_II_y_zero", "case_I"])
def test_leaf_counts_follow_the_leaf_law(case, deterministic):
    """At a fixed seed, the leaves the engine's words pick over 2e5
    trials pass a chi-square test against ``prob`` at the 0.999 level,
    and no trial reaches a leaf the mode's law gives probability 0."""
    table = montecarlo._transcript_table(*case_point(case))
    n = 200_000
    leaf = tree_leaves(table, engine_streams(23, n, table, deterministic),
                       deterministic)
    hist = np.bincount(leaf, minlength=table.prob.size)
    law = np.where(reached(table, deterministic), table.prob, 0.0)
    assert not hist[law == 0.0].any()
    live = law > 0.0
    want = n * law[live]
    chi2 = float(((hist[live] - want) ** 2 / want).sum())
    assert chi2 < CHI2_999[int(live.sum()) - 1]


def test_a_folded_failure_bin_makes_no_failure_level():
    """At (1e-13, 0.3) the optimum leaves a failure bin about 1e-13
    wide, and on the probe the POVM step folds that vanishing branch
    into a success.  The walk yields no failure, so the bin's width goes
    to a success leaf, leaf 2 is never reached and the table has no
    failure level, and a deterministic call is the plain call but for
    its mode.  The converse holds at :data:`FAILING_SUCCESS_BIN`: its
    one-unit bin 1 fails on the probe, so it is sent to leaf 2 and the
    point has a failure level."""
    params = ProtocolParams(1e-13, 0.3)
    w = optimum(params).weights
    table = montecarlo._transcript_table(params, w)
    assert table.leaf[2] in (0, 1) and table.prob[2] == 0.0
    assert table.prob[table.leaf[2]] > 0.0
    assert table.prob[:2].sum() == pytest.approx(1.0, abs=1e-15)
    assert len(table.edges) == 1 and table.prob.size == 3
    for n, seed in ((64, 64), (5000, 3)):
        plain = monte_carlo(params, n, seed)
        det = monte_carlo(params, n, seed, deterministic=True)
        assert det == dataclasses.replace(plain, deterministic=True)
    table = montecarlo._transcript_table(*FAILING_SUCCESS_BIN)
    assert table.leaf.tolist() == [0, 2, 2] and table.prob[1] == 0.0
    assert len(table.edges) == 3 and table.prob.size == 9


#: Custom weights whose ``y`` is within round-off of 0: branch bin 1 is
#: one word unit wide, and on the probe the walk fails there.
FAILING_SUCCESS_BIN = (ProtocolParams(1.0005370787536199, 0.4237799789983536),
                       PovmWeights(0.16646132067112823, 7.392367636743923e-17))


@pytest.mark.parametrize("n", [1, 5000])
def test_a_failing_success_bin_is_recovered(monkeypatch, n):
    """Every branch word at the first word of bin 1, a bin whose walk
    returns branch 3 (a single run at that deviate fails and spends one
    Bell pair): a plain call counts every trial as an unrecovered
    failure, and a deterministic call recovers every one of them with a
    Bell pair, reading its word pairs from a real stream."""
    params, w = FAILING_SUCCESS_BIN
    table = montecarlo._transcript_table(params, w)
    first = int(table.cuts[0][0])
    assert int(table.cuts[0][1]) - first == 1 << 11
    out = _execute(params, w, StateVector.basis(("A", "B"), "10"),
                   [0.5, deviates(np.uint64(first)), 0.5, 0.5, 0.5],
                   True, seed=0)
    assert out.branch == 3 and out.bell_pairs_consumed == 1

    def stream(seed, channel):
        real = _rng_from_seed(seed, channel).bit_generator
        left = [n]

        def random_raw(size):
            head = min(size, left[0])
            left[0] -= head
            return np.concatenate([np.full(head, first, np.uint64),
                                   real.random_raw(size - head)])
        return types.SimpleNamespace(
            bit_generator=types.SimpleNamespace(random_raw=random_raw))

    monkeypatch.setattr(montecarlo, "_rng_from_seed", stream)
    plain = monte_carlo(params, n, 5, weights=w)
    assert plain.branch_counts == (0, 0, n) and plain.mean_fidelity is None
    det = monte_carlo(params, n, 5, weights=w, deterministic=True)
    assert det.branch_counts == (0, 0, n)
    assert det.mean_bell_pairs == 1.0
    assert det.mean_fidelity >= 1 - 1e-12


@pytest.fixture
def fresh_tables():
    """An empty table memo, so that a patched step really runs, and no
    table built under a patch outlives the test."""
    montecarlo._transcript_table.cache_clear()
    yield
    montecarlo._transcript_table.cache_clear()


def test_table_rejects_a_leaf_that_is_not_diagonal(monkeypatch,
                                                   fresh_tables):
    def scrambled(branch, register):
        amps = register.permuted(("A", "B")).amps[::-1]
        return StateVector(("A", "B"), amps), []

    monkeypatch.setattr(protocol, "finish_success", scrambled)
    with pytest.raises(ValueError, match="diagonal unitary"):
        monte_carlo(ProtocolParams(0.3, 0.4), trials=10, seed=0)


@pytest.mark.parametrize("deterministic", [False, True])
def test_table_rejects_data_on_another_register_order(monkeypatch,
                                                      fresh_tables,
                                                      deterministic):
    """A leaf is read in the walk's own register order, (A, B); a walk
    that left the data on (B, A) fails the probe's unit-modulus check
    instead of being reordered."""
    real = montecarlo._walk

    def swapped(*args):
        for bins, branch, messages, state, *rest in real(*args):
            yield bins, branch, messages, state.permuted(("B", "A")), *rest

    monkeypatch.setattr(montecarlo, "_walk", swapped)
    params, w = case_point("case_I")
    with pytest.raises(ValueError, match="diagonal unitary"):
        monte_carlo(params, 10, 0, weights=w, deterministic=deterministic)


@pytest.mark.parametrize("name,value,weights", [
    ("_failure_law", lambda *args: (math.nan, None), None),  # not finite
    ("_failure_law", lambda *args: (1.5, None), None),  # a bin wider than 1
    # branch bins summing to 1.2, with no walk to refuse the POVM
    ("_walk", lambda *args: iter(()), PovmWeights(0.6, 0.6)),
], ids=["nan_edge", "bin_wider_than_1", "sum_above_1"])
def test_table_rejects_probabilities_that_are_not_a_distribution(
        monkeypatch, fresh_tables, name, value, weights):
    monkeypatch.setattr(montecarlo, name, value)
    with pytest.raises(ValueError, match="not a distribution"):
        monte_carlo(ProtocolParams(0.3, 0.4), trials=10, seed=0,
                    weights=weights, deterministic=True)


# ----------------------------------------------------- table memo

def test_equal_keys_share_one_read_only_table(fresh_tables):
    """Equal keys give the same table object, which no caller can write
    to, from a memo of bounded size.  Both modes read one table: a call
    in the other mode at a point builds nothing."""
    def point():
        params = ProtocolParams(0.45 * math.pi, 0.35 * math.pi)
        return params, optimum(params).weights

    table = montecarlo._transcript_table(*point())
    assert montecarlo._transcript_table(*point()) is table
    for array in (*table.edges, *table.cuts, table.prob, table.leaf,
                  table.bell, table.phases, table.overlap):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    maxsize = montecarlo._transcript_table.cache_info().maxsize
    assert maxsize is not None and maxsize <= 16
    params = ProtocolParams(0.42 * math.pi, 0.31 * math.pi)
    monte_carlo(params, trials=100, seed=1)
    misses = montecarlo._transcript_table.cache_info().misses
    monte_carlo(params, trials=100, seed=1, deterministic=True)
    assert montecarlo._transcript_table.cache_info().misses == misses


@pytest.mark.parametrize("kwargs", [
    {}, {"deterministic": True},
    {"input_state": StateVector(("A", "B"), np.array([1.0, 2.0j, -3.0, -4.0j])
                                / math.sqrt(30.0))},
], ids=["plain", "deterministic", "fixed_input"])
def test_a_warm_table_gives_the_summary_of_a_fresh_one(kwargs):
    params = ProtocolParams(0.42 * math.pi, 0.31 * math.pi)
    monte_carlo(params, trials=3000, seed=5, **kwargs)
    hits = montecarlo._transcript_table.cache_info().hits
    warm = monte_carlo(params, trials=3000, seed=5, **kwargs)
    assert montecarlo._transcript_table.cache_info().hits > hits
    montecarlo._transcript_table.cache_clear()
    fresh = monte_carlo(params, trials=3000, seed=5, **kwargs)
    for field in dataclasses.fields(SummaryStats):
        assert getattr(warm, field.name) == getattr(fresh, field.name), field


def test_a_non_positive_povm_raises_on_every_call():
    """A failed build leaves nothing in the memo to return later."""
    params = ProtocolParams(0.42 * math.pi, 0.31 * math.pi)
    w = scaled_weights(params, 1.2)
    for deterministic in (False, True, False):
        size = montecarlo._transcript_table.cache_info().currsize
        with pytest.raises(ValueError, match="non-positive POVM"):
            monte_carlo(params, trials=10, seed=0, weights=w,
                        deterministic=deterministic)
        assert montecarlo._transcript_table.cache_info().currsize == size


# ------------------------------------------------ reproducibility

def test_summary_is_bit_reproducible():
    params = ProtocolParams(0.38 * math.pi, 0.29 * math.pi)
    a = monte_carlo(params, trials=5000, seed=42)
    b = monte_carlo(params, trials=5000, seed=42)
    assert a == b
    c = monte_carlo(params, trials=5000, seed=43)
    assert (c.branch_counts != a.branch_counts
            or c.mean_fidelity != a.mean_fidelity)


#: (theta, alpha, trials, seed, deterministic).  Summed as floats, the
#: second case's fidelities gave a mean of ...04 at the default chunk
#: size and ...02 at 257.  The last two span four blocks at the default.
CHUNK_CASES = [(0.41 * math.pi, 0.33 * math.pi, 1500, 9, True),
               (0.29 * math.pi, 0.05 * math.pi, 5000, 1, False),
               (math.pi / 4, math.pi / 6, 3 * montecarlo._CHUNK + 1000, 12,
                False),
               (0.45 * math.pi, 0.35 * math.pi, 3 * montecarlo._CHUNK + 1000,
                13, True)]


def test_chunking_does_not_change_results(monkeypatch):
    for theta, alpha, trials, seed, deterministic in CHUNK_CASES:
        params = ProtocolParams(theta, alpha)
        monkeypatch.setattr(montecarlo, "_CHUNK", 1 << 16)
        whole = monte_carlo(params, trials=trials, seed=seed,
                            deterministic=deterministic)
        # the default, an odd size and one block for every case
        for chunk in (1 << 14, 257, 1 << 40):
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
            pieces = monte_carlo(params, trials=trials, seed=seed,
                                 deterministic=deterministic)
            assert whole == pieces, chunk


def test_fixed_input_is_reproducible():
    params = ProtocolParams(0.35 * math.pi, 0.3 * math.pi)
    phi = StateVector.basis(("A", "B"), "10")
    a = monte_carlo(params, trials=2000, seed=1, input_state=phi)
    b = monte_carlo(params, trials=2000, seed=1, input_state=phi)
    assert a == b
    assert a.mean_fidelity == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("deterministic", [False, True])
def test_counts_come_from_the_decision_stream_alone(deterministic):
    """Haar inputs and a fixed input at one seed give the same counts:
    only the decision deviates are drawn.  A fixed input that is no
    basis state still reaches the target exactly."""
    params = ProtocolParams(0.45 * math.pi, 0.35 * math.pi)
    phi = StateVector(("A", "B"), np.array([1.0, 2.0j, -3.0, -4.0j])
                      / math.sqrt(30.0))
    haar = monte_carlo(params, trials=50_000, seed=21,
                       deterministic=deterministic)
    fixed = monte_carlo(params, trials=50_000, seed=21, input_state=phi,
                        deterministic=deterministic)
    assert fixed.branch_counts == haar.branch_counts
    assert fixed.z_score == haar.z_score
    assert fixed.mean_bell_pairs == haar.mean_bell_pairs
    assert fixed.mean_fidelity == pytest.approx(1.0, abs=1e-12)
    assert haar.mean_fidelity == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------------- statistics

def test_counts_and_rates_are_consistent():
    params = ProtocolParams(0.45 * math.pi, 0.28 * math.pi)
    s = monte_carlo(params, trials=10000, seed=3)
    assert sum(s.branch_counts) == s.trials == 10000
    assert s.success_count == s.branch_counts[0] + s.branch_counts[1]
    assert s.empirical_p == s.success_count / s.trials
    se = math.sqrt(s.analytic_p * (1 - s.analytic_p) / s.trials)
    assert s.z_score == pytest.approx((s.empirical_p - s.analytic_p) / se,
                                      abs=1e-12)
    assert s.analytic_p == optimum(params).p_max


@pytest.mark.parametrize("theta,alpha,p", [
    (math.pi / 2, math.pi / 3, 0.5),
    (math.pi / 4, math.pi / 6, 0.3224744871391589),
    (math.pi / 4, math.pi / 3, 0.6464466094067263),
])
def test_landmark_success_rates(theta, alpha, p):
    s = monte_carlo(ProtocolParams(theta, alpha), trials=20000, seed=8)
    assert s.analytic_p == pytest.approx(p, abs=1e-12)
    assert abs(s.z_score) < 4.0
    assert s.mean_fidelity == pytest.approx(1.0, abs=1e-12)


def test_maximal_resource_never_fails():
    s = monte_carlo(ProtocolParams(0.4 * math.pi, math.pi / 2),
                    trials=100000, seed=2)
    assert s.branch_counts[2] == 0
    assert s.empirical_p == 1.0 and s.analytic_p == 1.0
    assert s.z_score == 0.0
    assert s.mean_fidelity == pytest.approx(1.0, abs=1e-12)
    assert s.mean_bell_pairs == 0.0
    assert s.mean_ebits == 1.0


def test_zero_weights_always_fail():
    params = ProtocolParams(0.3 * math.pi, 0.2 * math.pi)
    s = monte_carlo(params, trials=500, seed=4, weights=PovmWeights(0.0, 0.0))
    assert s.branch_counts == (0, 0, 500)
    assert s.empirical_p == 0.0 and s.analytic_p == 0.0
    assert s.z_score == 0.0
    assert s.mean_fidelity is None
    assert s.mean_bell_pairs == 0.0


def test_deterministic_mode_accounting():
    params = ProtocolParams(math.pi / 4, math.pi / 6)
    n = 40000
    s = monte_carlo(params, trials=n, seed=6, deterministic=True)
    assert s.mean_fidelity == pytest.approx(1.0, abs=1e-12)
    assert s.mean_bell_pairs == s.branch_counts[2] / n
    assert s.mean_ebits == pytest.approx(
        resource_entropy(params.alpha) + s.mean_bell_pairs, abs=1e-12)
    # spend per trial = pair entropy + one Bell pair per failure, so the
    # sample mean sits near the analytic average cost
    expected = average_cost(params).avg_cost
    p = s.analytic_p
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(s.mean_ebits - expected) < 4 * sigma


# -------------------------------------------------- validation

def test_argument_validation():
    params = ProtocolParams(0.3, 0.4)
    with pytest.raises(ValueError):
        monte_carlo(params, trials=0, seed=0)
    with pytest.raises(TypeError):
        monte_carlo(params, trials=10.5, seed=0)
    with pytest.raises(TypeError):
        monte_carlo(params, trials=True, seed=0)
    with pytest.raises(ValueError):
        monte_carlo(params, trials=10, seed=-1)
    with pytest.raises(TypeError):
        monte_carlo(params, trials=10, seed=2.5)
    with pytest.raises(ValueError):
        monte_carlo(params, trials=10, seed=0,
                    input_state=StateVector.basis(("A", "C"), "00"))
    with pytest.raises(ValueError):
        monte_carlo(params, trials=10, seed=0,
                    input_state=StateVector(("A", "B"), [1.0, 1.0, 0, 0]))
    with pytest.raises(ValueError):
        monte_carlo(params, trials=10, seed=0, weights=PovmWeights(3.0, 3.0))


@pytest.mark.parametrize("trials", [np.int8(100), np.uint8(200),
                                    np.int64(1000)],
                         ids=["int8", "uint8", "int64"])
def test_numpy_trials_give_the_summary_of_an_int(trials):
    """A narrow numpy count neither overflows in the block size nor
    leaks numpy scalars into the summary."""
    params = ProtocolParams(math.pi / 4, math.pi / 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = monte_carlo(params, trials, 0)
    assert got == monte_carlo(params, int(trials), 0)
    assert type(got.trials) is int
    for field in dataclasses.fields(SummaryStats):
        if field.type.startswith("float"):
            assert type(getattr(got, field.name)) is float, field.name


def test_summary_type_is_value_comparable():
    params = ProtocolParams(0.3, 0.4)
    s = monte_carlo(params, trials=16, seed=0)
    assert isinstance(s, SummaryStats)
    assert s == monte_carlo(params, trials=16, seed=0)


# ------------------------------------------------- property checks

@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 32), trials=st.integers(1, 64))
def test_summary_invariants(seed, trials):
    params = ProtocolParams(0.37 * math.pi, 0.22 * math.pi)
    s = monte_carlo(params, trials=trials, seed=seed)
    assert sum(s.branch_counts) == trials
    assert 0.0 <= s.empirical_p <= 1.0
    assert s.mean_ebits >= resource_entropy(params.alpha)
    if s.success_count:
        assert s.mean_fidelity >= 1 - 1e-12
    else:
        assert s.mean_fidelity is None


#: Every float, weighted toward the documented domain of both angles.
any_angle = st.floats() | st.floats(0.0, HALF_PI)


@settings(max_examples=150)
@given(any_angle, any_angle, st.integers(1, 64), st.booleans())
@example(1e-12, 1e-8, 64, False)
@example(0.3, 1e-6, 64, True)
@example(HALF_PI, 1e-5, 64, True)
@example(1e-200, 1e-200, 64, True)
@example(0.25 * math.pi, 1e-300, 64, True)
@example(1e-300, 2.2250738585072014e-308, 64, False)
@example(-0.5, HALF_PI, 64, True)
@example(0.3, 5e-324, 64, False)
@example(1e-17, 0.8848819307615617, 64, True)     # x + y rounds above 1
@example(1e-17, 0.8848819307615617, 64, False)
@example(7.2e-200, 1e-12, 64, True)               # no branch cut below 1
@example(1e-13, 0.3, 64, False)                   # a folded failure bin
@example(1e-13, 0.3, 64, True)
def test_monte_carlo_is_total(theta, alpha, trials, deterministic):
    """Over every float pair the angles are rejected (ValueError), or a
    small run in either mode gives finite statistics with no warning."""
    try:
        params = ProtocolParams(theta, alpha)
    except ValueError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = monte_carlo(params, trials=trials, seed=trials,
                        deterministic=deterministic)
    assert sum(s.branch_counts) == trials
    values = [s.empirical_p, s.analytic_p, s.z_score, s.mean_bell_pairs,
              s.mean_ebits]
    if s.mean_fidelity is not None:
        values.append(s.mean_fidelity)
    assert all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("deterministic", [False, True])
def test_z_score_at_a_law_rounded_above_1(capsys, deterministic):
    """Near theta = 0 the optimum's ``x + y`` can round to 1 + 2**-52.
    Its binomial error is that of a certain success, so a run that never
    fails scores 0."""
    argv = ["simulate", "--theta", "1e-17", "--alpha", "0.8848819307615617",
            "--trials", "1000", "--json"]
    assert main(argv + ["--deterministic"] * deterministic) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["success_count"] == 1000
    assert payload["z_score"] == 0.0


def test_z_score_where_the_variance_underflows():
    """``p (1 - p) / trials`` is 0 at the least subnormal ``p``, whose
    error is still ``sqrt(p / trials)``."""
    s = monte_carlo(ProtocolParams(0.3, 0.4), trials=1000, seed=0,
                    weights=PovmWeights(5e-324, 0.0))
    assert s.branch_counts == (0, 0, 1000)
    assert s.z_score == pytest.approx(-math.sqrt(5e-324 * 1000), rel=1e-12)


@pytest.mark.parametrize("deterministic", [False, True])
def test_analytic_p_is_capped_at_1(deterministic):
    """Near theta = 0 the optimum's ``x + y`` can round to 1 + 2**-52.
    ``analytic_p`` is that law capped at 1, as ``optimum``'s ``p_max``
    is."""
    params = ProtocolParams(1e-17, 0.8848819307615617)
    best = optimum(params)
    assert best.x + best.y > 1.0
    s = monte_carlo(params, 1000, 0, deterministic=deterministic)
    assert s.analytic_p == best.p_max == 1.0


def test_analytic_p_never_exceeds_1_near_theta_0():
    """A seeded scan of resources at theta = 1e-17 meets laws that round
    above 1, and every summary's ``analytic_p`` is at most 1."""
    rounded = 0
    for i, alpha in enumerate(
            np.random.default_rng(0).uniform(0.8, 1.1, 400).tolist()):
        params = ProtocolParams(1e-17, alpha)
        best = optimum(params)
        rounded += best.x + best.y > 1.0
        s = monte_carlo(params, 16, i, deterministic=bool(i % 2))
        assert s.analytic_p <= 1.0, alpha
    assert rounded
