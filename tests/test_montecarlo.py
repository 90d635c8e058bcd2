"""Batched sampling engine: agreement with single runs and statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrot import montecarlo
from entrot.entanglement import average_cost, resource_entropy
from entrot.montecarlo import SummaryStats, monte_carlo
from entrot.povm import PovmWeights, ProtocolParams, build_povm, optimum
from entrot.protocol import (_execute, _rng_from_seed, controlled_rotation,
                             wrap_angle)
from entrot.qmath import (StateVector, apply_gate, fidelity, haar_state,
                          psd_sqrt2)


def scaled_weights(params, factor):
    best = optimum(params)
    return PovmWeights(best.x * factor, best.y * factor)


def engine_streams(seed, n):
    """The decision deviates and Haar normals ``monte_carlo`` consumes."""
    draws = _rng_from_seed(seed, montecarlo._DECISION_CHANNEL).random((n, 5))
    normals = _rng_from_seed(seed, montecarlo._INPUT_CHANNEL).standard_normal(
        (n, 8))
    return draws, normals


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
}


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("case", EQUIVALENCE_CASES)
def test_matches_single_run_engine_trial_by_trial(case, deterministic):
    """Same deviates in, same branches, spending and states out."""
    theta, alpha, scale, basis, branches = EQUIVALENCE_CASES[case]
    params = ProtocolParams(theta, alpha)
    w = optimum(params).weights if scale is None else scaled_weights(params,
                                                                     scale)
    n, seed = 300, 77

    # reproduce exactly the deviates and inputs the batch engine consumes
    draws, normals = engine_streams(seed, n)
    if basis is None:
        states = [haar_state(("A", "B"), z) for z in normals]
        weight = np.array([np.abs(s.amps) ** 2 for s in states])
        np.testing.assert_allclose(
            montecarlo._haar_weights(
                _rng_from_seed(seed, montecarlo._INPUT_CHANNEL), n),
            weight, rtol=0, atol=1e-15)
    else:
        states = [StateVector.basis(("A", "B"), basis)] * n
        weight = np.broadcast_to(np.abs(states[0].amps) ** 2, (n, 4))

    table = montecarlo._transcript_table(params, w, deterministic)
    branch, fid, bell = montecarlo._simulate_chunk(table, weight, draws)
    assert set(branch.tolist()) == branches

    gate = controlled_rotation(params.theta)
    for i, state in enumerate(states):
        out = _execute(params, w, state, draws[i], deterministic, seed=0)
        assert out.branch == branch[i]
        assert out.bell_pairs_consumed == bell[i]
        if out.branch == 3 and not deterministic:
            assert math.isnan(fid[i])
            assert out.residual is not None
        else:
            want = fidelity(apply_gate(state, gate, ("A", "B")),
                            out.final_state)
            assert fid[i] == pytest.approx(want, abs=1e-12)


def _born_thresholds(theta, alpha, weights, phi, plus):
    """Steps 1-4 simulated on every row of ``phi``, the way a
    state-simulating engine thresholds its deviates: the sign threshold
    p(+1) from each trial's own state, then, after the sign ``plus``,
    the branch thresholds ``(p1, p1 + p2)`` and the register (n, A, B, b)
    the POVM acts on."""
    c, s = math.cos(alpha / 2), math.sin(alpha / 2)
    pair = np.array([[c, 0.0], [0.0, 1j * s]])            # (a, b)
    reg = np.einsum("ab,nxy->naxyb", pair, phi.reshape(-1, 2, 2))
    reg[:, 1, 1] *= -1.0                                  # CZ on (a, A)
    arms = ((reg[:, 0] + reg[:, 1]) / math.sqrt(2),       # <+|_a, <-|_a
            (reg[:, 0] - reg[:, 1]) / math.sqrt(2))
    p_arm = [np.sum(np.abs(arm) ** 2, axis=(1, 2, 3)) for arm in arms]
    t_sign = p_arm[0] / (p_arm[0] + p_arm[1])
    reg = np.where(plus[:, None, None, None], arms[0], arms[1])
    reg = reg / np.sqrt(np.sum(np.abs(reg) ** 2, axis=(1, 2, 3)))[:, None,
                                                                  None, None]
    reg[~plus, :, :, 1] *= -1.0                           # Bob's sz after -1
    reg[:, :, 1, 1] *= -1.0                               # CZ on (B, b)
    povm = build_povm(ProtocolParams(theta, alpha), weights)
    p1, p2 = (np.einsum("nxyb,bc,nxyc->n", reg.conj(), e, reg).real
              for e in (povm.e1, povm.e2))
    return t_sign, np.stack([p1, p1 + p2], axis=1), reg, povm


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
    on any column the transcript consults (recovery included)."""
    params = ProtocolParams(theta, alpha)
    w = optimum(params).weights
    table = montecarlo._transcript_table(params, w, deterministic=True)
    sign_e, branch_e, b_e, rsign_e, rbranch_e = table.edges
    n = 1 << 17
    draws, z = engine_streams(5, n)
    phi = z[:, :4] + 1j * z[:, 4:]
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)

    plus = draws[:, 0] < sign_e[0]
    t_sign, t_branch, reg, povm = _born_thresholds(theta, alpha, w, phi, plus)
    mismatches = int(np.sum(plus != (draws[:, 0] < t_sign)))
    old = (draws[:, 1:2] >= t_branch).sum(axis=1)
    new = _bin(draws[:, 1], branch_e)
    mismatches += int(np.sum(old != new))

    fail = np.flatnonzero(new == 2)
    if fail.size:
        k3 = psd_sqrt2(povm.e3)
        m = np.einsum("cb,nxyb->nxyc", k3, reg[fail])
        pb = np.sum(np.abs(m) ** 2, axis=(1, 2))
        j_new = _bin(draws[fail, 2], b_e)
        mismatches += int(np.sum((draws[fail, 2] >= pb[:, 0] / pb.sum(1))
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
            r_plus = draws[rows, 3] < rsign_e[0]
            t_rsign, t_rbranch, _, _ = _born_thresholds(
                rem, math.pi / 2, PovmWeights(0.5, 0.5), cond, r_plus)
            mismatches += int(np.sum(r_plus != (draws[rows, 3] < t_rsign)))
            mismatches += int(np.sum(
                (draws[rows, 4:5] >= t_rbranch).sum(axis=1)
                != _bin(draws[rows, 4], rbranch_e)))
    assert mismatches == 0


def test_table_rejects_a_leaf_that_is_not_diagonal(monkeypatch):
    def scrambled(branch, register):
        amps = register.permuted(("A", "B")).amps[::-1]
        return StateVector(("A", "B"), amps), []

    monkeypatch.setattr(montecarlo, "finish_success", scrambled)
    with pytest.raises(ValueError, match="diagonal unitary"):
        monte_carlo(ProtocolParams(0.3, 0.4), trials=10, seed=0)


@pytest.mark.parametrize("name,value", [
    ("_b_edge", lambda *args: math.nan),        # not finite
    ("_b_edge", lambda *args: 1.5),             # a bin wider than 1
    ("_RECOVERY_EDGES", (0.9, 1.05)),           # bins summing to 1.05
], ids=["nan_edge", "bin_wider_than_1", "sum_above_1"])
def test_table_rejects_probabilities_that_are_not_a_distribution(
        monkeypatch, name, value):
    monkeypatch.setattr(montecarlo, name, value)
    with pytest.raises(ValueError, match="not a distribution"):
        monte_carlo(ProtocolParams(0.3, 0.4), trials=10, seed=0,
                    deterministic=True)


# ------------------------------------------------ reproducibility

def test_summary_is_bit_reproducible():
    params = ProtocolParams(0.38 * math.pi, 0.29 * math.pi)
    a = monte_carlo(params, trials=5000, seed=42)
    b = monte_carlo(params, trials=5000, seed=42)
    assert a == b
    c = monte_carlo(params, trials=5000, seed=43)
    assert (c.branch_counts != a.branch_counts
            or c.mean_fidelity != a.mean_fidelity)


def test_chunking_does_not_change_results(monkeypatch):
    params = ProtocolParams(0.41 * math.pi, 0.33 * math.pi)
    whole = monte_carlo(params, trials=1500, seed=9, deterministic=True)
    monkeypatch.setattr(montecarlo, "_CHUNK", 257)
    pieces = monte_carlo(params, trials=1500, seed=9, deterministic=True)
    assert whole == pieces


def test_fixed_input_is_reproducible():
    params = ProtocolParams(0.35 * math.pi, 0.3 * math.pi)
    phi = StateVector.basis(("A", "B"), "10")
    a = monte_carlo(params, trials=2000, seed=1, input_state=phi)
    b = monte_carlo(params, trials=2000, seed=1, input_state=phi)
    assert a == b
    assert a.mean_fidelity == pytest.approx(1.0, abs=1e-12)


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
