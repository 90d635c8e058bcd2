"""The two-party protocol: steps, messages, failure analysis, recovery."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entrot import protocol, qmath
from entrot.povm import PovmWeights, ProtocolParams, build_povm, optimum
from entrot.protocol import (BasisResult, PovmResult, XResult,
                             controlled_rotation, failure_residual,
                             finish_success, initial_register,
                             prepare_resource, recover_with_bell, run_once,
                             step1_alice, step2_bob, step3_bob, step4_bob_povm,
                             wrap_angle)
from entrot.qmath import StateVector, apply_gate, expectation, fidelity, haar_state

Z_A = np.array([1.0, 1.0, -1.0, -1.0])   # sz on A over the (A, B) index
Z_Z = np.array([1.0, -1.0, -1.0, 1.0])   # sz x sz over the (A, B) index


def random_input(seed):
    rng = np.random.default_rng(seed)
    return haar_state(("A", "B"), rng.standard_normal(8))


def post_alice_state(alpha, phi, sign):
    """Analytic register on (A, B, b) right after Alice's sign lands."""
    c, s = math.cos(alpha / 2.0), math.sin(alpha / 2.0)
    amps = np.zeros(8, dtype=complex)
    amps[0::2] = c * phi.permuted(("A", "B")).amps
    amps[1::2] = sign * 1j * s * Z_A * phi.permuted(("A", "B")).amps
    return StateVector(("A", "B", "b"), amps)


def carrier_state(alpha, phi):
    """Analytic register on (A, B, b) after both controlled phases."""
    c, s = math.cos(alpha / 2.0), math.sin(alpha / 2.0)
    amps = np.zeros(8, dtype=complex)
    amps[0::2] = c * phi.permuted(("A", "B")).amps
    amps[1::2] = 1j * s * Z_Z * phi.permuted(("A", "B")).amps
    return StateVector(("A", "B", "b"), amps)


def run_steps_1_to_3(params, phi, u_x):
    reg = initial_register(params.alpha, phi)
    reg, msg = step1_alice(reg, u_x)
    reg = step2_bob(reg, msg)
    return step3_bob(reg), msg


# ----------------------------------------------------- small pieces

def test_wrap_angle_maps_to_half_open_interval():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(2.0 * math.pi) == 0.0
    assert wrap_angle(-0.5 * math.pi) == pytest.approx(-0.5 * math.pi)


def test_controlled_rotation_is_diagonal_unitary():
    u = controlled_rotation(0.7)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    assert np.allclose(np.diag(np.diag(u)), u)
    assert u[0, 0] == pytest.approx(math.cos(0.35) + 1j * math.sin(0.35))
    assert u[1, 1] == pytest.approx(math.cos(0.35) - 1j * math.sin(0.35))


def test_message_payloads_are_validated():
    with pytest.raises(ValueError):
        XResult(0)
    with pytest.raises(ValueError):
        PovmResult(4)
    with pytest.raises(ValueError):
        BasisResult(2)


# ------------------------------------------------------- preparation

def test_resource_state_amplitudes():
    s = prepare_resource(math.pi / 3)
    assert s.qubits == ("a", "b")
    assert np.allclose(s.amps, [math.cos(math.pi / 6), 0, 0,
                                1j * math.sin(math.pi / 6)], atol=1e-15)
    assert prepare_resource(math.pi / 2).norm() == pytest.approx(1.0)
    tiny = prepare_resource(1e-6)
    assert abs(tiny.amps[3]) == pytest.approx(5e-7, rel=1e-6)
    with pytest.raises(ValueError):
        prepare_resource(0.0)


def test_initial_register_layout_and_validation():
    phi = StateVector.basis(("A", "B"), "01")
    reg = initial_register(0.6, phi)
    assert reg.qubits == ("a", "A", "B", "b")
    # a=0 block carries cos(alpha/2) * phi, b=0
    assert reg.amps[0b0010] == pytest.approx(math.cos(0.3))
    assert reg.amps[0b1011] == pytest.approx(1j * math.sin(0.3))
    with pytest.raises(ValueError):
        initial_register(0.6, StateVector.basis(("A", "C"), "01"))
    with pytest.raises(ValueError):
        initial_register(0.6, StateVector(("A", "B"), [1.0, 1.0, 0, 0]))


# ------------------------------------------------------------ steps

def test_alice_sign_is_a_fair_coin_for_any_input():
    for seed in range(4):
        phi = random_input(seed)
        reg = initial_register(0.2 + 0.3 * seed, phi)
        _, plus = step1_alice(reg, 0.5 - 1e-9)
        _, minus = step1_alice(reg, 0.5 + 1e-9)
        assert plus.sign == 1 and minus.sign == -1


def test_minus_outcome_flips_the_imaginary_branch():
    phi = random_input(7)
    alpha = 0.44
    reg = initial_register(alpha, phi)
    reg_minus, msg = step1_alice(reg, 0.9)
    assert msg.sign == -1
    assert fidelity(reg_minus, post_alice_state(alpha, phi, -1)) >= 1 - 1e-12
    fixed = step2_bob(reg_minus, msg)
    assert fidelity(fixed, post_alice_state(alpha, phi, +1)) >= 1 - 1e-12


def test_intermediate_states_match_analytic_forms_both_signs():
    for seed, u_x in ((0, 0.3), (1, 0.7), (2, 0.1), (3, 0.95)):
        phi = random_input(seed)
        alpha = 0.2 + 0.21 * seed
        params = ProtocolParams(0.8, alpha)
        reg = initial_register(alpha, phi)
        reg, msg = step1_alice(reg, u_x)
        reg = step2_bob(reg, msg)
        assert fidelity(reg, post_alice_state(alpha, phi, +1)) >= 1 - 1e-12
        reg = step3_bob(reg)
        assert fidelity(reg, carrier_state(alpha, phi)) >= 1 - 1e-12


def test_carrier_reduces_to_product_for_computational_inputs():
    # |00>: the sign pattern is trivial, so b factorizes completely
    reg, _ = run_steps_1_to_3(ProtocolParams(0.5, 0.7),
                              StateVector.basis(("A", "B"), "00"), 0.25)
    c, s = math.cos(0.35), math.sin(0.35)
    b_state = np.array([c, 1j * s])
    expected = StateVector(("A", "B", "b"),
                           np.kron([1, 0, 0, 0], [1, 0])
                           + np.kron([1, 0, 0, 0], [0, 1]) * 0)
    amps = np.zeros(8, complex)
    amps[0] = c
    amps[1] = 1j * s
    assert fidelity(reg, StateVector(("A", "B", "b"), amps)) >= 1 - 1e-12
    # |01>: the imaginary branch picks up a sign
    reg, _ = run_steps_1_to_3(ProtocolParams(0.5, 0.7),
                              StateVector.basis(("A", "B"), "01"), 0.25)
    amps = np.zeros(8, complex)
    amps[2] = c
    amps[3] = -1j * s
    assert fidelity(reg, StateVector(("A", "B", "b"), amps)) >= 1 - 1e-12


def test_step2_requires_the_sign_message():
    reg = initial_register(0.5, random_input(1))
    with pytest.raises(TypeError):
        step2_bob(reg, PovmResult(2))


def test_branch_probabilities_equal_weights_for_any_input():
    params = ProtocolParams(0.9, 1.2)
    w = PovmWeights(0.21, 0.13)
    povm = build_povm(params, w)
    for seed in range(6):
        reg, _ = run_steps_1_to_3(params, random_input(seed), 0.4)
        p1 = expectation(reg, povm.e1, "b")
        p2 = expectation(reg, povm.e2, "b")
        assert p1 == pytest.approx(w.x, abs=1e-12)
        assert p2 == pytest.approx(w.y, abs=1e-12)


def test_branch_selection_thresholds():
    params = ProtocolParams(0.9, 1.2)
    w = scaled_weights(params, 0.8)
    assert w.x > 0.0 and w.y > 0.0
    povm = build_povm(params, w)
    reg, _ = run_steps_1_to_3(params, random_input(3), 0.4)
    assert step4_bob_povm(reg, povm, w.x - 1e-9)[0] == 1
    assert step4_bob_povm(reg, povm, w.x + 1e-9)[0] == 2
    assert step4_bob_povm(reg, povm, w.x + w.y - 1e-9)[0] == 2
    assert step4_bob_povm(reg, povm, w.x + w.y + 1e-9)[0] == 3
    with pytest.raises(ValueError):
        step4_bob_povm(reg, povm, 1.0)


def test_step4_rejects_infeasible_weights():
    params = ProtocolParams(0.9, 0.5)
    bad = build_povm(params, PovmWeights(3.0, 3.0))
    reg, _ = run_steps_1_to_3(params, random_input(3), 0.4)
    with pytest.raises(ValueError):
        step4_bob_povm(reg, bad, 0.5)


def test_vanishing_failure_branch_is_never_selected():
    params = ProtocolParams(1.1, math.pi / 2)
    povm = build_povm(params, PovmWeights(0.5, 0.5))
    reg, _ = run_steps_1_to_3(params, random_input(2), 0.4)
    branch, _ = step4_bob_povm(reg, povm, 0.999999999999)
    assert branch == 2


def test_success_branches_implement_the_gate():
    for seed in range(8):
        phi = random_input(seed)
        params = ProtocolParams(0.3 + 0.15 * seed, 0.25 + 0.12 * seed)
        povm = build_povm(params, optimum(params).weights)
        target = apply_gate(phi, controlled_rotation(params.theta), ("A", "B"))
        reg, _ = run_steps_1_to_3(params, phi, 0.37)
        for u, want in ((0.0, 1), (optimum(params).x + 1e-6, 2)):
            if want == 2 and optimum(params).y == 0.0:
                continue
            branch, out = step4_bob_povm(reg, povm, u)
            assert branch == want
            out, msgs = finish_success(branch, out)
            assert fidelity(target, out) >= 1 - 1e-12
            assert msgs == ([] if branch == 1 else [PovmResult(2)])


def test_success_branch_at_a_vanishing_resource_angle():
    """At theta = 1e-300, alpha = 1e-200 the unused branch-2 vector
    overflows; branch 1 must still finish without a RuntimeWarning."""
    params = ProtocolParams(1e-300, 1e-200)
    povm = build_povm(params, optimum(params).weights)
    phi = random_input(5)
    reg, _ = run_steps_1_to_3(params, phi, 0.37)
    branch, out = step4_bob_povm(reg, povm, 0.5)
    assert branch == 1
    target = apply_gate(phi, controlled_rotation(params.theta), ("A", "B"))
    assert fidelity(target, finish_success(branch, out)[0]) >= 1 - 1e-12


def test_finish_success_rejects_failure_branch():
    with pytest.raises(ValueError):
        finish_success(3, random_input(0))


# --------------------------------------------------------- failures

def scaled_weights(params, factor):
    best = optimum(params)
    return PovmWeights(best.x * factor, best.y * factor)


def test_residual_is_a_known_controlled_rotation():
    for seed in range(10):
        phi = random_input(seed)
        params = ProtocolParams(0.4 + 0.1 * (seed % 5), 0.3 + 0.07 * (seed % 4))
        w = scaled_weights(params, 0.8)
        povm = build_povm(params, w)
        reg, _ = run_steps_1_to_3(params, phi, 0.42)
        branch, reg = step4_bob_povm(reg, povm, 0.9999)
        assert branch == 3
        gate, reduced = failure_residual(reg, povm, (seed % 3) / 3.0)
        assert -math.pi < gate.theta_f <= math.pi
        expected = apply_gate(phi, controlled_rotation(gate.theta_f), ("A", "B"))
        assert fidelity(expected, reduced) >= 1 - 1e-10


def test_residual_degenerate_weights_give_identity_or_full_flip():
    params = ProtocolParams(0.8, 0.6)
    povm = build_povm(params, PovmWeights(0.0, 0.0))
    phi = random_input(5)
    reg, _ = run_steps_1_to_3(params, phi, 0.3)
    branch, reg = step4_bob_povm(reg, povm, 0.5)
    assert branch == 3
    gate0, _ = failure_residual(reg, povm, 0.0)
    assert gate0.b_outcome == 0 and gate0.theta_f == 0.0
    gate1, _ = failure_residual(reg, povm, 0.999999)
    assert gate1.b_outcome == 1 and gate1.theta_f == math.pi


def test_residual_angle_is_outcome_independent_when_remainder_is_rank_one():
    # at an interior optimum the remainder has one zero eigenvalue, so
    # both rows of its square root point along the same direction
    params = ProtocolParams(0.45 * math.pi, 0.2 * math.pi)
    best = optimum(params)
    assert best.y > 0.0
    povm = build_povm(params, best.weights)
    reg, _ = run_steps_1_to_3(params, random_input(1), 0.3)
    branch, reg = step4_bob_povm(reg, povm, 0.999999)
    assert branch == 3
    g0, _ = failure_residual(reg, povm, 0.0)
    g1, _ = failure_residual(reg, povm, 0.999999)
    # the zero eigenvalue is only ~1e-16 in floats; the square root turns
    # that into ~1e-8 of row misalignment
    assert abs(wrap_angle(g0.theta_f - g1.theta_f)) < 1e-7


def test_recovery_completes_the_rotation_with_one_pair():
    rng = np.random.default_rng(11)
    for _ in range(10):
        state = haar_state(("A", "B"), rng.standard_normal(8))
        missing = float(rng.uniform(-math.pi, math.pi))
        if missing == 0.0:
            continue
        out, msgs, pairs = recover_with_bell(state, missing,
                                             float(rng.random()),
                                             float(rng.random()))
        assert pairs == 1
        assert isinstance(msgs[0], XResult)
        target = apply_gate(state, controlled_rotation(missing), ("A", "B"))
        assert fidelity(target, out) >= 1 - 1e-12


def test_recovery_with_nothing_left_is_a_no_op():
    state = random_input(3)
    out, msgs, pairs = recover_with_bell(state, 0.0, 0.1, 0.2)
    assert out is state and msgs == [] and pairs == 0


# -------------------------------------------------------- full runs

def test_run_once_success_branch_consistency():
    params = ProtocolParams(0.42 * math.pi, 0.31 * math.pi)
    w = optimum(params).weights
    phi = random_input(9)
    target = apply_gate(phi, controlled_rotation(params.theta), ("A", "B"))
    seen = set()
    for seed in range(40):
        out = run_once(params, w, phi, seed=seed)
        seen.add(out.branch)
        if out.branch in (1, 2):
            assert out.residual is None
            assert out.bell_pairs_consumed == 0
            assert fidelity(target, out.final_state) >= 1 - 1e-12
            want = [1] if out.branch == 1 else [1, 2]
            assert [type(m) for m in out.transcript] == \
                [XResult] + ([PovmResult] if out.branch == 2 else [])
        else:
            assert out.residual is not None
            assert [type(m) for m in out.transcript] == \
                [XResult, PovmResult, BasisResult]
    assert seen == {1, 2, 3}


def test_run_once_deterministic_mode_always_delivers():
    params = ProtocolParams(0.42 * math.pi, 0.31 * math.pi)
    w = optimum(params).weights
    phi = random_input(10)
    target = apply_gate(phi, controlled_rotation(params.theta), ("A", "B"))
    recovered = 0
    for seed in range(60):
        out = run_once(params, w, phi, seed=seed, deterministic=True)
        assert fidelity(target, out.final_state) >= 1 - 1e-10
        if out.branch == 3:
            recovered += 1
            assert out.bell_pairs_consumed == 1
            assert isinstance(out.transcript[1], PovmResult)
            assert isinstance(out.transcript[2], BasisResult)
            assert isinstance(out.transcript[3], XResult)
    assert recovered > 0


def test_run_once_is_bit_reproducible():
    params = ProtocolParams(0.35 * math.pi, 0.27 * math.pi)
    w = optimum(params).weights
    phi = random_input(13)
    a = run_once(params, w, phi, seed=123456789, deterministic=True)
    b = run_once(params, w, phi, seed=123456789, deterministic=True)
    assert a.branch == b.branch
    assert a.transcript == b.transcript
    assert np.array_equal(a.final_state.amps, b.final_state.amps)
    c = run_once(params, w, phi, seed=987654321, deterministic=True)
    assert (c.branch != a.branch
            or not np.array_equal(c.final_state.amps, a.final_state.amps))


def test_run_once_validates_seed():
    params = ProtocolParams(0.3, 0.4)
    w = optimum(params).weights
    with pytest.raises(ValueError):
        run_once(params, w, random_input(0), seed=-1)
    with pytest.raises(TypeError):
        run_once(params, w, random_input(0), seed=1.5)


def test_bell_resource_never_fails():
    params = ProtocolParams(0.4 * math.pi, math.pi / 2)
    w = optimum(params).weights
    phi = random_input(4)
    for seed in range(500):
        assert run_once(params, w, phi, seed=seed).branch != 3


# ------------------------------------------------ locality structure

def test_each_step_touches_only_its_owners_qubits(monkeypatch):
    touched = []
    real_gate = qmath.apply_gate
    real_measure = qmath.measure_qubit
    real_project = qmath.project_out

    def spy_gate(state, gate, targets):
        touched.extend(targets)
        return real_gate(state, gate, targets)

    def spy_measure(state, qubit, basis, u):
        touched.append(qubit)
        return real_measure(state, qubit, basis, u)

    def spy_project(state, qubit, vector):
        touched.append(qubit)
        return real_project(state, qubit, vector)

    monkeypatch.setattr(qmath, "apply_gate", spy_gate)
    monkeypatch.setattr(qmath, "measure_qubit", spy_measure)
    monkeypatch.setattr(qmath, "project_out", spy_project)

    params = ProtocolParams(0.9, 0.5)
    povm = build_povm(params, scaled_weights(params, 0.8))
    reg = initial_register(params.alpha, random_input(2))

    touched.clear()
    reg, msg = step1_alice(reg, 0.8)
    assert set(touched) <= {"a", "A"}

    touched.clear()
    reg = step2_bob(reg, msg)
    reg = step3_bob(reg)
    branch, reg3 = step4_bob_povm(reg, povm, 0.9999)
    assert branch == 3
    _, _ = failure_residual(reg3, povm, 0.4)
    assert set(touched) <= {"b", "B"}

    # the cross-branch fix after outcome 2 runs only after Bob's message
    touched.clear()
    branch, reg2 = step4_bob_povm(reg, povm, 0.0)
    _, msgs = finish_success(branch, reg2)
    assert branch == 1 and msgs == [] and set(touched) <= {"b", "B"}


def test_branch_two_corrections_follow_the_message(monkeypatch):
    order = []
    real_gate = qmath.apply_gate

    def spy_gate(state, gate, targets):
        order.extend(targets)
        return real_gate(state, gate, targets)

    monkeypatch.setattr(qmath, "apply_gate", spy_gate)
    params = ProtocolParams(0.9, 1.2)
    w = scaled_weights(params, 0.8)
    povm = build_povm(params, w)
    reg, _ = run_steps_1_to_3(params, random_input(6), 0.3)
    branch, reg = step4_bob_povm(reg, povm, w.x + 1e-9)
    assert branch == 2
    order.clear()
    _, msgs = finish_success(branch, reg)
    assert msgs == [PovmResult(2)]
    assert order == ["B", "A"]  # Bob fixes his side, Alice hers after the news


# ------------------------------------------------- statistical sanity

@given(st.integers(0, 2 ** 16))
def test_outcome_invariants_hold_for_random_runs(seed):
    params = ProtocolParams(0.38 * math.pi, 0.26 * math.pi)
    w = optimum(params).weights
    out = run_once(params, w, random_input(seed % 17), seed=seed)
    assert out.branch in (1, 2, 3)
    assert (out.branch == 3) == (out.residual is not None)
    assert out.bell_pairs_consumed == 0
    assert out.final_state.norm() == pytest.approx(1.0, abs=1e-9)
    assert isinstance(out.transcript[0], XResult)
