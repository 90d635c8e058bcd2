"""Linear-algebra layer: states, gates, measurements."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entrot import qmath
from entrot.qmath import (StateVector, apply_gate, expectation, fidelity,
                          haar_state, measure_qubit, project_out, psd_sqrt2)

H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def random_state(rng, labels):
    return haar_state(labels, rng.standard_normal(2 ** (len(labels) + 1)))


# ------------------------------------------------------ square root

def test_psd_sqrt2_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        psd_sqrt2(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_sqrt2_squares_back():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = a @ a.conj().T
        r = psd_sqrt2(m)
        assert np.allclose(r @ r, m, atol=1e-10)


def test_psd_sqrt2_clamps_roundoff_negative_eigenvalue():
    m = np.diag([1.0, -1e-12])
    r = psd_sqrt2(m)
    assert r[1, 1] == 0.0


def test_psd_sqrt2_rejects_clearly_negative():
    with pytest.raises(ValueError):
        psd_sqrt2(np.diag([1.0, -1e-6]))


def test_psd_sqrt2_names_a_wrong_shape():
    with pytest.raises(ValueError, match=re.escape(
            "expected a 2x2 matrix, got shape (3, 3)")):
        psd_sqrt2(np.eye(3))


# ------------------------------------------------------- StateVector

def test_basis_state_and_amplitude_layout():
    s = StateVector.basis(("p", "q"), "10")
    assert s.qubits == ("p", "q")
    assert np.array_equal(s.amps, [0, 0, 1, 0])


def test_basis_rejects_a_bit_string_that_does_not_fit():
    with pytest.raises(ValueError, match=re.escape(
            "bit string '012' does not match ('A', 'B')")):
        StateVector.basis(("A", "B"), "012")


def test_dim_counts_the_amplitudes():
    assert StateVector.basis(("A", "B"), "01").dim == 4
    assert StateVector.basis(("A", "B", "C", "D"), "0110").dim == 16


def test_state_requires_unique_labels_and_size_cap():
    with pytest.raises(ValueError):
        StateVector(("a", "a"), np.zeros(4))
    with pytest.raises(ValueError):
        StateVector(tuple("abcde"), np.zeros(32))


def test_state_amps_are_write_protected():
    s = StateVector.basis(("q",), "0")
    with pytest.raises(ValueError):
        s.amps[0] = 5.0


def test_constructor_copies_its_input():
    """The caller's array stays writeable, and a later write to it does
    not reach the state."""
    amps = np.array([1.0, 0.0])
    s = StateVector(("q",), amps)
    assert amps.flags.writeable
    amps[0] = 5.0
    assert np.array_equal(s.amps, [1.0, 0.0])
    assert s.norm() == 1.0


def test_norm_and_normalized():
    s = StateVector(("q",), [3.0, 4.0])
    assert s.norm() == pytest.approx(5.0)
    n = s.normalized()
    assert n.norm() == pytest.approx(1.0)
    assert np.allclose(n.amps, [0.6, 0.8])


def test_normalizing_null_state_fails():
    with pytest.raises(ValueError, match="^cannot normalize a zero state$"):
        StateVector(("q",), [0.0, 0.0]).normalized()
    with pytest.raises(ValueError, match="^cannot normalize a zero state$"):
        haar_state(("p", "q"), np.zeros(8))


def test_tensor_orders_labels_left_to_right():
    left = StateVector.basis(("x",), "1")
    right = StateVector.basis(("y",), "0")
    joint = left.tensor(right)
    assert joint.qubits == ("x", "y")
    assert np.array_equal(joint.amps, [0, 0, 1, 0])


def test_tensor_rejects_label_collision():
    with pytest.raises(ValueError, match="duplicate qubit labels"):
        StateVector.basis(("x",), "0").tensor(StateVector.basis(("x",), "0"))


def test_permuted_moves_amplitudes_consistently():
    rng = np.random.default_rng(0)
    s = random_state(rng, ("u", "v", "w"))
    p = s.permuted(("w", "u", "v"))
    assert p.qubits == ("w", "u", "v")
    # amplitude of |u=1, v=0, w=1>: index 101 in (u,v,w), 110 in (w,u,v)
    assert p.amps[0b110] == pytest.approx(s.amps[0b101])
    back = p.permuted(("u", "v", "w"))
    assert np.allclose(back.amps, s.amps)


def test_permuted_rejects_other_labels():
    s = StateVector.basis(("A", "B"), "01")
    with pytest.raises(ValueError, match=re.escape(
            "('A', 'C') is not a permutation of ('A', 'B')")):
        s.permuted(("A", "C"))


# -------------------------------------------------------- apply_gate

def test_apply_single_qubit_gate_targets_right_axis():
    s = StateVector.basis(("p", "q"), "00")
    flipped = apply_gate(s, np.array([[0, 1], [1, 0]], dtype=complex), ("q",))
    assert np.array_equal(flipped.amps, [0, 1, 0, 0])


def test_apply_two_qubit_gate_respects_target_order():
    rng = np.random.default_rng(1)
    s = random_state(rng, ("p", "q"))
    lower = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0|
    upper = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
    g = np.kron(lower, upper)  # maps |0>_first |1>_second -> |10>
    a = apply_gate(s, g, ("p", "q"))
    b = apply_gate(s, g, ("q", "p"))
    assert a.amps[0b10] == pytest.approx(s.amps[0b01])
    assert b.amps[0b01] == pytest.approx(s.amps[0b10])


def test_apply_gate_preserves_norm_for_unitary():
    rng = np.random.default_rng(2)
    s = random_state(rng, ("p", "q", "r"))
    out = apply_gate(s, CZ, ("r", "p"))
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


def test_apply_gate_rejects_unknown_target_and_bad_shape():
    s = StateVector.basis(("p", "q"), "00")
    with pytest.raises(ValueError):
        apply_gate(s, np.eye(2, dtype=complex), ("z",))
    with pytest.raises(ValueError):
        apply_gate(s, np.eye(4, dtype=complex), ("p",))


# --------------------------------------- checks on operation results

def test_results_of_operations_still_reject_non_finite_amplitudes():
    """Results of operations go through the same constructor and its
    finiteness check: a gate or a product that overflows raises,
    whatever numpy warns on the way."""
    s = StateVector(("p", "q"), [1.0, 1.0, 0.0, 0.0])
    huge = StateVector(("x",), [1e200, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="^non-finite amplitude$"):
            apply_gate(s, np.full((2, 2), 1.5e308), ("q",))
        with pytest.raises(ValueError, match="^non-finite amplitude$"):
            huge.tensor(StateVector(("y",), [1e200, 0.0]))


def test_unknown_labels_are_named_by_every_register_operation():
    """The cached layout raises, and never caches, the same message for
    an unknown label on every path."""
    s = StateVector.basis(("p", "q"), "00")
    message = re.escape("no qubit 'z' in register ('p', 'q')")
    z = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            apply_gate(s, np.eye(2, dtype=complex), ("z",))
        with pytest.raises(ValueError, match=message):
            apply_gate(s, CZ, ("p", "z"))
        with pytest.raises(ValueError, match=message):
            measure_qubit(s, "z", z, 0.5)
        with pytest.raises(ValueError, match=message):
            project_out(s, "z", z[0])


def test_the_last_qubit_cannot_be_measured_away():
    s = StateVector.basis(("q",), "0")
    z = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="last qubit"):
        measure_qubit(s, "q", z, 0.5)
    with pytest.raises(ValueError, match="last qubit"):
        project_out(s, "q", z[0])


def test_tensor_keeps_the_size_cap():
    s = StateVector(tuple("abc"), np.ones(8))
    with pytest.raises(ValueError, match="does not fit register"):
        s.tensor(StateVector(tuple("de"), np.ones(4)))


# ------------------------------------------------------ measurements

def test_fidelity_is_permutation_invariant():
    rng = np.random.default_rng(3)
    u = random_state(rng, ("p", "q"))
    v = random_state(rng, ("p", "q"))
    direct = fidelity(u, v)
    assert fidelity(u, v.permuted(("q", "p"))) == pytest.approx(direct, abs=1e-12)
    assert fidelity(u, u) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_requires_normalized_inputs():
    u = StateVector(("q",), [2.0, 0.0])
    v = StateVector.basis(("q",), "0")
    with pytest.raises(ValueError):
        fidelity(u, v)


def test_fidelity_requires_the_same_register():
    u = StateVector.basis(("A", "B"), "00")
    v = StateVector.basis(("A", "C"), "00")
    with pytest.raises(ValueError, match=re.escape(
            "registers differ: ('A', 'B') vs ('A', 'C')")):
        fidelity(u, v)


def test_project_out_conditions_and_renormalizes():
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    s = StateVector(("p", "q"), [1.0, 2.0, 0.0, 0.0]).normalized()
    out = project_out(s, "q", plus)
    assert out.qubits == ("p",)
    assert out.norm() == pytest.approx(1.0)
    assert np.allclose(out.amps, [1.0, 0.0])


def test_project_out_zero_weight_raises():
    s = StateVector.basis(("p", "q"), "00")
    with pytest.raises(ValueError):
        project_out(s, "q", np.array([0.0, 1.0]))


def test_measure_qubit_threshold_convention():
    z = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    s = StateVector(("q", "r"), [math.sqrt(0.3), 0, 0, math.sqrt(0.7)])
    out0, red0 = measure_qubit(s, "q", z, 0.2999)
    out1, red1 = measure_qubit(s, "q", z, 0.3001)
    assert (out0, out1) == (0, 1)
    assert red0.qubits == ("r",) and red1.qubits == ("r",)
    assert np.allclose(red0.amps, [1.0, 0.0])
    assert np.allclose(red1.amps, [0.0, 1.0])


def test_measure_qubit_on_eigenstate_ignores_deviate():
    z = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    s = StateVector.basis(("q", "r"), "10")
    for u in (0.0, 0.5, 0.999999):
        out, _ = measure_qubit(s, "q", z, u)
        assert out == 1


def test_measure_qubit_rejects_bad_deviate():
    z = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    s = StateVector.basis(("q",), "0").tensor(StateVector.basis(("r",), "0"))
    with pytest.raises(ValueError):
        measure_qubit(s, "q", z, 1.0)


def test_measure_qubit_rejects_a_state_without_weight():
    z = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    s = StateVector(("q", "r"), np.zeros(4))
    with pytest.raises(ValueError, match=re.escape(
            "state has no weight in the measurement basis")):
        measure_qubit(s, "q", z, 0.5)


def test_expectation_on_product_state():
    plus = StateVector(("q",), np.array([1.0, 1.0]) / math.sqrt(2.0))
    s = plus.tensor(StateVector.basis(("r",), "0"))
    assert expectation(s, SX, "q") == pytest.approx(1.0)
    assert expectation(s, SX, "r") == pytest.approx(0.0)
    assert expectation(s, qmath.SZ, "r") == pytest.approx(1.0)


def test_haar_state_is_deterministic_and_normalized():
    normals = np.arange(8, dtype=float) - 3.5
    a = haar_state(("p", "q"), normals)
    b = haar_state(("p", "q"), normals)
    assert np.array_equal(a.amps, b.amps)
    assert a.norm() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        haar_state(("p", "q"), np.zeros(6))


# ---------------------------------------------- lengths at any scale
#
# pyproject.toml turns every RuntimeWarning into an error, so each test
# here also shows that no overflow or underflow is reported on the way.

Z_BASIS = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
EPS = np.finfo(float).eps


@pytest.mark.parametrize("m", [1e-170, 1e200])
def test_haar_state_normalizes_at_any_scale(m):
    """The state of eight equal deviates is the same at every scale,
    also where their squares underflow (1e-170) or overflow (1e200)."""
    want = haar_state(("A", "B"), np.ones(8)).amps
    got = haar_state(("A", "B"), np.full(8, m))
    assert abs(got.norm() - 1.0) <= 2 * EPS
    assert np.abs(got.amps - want).max() <= 2 * EPS


@pytest.mark.parametrize("build", [
    lambda: StateVector(("A", "B"), [1.3e308, 1.3e308, 0.0, 0.0]),
    lambda: StateVector(("A", "B"), [1.5e308] * 4),
    lambda: haar_state(("A", "B"), np.full(8, 1.5e308)),
    lambda: StateVector(("x",), [1.3e154, 1.3e154]).tensor(
        StateVector(("y",), [1.3e154, 1.3e154])),
], ids=["constructor", "four_equal", "haar_state", "tensor"])
def test_a_length_above_the_largest_double_is_refused(build):
    """Finite amplitudes whose length is no double: one error line, not
    a state that normalizes to zeros."""
    with pytest.raises(ValueError,
                       match="^state length exceeds the largest double$"):
        build()


@pytest.mark.parametrize("amps", [[math.inf, 0.0], [0.0, math.nan],
                                  [complex(math.nan, math.inf), 1e308]])
def test_inf_and_nan_amplitudes_are_refused(amps):
    with pytest.raises(ValueError, match="^non-finite amplitude$"):
        StateVector(("A",), amps)


def test_normalized_keeps_a_state_whose_squares_overflow():
    got = StateVector(("A",), [1e200, 1e200]).normalized()
    assert np.abs(got.amps - math.sqrt(0.5)).max() <= 2 * EPS
    assert abs(got.norm() - 1.0) <= 2 * EPS


@pytest.mark.parametrize("m", [1e-170, 1e200])
def test_measure_qubit_at_any_scale(m):
    """``m (|00> + |11>)``: each outcome below and above the even split,
    and a unit post state."""
    s = StateVector(("A", "B"), [m, 0.0, 0.0, m])
    for u, outcome, amps in ((0.25, 0, [1.0, 0.0]), (0.75, 1, [0.0, 1.0])):
        got, post = measure_qubit(s, "A", Z_BASIS, u)
        assert got == outcome
        assert post.qubits == ("B",)
        assert np.array_equal(post.amps, amps)
        assert post.norm() == 1.0


magnitudes = st.floats(1e-300, 1e300)


@given(st.lists(st.tuples(magnitudes, st.booleans()), min_size=8,
                max_size=8),
       st.floats(0.0, 1.0, exclude_max=True))
def test_lengths_hold_from_1e_300_to_1e300(parts, u):
    """Eight deviates, each of any magnitude in [1e-300, 1e300]: the
    normalized state and the post state of a measurement on the raw
    vector have norm 1 within a few ulps, and every state's ``norm()``
    is its length bit for bit."""
    z = np.array([-m if negative else m for m, negative in parts])
    unit = haar_state(("A", "B"), z)
    assert abs(unit.norm() - 1.0) <= 2 * EPS
    raw = StateVector(("A", "B"), z[:4] + 1j * z[4:])
    _, post = measure_qubit(raw, "A", Z_BASIS, u)
    assert abs(post.norm() - 1.0) <= 2 * EPS
    for s in (unit, raw, post):
        assert s.norm() == qmath._length(s.amps)


# ------------------------------------------------- property checks

@given(st.integers(0, 2 ** 32 - 1))
def test_measurement_probabilities_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    s = random_state(rng, ("p", "q"))
    x = (np.array([1.0, 1.0]) / math.sqrt(2), np.array([1.0, -1.0]) / math.sqrt(2))
    _, r0 = measure_qubit(s, "p", x, 0.0)
    _, r1 = measure_qubit(s, "p", x, 0.999999999)
    assert r0.norm() == pytest.approx(1.0, abs=1e-12)
    assert r1.norm() == pytest.approx(1.0, abs=1e-12)
    p_plus = expectation(s, (np.eye(2) + SX) / 2.0, "p")
    p_minus = expectation(s, (np.eye(2) - SX) / 2.0, "p")
    assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
def test_unitaries_preserve_inner_products(seed):
    rng = np.random.default_rng(seed)
    u = random_state(rng, ("p", "q"))
    v = random_state(rng, ("p", "q"))
    before = fidelity(u, v)
    gu = apply_gate(apply_gate(u, CZ, ("p", "q")), H.astype(complex), ("q",))
    gv = apply_gate(apply_gate(v, CZ, ("p", "q")), H.astype(complex), ("q",))
    assert fidelity(gu, gv) == pytest.approx(before, abs=1e-12)


# ------------------------------------- layout against dense operators

REGISTER = ("p", "q", "r", "s")

#: Every ordered tuple of distinct targets in REGISTER, of every length.
TARGET_TUPLES = [t for k in range(1, 5)
                 for t in itertools.permutations(REGISTER, k)]


def _layout(targets):
    """Permutation matrix taking register amplitudes to the order
    ``targets`` first, then the other qubits in register order."""
    order = list(targets) + [q for q in REGISTER if q not in targets]
    perm = np.zeros((16, 16))
    for i in range(16):
        bits = format(i, "04b")
        new = "".join(bits[REGISTER.index(q)] for q in order)
        perm[int(new, 2), i] = 1.0
    return perm


def _dense(op, targets):
    """``op`` on ``targets``, identity elsewhere, as a 16x16 matrix."""
    perm = _layout(targets)
    full = np.kron(op, np.eye(2 ** (4 - len(targets))))
    return perm.T @ full @ perm


def _complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0, exclude_max=True))
def test_layout_matches_dense_operators(seed, u):
    rng = np.random.default_rng(seed)
    s = random_state(rng, REGISTER)
    for targets in TARGET_TUPLES:
        g = _complex_normal(rng, 2 ** len(targets), 2 ** len(targets))
        got = apply_gate(s, g, targets)
        assert got.qubits == REGISTER
        assert np.abs(got.amps - _dense(g, targets) @ s.amps).max() <= 1e-12
        if len(targets) > 1:
            continue
        (q,) = targets
        rest = tuple(x for x in REGISTER if x != q)
        h = _complex_normal(rng, 2, 2)
        h = h + h.conj().T
        want = np.vdot(s.amps, _dense(h, targets) @ s.amps).real
        assert abs(expectation(s, h, q) - want) <= 1e-12
        basis, _ = np.linalg.qr(_complex_normal(rng, 2, 2))
        # row j of `rows` is <basis_j|_q psi> on the remaining qubits
        rows = basis.conj().T @ (_layout(targets) @ s.amps).reshape(2, 8)
        weight = np.sum(np.abs(rows) ** 2, axis=1)
        outcome, post = measure_qubit(s, q, (basis[:, 0], basis[:, 1]), u)
        assert outcome == (0 if u < weight[0] / weight.sum() else 1)
        want = rows[outcome] / math.sqrt(weight[outcome])
        assert post.qubits == rest
        assert np.abs(post.amps - want).max() <= 1e-12
        projected = project_out(s, q, basis[:, 1])
        assert projected.qubits == rest
        assert np.abs(projected.amps - rows[1] / math.sqrt(weight[1])).max() \
            <= 1e-12
