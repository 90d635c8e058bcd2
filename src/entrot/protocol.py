"""The two-party protocol that burns one partial pair per gate attempt.

Alice holds qubits ``a`` (her half of the resource pair) and ``A`` (her
half of the data register); Bob holds ``B`` and ``b``.  The full
simulation register is ordered ``(a, A, B, b)``.  One attempt runs:

1. Alice entangles ``a`` with ``A`` via a controlled phase, measures
   ``a`` in the x basis and sends the sign to Bob.
2. Bob flips the sign of his resource qubit when Alice saw ``-1``.
3. Bob entangles ``b`` with ``B`` via a controlled phase.
4. Bob measures ``b`` with the three-element POVM.  Outcomes 1 and 2
   implement the target rotation (outcome 2 up to a sign both parties
   remove with local ``sz`` gates after Bob's message); outcome 3 fails,
   leaving a weaker rotation by a known angle ``theta_f``.

On failure the parties may spend one Bell pair to apply the missing
``theta - theta_f`` rotation with certainty (deterministic mode), since
at ``alpha = pi/2`` the POVM becomes projective and never fails.

Every function that resolves a measurement takes an explicit uniform
deviate ``u`` instead of an RNG, so the steps stay pure and testable;
:func:`run_once` owns the seeded generator and documents the draw
order.  The step order is written once, in the walk behind
:func:`run_once`, which the batch engine's transcript table follows too.
Classical communication is explicit: cross-party influence only
ever happens through the message objects returned by the steps.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import qmath
from .povm import (HALF_PI, PovmSet, PovmWeights, ProtocolParams, _check_alpha,
                   build_povm, povm_vectors)
from .qmath import StateVector

__all__ = [
    "BasisResult",
    "ClassicalMessage",
    "CONTROLLED_PHASE",
    "PovmResult",
    "ResidualGate",
    "RunOutcome",
    "XResult",
    "controlled_rotation",
    "failure_residual",
    "finish_success",
    "initial_register",
    "prepare_resource",
    "recover_with_bell",
    "run_once",
    "step1_alice",
    "step2_bob",
    "step3_bob",
    "step4_bob_povm",
    "wrap_angle",
]

REGISTER_ORDER = ("a", "A", "B", "b")

#: Branches whose Born weight falls below this are never sampled.  This
#: only matters at a Bell resource, where the failure element is an
#: exact zero up to round-off and its Kraus update would be degenerate.
BRANCH_MIN_PROB = 1e-12

CONTROLLED_PHASE = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)

_X_BASIS = (np.array([1.0, 1.0]) / math.sqrt(2.0),
            np.array([1.0, -1.0]) / math.sqrt(2.0))
_Z_BASIS = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def controlled_rotation(theta: float) -> np.ndarray:
    """The target two-qubit gate ``cos(t/2) I + i sin(t/2) sz x sz``."""
    return math.cos(theta / 2.0) * np.eye(4, dtype=complex) \
        + 1j * math.sin(theta / 2.0) * np.diag([1.0, -1.0, -1.0, 1.0])


def wrap_angle(angle: float) -> float:
    """Map an angle to (-pi, pi]; the gate only depends on this residue
    up to a global sign."""
    w = math.remainder(angle, 2.0 * math.pi)
    return math.pi if w == -math.pi else w


@dataclass(frozen=True)
class XResult:
    """Alice's x-basis outcome on ``a``; sent Alice -> Bob."""

    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")


@dataclass(frozen=True)
class PovmResult:
    """Bob's POVM branch when Alice must act on it; sent Bob -> Alice."""

    branch: int

    def __post_init__(self):
        if self.branch not in (1, 2, 3):
            raise ValueError(f"branch must be 1, 2 or 3, got {self.branch!r}")


@dataclass(frozen=True)
class BasisResult:
    """Bob's computational-basis outcome on ``b`` after a failure."""

    bit: int

    def __post_init__(self):
        if self.bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {self.bit!r}")


ClassicalMessage = Union[XResult, PovmResult, BasisResult]


@dataclass(frozen=True)
class ResidualGate:
    """What a failed attempt actually applied: a rotation by ``theta_f``.

    ``theta_f`` lies in (-pi, pi] and is known exactly to both parties
    once Bob announces ``b_outcome``, because it only depends on the
    (public) POVM and that outcome, never on the data state.
    """

    theta_f: float
    b_outcome: int


@dataclass(frozen=True, eq=False)
class RunOutcome:
    """Everything observable from one protocol attempt."""

    branch: int
    transcript: tuple[ClassicalMessage, ...]
    final_state: StateVector
    residual: ResidualGate | None
    bell_pairs_consumed: int
    rng_seed: int


def prepare_resource(alpha: float) -> StateVector:
    """The shared pair ``cos(a/2)|00> + i sin(a/2)|11>`` on ``(a, b)``."""
    _check_alpha(alpha)
    amps = [math.cos(alpha / 2.0), 0.0, 0.0, 1j * math.sin(alpha / 2.0)]
    return StateVector(("a", "b"), amps)


def _check_input(input_state: StateVector) -> None:
    """Reject a data state that is not a normalized state of ``A``, ``B``."""
    if set(input_state.qubits) != {"A", "B"}:
        raise ValueError(f"input must live on qubits A and B, got {input_state.qubits}")
    if abs(input_state.norm() - 1.0) > qmath._UNIT_TOL:
        raise ValueError("input state must be normalized")


def initial_register(alpha: float, input_state: StateVector) -> StateVector:
    """Adjoin a fresh resource pair to the data state, order (a, A, B, b)."""
    _check_input(input_state)
    return prepare_resource(alpha).tensor(input_state).permuted(REGISTER_ORDER)


def step1_alice(register: StateVector, u: float) -> tuple[StateVector, XResult]:
    """Alice's move: controlled phase on (a, A), then measure ``a`` in x.

    Returns the register without ``a`` and the message for Bob.  Either
    sign occurs with probability 1/2 whatever the data state is.
    """
    reg = qmath.apply_gate(register, CONTROLLED_PHASE, ("a", "A"))
    outcome, reg = qmath.measure_qubit(reg, "a", _X_BASIS, u)
    return reg, XResult(1 if outcome == 0 else -1)


def step2_bob(register: StateVector, message: XResult) -> StateVector:
    """Bob undoes the sign left by Alice's ``-1`` outcome with sz on ``b``."""
    if not isinstance(message, XResult):
        raise TypeError(f"step 2 consumes an XResult, got {type(message).__name__}")
    if message.sign == 1:
        return register
    return qmath.apply_gate(register, qmath.SZ, ("b",))


def step3_bob(register: StateVector) -> StateVector:
    """Bob's controlled phase on (b, B), completing the entangled carrier."""
    return qmath.apply_gate(register, CONTROLLED_PHASE, ("b", "B"))


def step4_bob_povm(register: StateVector, povm: PovmSet,
                   u: float) -> tuple[int, StateVector]:
    """Bob measures ``b`` with the three-element POVM.

    Branch selection: 1 when ``u < p1``, 2 when ``u < p1 + p2``, else 3
    (branches below ``BRANCH_MIN_PROB`` are never selected).  The success
    elements are rank one, ``E_i = w_i v_i v_i^T``, so a success outcome
    is the projection of ``b`` onto ``v_i / |v_i|``, after which ``b`` is
    removed.  Branch 3 applies the Kraus operator ``sqrt(E3)`` and keeps
    ``b`` so the failure analysis can measure it.
    """
    if not povm.positive:
        # + 0.0: equal weights share one set, so -0.0 and 0.0 print alike
        raise ValueError(
            f"weights ({povm.weights.x + 0.0}, {povm.weights.y + 0.0}) give a "
            f"non-positive POVM (min eigenvalue {povm.min_eig_e3:.3e})")
    if not 0.0 <= u < 1.0:
        raise ValueError(f"uniform deviate {u} outside [0, 1)")
    p1 = qmath.expectation(register, povm.e1, "b")
    p2 = qmath.expectation(register, povm.e2, "b")
    p3 = 1.0 - p1 - p2
    if u < p1:
        branch = 1
    elif u < p1 + p2:
        branch = 2
    elif p3 >= BRANCH_MIN_PROB:
        branch = 3
    else:
        # Round-off tail of a vanishing failure element: fold it into
        # the heavier success branch instead of a degenerate update.
        branch = 2 if p2 >= BRANCH_MIN_PROB else 1
    if branch == 3:
        reg = qmath.apply_gate(register, povm.sqrt_e3, ("b",)).normalized()
        return branch, reg
    # the other branch's vector is never normalized, as it may overflow at
    # a tiny alpha
    v = povm_vectors(povm.params)[branch - 1]
    return branch, qmath.project_out(register, "b", v / qmath._length(v))


def finish_success(branch: int, register: StateVector
                   ) -> tuple[StateVector, list[ClassicalMessage]]:
    """Local corrections after a success branch.

    Branch 1 already carries the target gate; nothing to do and nothing
    to say.  Branch 2 carries it up to ``sz x sz`` (and a global phase),
    so Bob announces the branch and each party applies ``sz`` to its own
    data qubit.
    """
    if branch == 1:
        return register, []
    if branch != 2:
        raise ValueError(f"finish_success handles branches 1 and 2, got {branch!r}")
    reg = qmath.apply_gate(register, qmath.SZ, ("B",))   # Bob's correction
    reg = qmath.apply_gate(reg, qmath.SZ, ("A",))        # Alice's, after the message
    return reg, [PovmResult(2)]


def _failure_law(povm: PovmSet) -> tuple[float, tuple[float, float]]:
    """The failure's ``b`` law and the rotation each outcome leaves.

    Row ``j`` of the PSD square root of ``E3``, scaled by the resource
    half-angle cosine/sine ``c, s``, is the arm ``(c r_j0, s r_j1)``.  It
    puts weight ``c^2 r_j0^2 + s^2 r_j1^2`` on ``b = j`` whatever the data
    state, and a rotation by ``theta_f = 2 atan2(s r_j1, c r_j0)`` on the
    data.  Returns the normalized weight of ``b = 0`` and ``theta_f`` per
    outcome.
    """
    c = povm.params.cos_half_alpha
    s = povm.params.sin_half_alpha
    arms = [(c * r0, s * r1) for r0, r1 in povm.sqrt_e3.real.tolist()]
    w0, w1 = (x * x + y * y for x, y in arms)
    return w0 / (w0 + w1), tuple(wrap_angle(2.0 * math.atan2(y, x))
                                 for x, y in arms)


def failure_residual(register: StateVector, povm: PovmSet,
                     u: float) -> tuple[ResidualGate, StateVector]:
    """Bob measures the leftover ``b`` and names the rotation that acted.

    After the branch-3 Kraus update the register is a superposition of
    ``|j>_b`` tensored with ``M_j |data>``, where ``M_j`` is built from
    row ``j`` of the PSD square root of ``E3``.  Each ``M_j`` is itself
    proportional to a rotation by a ``theta_f`` of
    :func:`_failure_law`, so measuring ``b`` collapses the data register
    to a definite, known residual gate.
    """
    j, reduced = qmath.measure_qubit(register, "b", _Z_BASIS, u)
    return ResidualGate(theta_f=_failure_law(povm)[1][j], b_outcome=j), reduced


def _recovery(theta_remaining: float
              ) -> tuple[ProtocolParams, PovmWeights] | None:
    """The attempt that applies ``theta_remaining`` with certainty, or
    None when nothing remains.  At a Bell resource (``alpha = pi/2``)
    the POVM with weights (1/2, 1/2) is projective: its failure element
    vanishes and both branches succeed."""
    if theta_remaining == 0.0:
        return None
    return ProtocolParams(theta_remaining, HALF_PI), PovmWeights(0.5, 0.5)


def recover_with_bell(state: StateVector, theta_remaining: float,
                      u_x: float, u_povm: float
                      ) -> tuple[StateVector, list[ClassicalMessage], int]:
    """Apply the missing rotation with certainty by spending a Bell pair.

    Runs the :func:`_recovery` attempt on ``state`` with draws ``u_x``
    and ``u_povm``.  A zero ``theta_remaining`` is a no-op and consumes
    nothing.  Returns the new state, the recovery messages and the
    number of pairs spent.
    """
    attempt = _recovery(theta_remaining)
    if attempt is None:
        return state, [], 0
    _, _, messages, state, _, _ = next(
        _walk(*attempt, state, _given((u_x, u_povm))))
    return state, messages, 1


def _rng_from_seed(seed: int, channel: int = 0) -> np.random.Generator:
    """Counter-based generator for one purpose-specific stream of ``seed``.

    The channel fills the high 64 bits of the Philox key.  Channel 0 is
    the plain keying :func:`run_once` uses; the batch engine draws from
    another channel so its stream never overlaps a single run's.
    """
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=int(seed) + (channel << 64)))


def _walk(params: ProtocolParams, weights: PovmWeights,
          input_state: StateVector, pick):
    """Run one attempt down every outcome that ``pick`` offers.

    ``pick(column, povm)`` gives ``(bin, u)`` pairs for draw column 0
    (Alice's x outcome), 1 (POVM branch) or 2 (failure b outcome); it is
    asked for a column only when the attempt reaches it.  Prefixes are
    shared: steps 1-3 run once per sign and the POVM once per branch.
    Yields ``(bins, branch, messages, state, residual, owed)`` per leaf,
    where ``bins`` holds the bin of each column read, and ``residual``
    and the rotation ``owed`` to complete the gate, ``theta - theta_f``
    wrapped, are None after a success.
    """
    povm = build_povm(params, weights)
    start = initial_register(params.alpha, input_state)
    for i, u_x in pick(0, povm):
        reg, xmsg = step1_alice(start, u_x)
        reg = step3_bob(step2_bob(reg, xmsg))
        for k, u_povm in pick(1, povm):
            branch, post = step4_bob_povm(reg, povm, u_povm)
            if branch != 3:
                done, messages = finish_success(branch, post)
                yield (i, k), branch, [xmsg, *messages], done, None, None
                continue
            for j, u_b in pick(2, povm):
                residual, rest = failure_residual(post, povm, u_b)
                owed = wrap_angle(params.theta - residual.theta_f)
                yield ((i, k, j), branch,
                       [xmsg, PovmResult(3), BasisResult(residual.b_outcome)],
                       rest, residual, owed)


def _given(draws: Sequence[float]):
    """The pick of an attempt whose uniforms are drawn: one bin per
    column, holding that column's draw."""
    return lambda column, _povm: ((0, draws[column]),)


def _execute(params: ProtocolParams, weights: PovmWeights,
             input_state: StateVector, draws: Sequence[float],
             deterministic: bool, seed: int) -> RunOutcome:
    """Run one attempt with its uniforms already drawn.

    Draw layout (entries past those the attempt reads may be left out):
    0 Alice's x outcome, 1 POVM branch, 2 failure b outcome,
    3 recovery x outcome, 4 recovery branch.
    """
    _, branch, transcript, reg, residual, owed = next(
        _walk(params, weights, input_state, _given(draws)))
    bell = 0
    if owed is not None and deterministic:
        reg, messages, bell = recover_with_bell(reg, owed, draws[3], draws[4])
        transcript += messages
    return RunOutcome(branch=branch, transcript=tuple(transcript),
                      final_state=reg, residual=residual,
                      bell_pairs_consumed=bell, rng_seed=seed)


def run_once(params: ProtocolParams, weights: PovmWeights,
             input_state: StateVector, seed: int,
             deterministic: bool = False) -> RunOutcome:
    """One full protocol attempt on ``input_state`` (qubits ``A``, ``B``).

    All randomness comes from a counter-based generator keyed by
    ``seed``; identical seeds reproduce the transcript and outcome
    bit for bit.  With ``deterministic=True`` a failed attempt is
    completed by :func:`recover_with_bell`, so the returned state always
    carries the full target rotation.
    """
    rng = _rng_from_seed(seed)
    return _execute(params, weights, input_state, rng.random(5),
                    deterministic, int(seed))
