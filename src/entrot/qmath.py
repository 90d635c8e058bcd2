"""Small dense linear algebra for few-qubit state vectors.

Everything here works on plain numpy arrays plus a tiny immutable
:class:`StateVector` wrapper that tracks qubit labels.  Registers are
limited to four qubits (dimension 16), which is all the protocol ever
needs.  The qubit listed first is the most significant bit of the
amplitude index, matching the usual ``kron`` convention.

Every operation on named qubits sees the register through one layout
(:func:`_front`): the amplitudes as a ``(2**k, rest)`` matrix whose rows
are indexed by the ``k`` target qubits and whose columns by the others,
in register order.  A gate is then one matrix product, a projection a
row vector times the matrix.

All operations are pure: they return new values and never mutate their
inputs.  Randomness never enters this module; sampling decisions are
made by callers who pass an explicit uniform deviate where needed.

The public :class:`StateVector` constructor checks everything.  Results
of pure operations on states that are already valid (a gate, a
normalization, a relabelling, a product, a reduced state) go through
the private ``StateVector._of`` instead.  Their labels are unique and
their size fits by construction (``tensor`` checks a product's size
itself), so ``_of`` checks only that the amplitudes are finite, which
catches overflow at a tiny ``alpha``.  Each register layout is computed
once per (register, targets) pair (:func:`_layout`).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SZ",
    "StateVector",
    "apply_gate",
    "expectation",
    "fidelity",
    "haar_state",
    "measure_qubit",
    "project_out",
    "psd_sqrt2",
]

MAX_DIM = 16

#: Tolerance below which a matrix is accepted as Hermitian.
HERMITIAN_TOL = 1e-12

#: Eigenvalues in [-CLAMP_TOL, 0) are treated as exact zeros by psd_sqrt2.
CLAMP_TOL = 1e-9

SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


# Public and by this name: perfbench/run.py traces it (tests/test_api.py).
def psd_sqrt2(m: np.ndarray) -> np.ndarray:
    """Unique positive-semidefinite square root of a 2x2 Hermitian PSD matrix.

    Raises ``ValueError`` when the input is not Hermitian within
    ``HERMITIAN_TOL``.  Eigenvalues in ``[-CLAMP_TOL, 0)`` are clamped to
    zero (they arise from round-off when the matrix sits on the positivity
    boundary); anything more negative raises ``ValueError``.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if np.abs(m - m.conj().T).max() > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within 1e-12")
    w, v = np.linalg.eigh(m)
    if w[0] < -CLAMP_TOL:
        raise ValueError(f"matrix is not PSD: smallest eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


class StateVector:
    """Immutable pure state on a labelled qubit register.

    Parameters
    ----------
    qubits:
        Label for every qubit, most significant first.  Labels must be
        unique; the register may hold at most four qubits.
    amps:
        Complex amplitudes of length ``2**len(qubits)``.  No normalization
        is imposed here because intermediate Kraus updates legitimately
        produce sub-normalized vectors; use :meth:`normalized` when a unit
        vector is required.
    """

    __slots__ = ("qubits", "amps")

    def __init__(self, qubits: Sequence[str], amps: Iterable[complex]):
        qubits = tuple(qubits)
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit labels in {qubits}")
        amps = np.array(list(amps) if not isinstance(amps, np.ndarray) else amps,
                        dtype=complex).reshape(-1)
        if amps.size != 2 ** len(qubits) or amps.size > MAX_DIM or not qubits:
            raise ValueError(
                f"amplitude count {amps.size} does not fit register {qubits}"
            )
        self._fill(qubits, amps)

    @classmethod
    def _of(cls, qubits: tuple[str, ...], amps: np.ndarray) -> "StateVector":
        """A state from a pure operation on valid states: ``qubits`` a
        tuple of unique labels and ``amps`` a flat complex array of the
        matching size, which nothing else writes to."""
        self = object.__new__(cls)
        self._fill(qubits, amps)
        return self

    def _fill(self, qubits: tuple[str, ...], amps: np.ndarray) -> None:
        """The check both constructors keep, then the frozen fields."""
        if not np.isfinite(amps).all():
            raise ValueError("non-finite amplitude")
        amps.flags.writeable = False
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "amps", amps)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("StateVector is immutable")

    @classmethod
    def basis(cls, qubits: Sequence[str], bits: str) -> "StateVector":
        """Computational basis state, e.g. ``basis(("A", "B"), "01")``."""
        qubits = tuple(qubits)
        if len(bits) != len(qubits) or any(b not in "01" for b in bits):
            raise ValueError(f"bit string {bits!r} does not match {qubits}")
        amps = np.zeros(2 ** len(qubits), dtype=complex)
        amps[int(bits, 2)] = 1.0
        return cls(qubits, amps)

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        # the two real dots np.linalg.norm takes for a complex vector
        re, im = self.amps.real, self.amps.imag
        return math.sqrt(re.dot(re) + im.dot(im))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n < 1e-300:
            raise ValueError("cannot normalize a zero state")
        return StateVector._of(self.qubits, self.amps / n)

    def tensor(self, other: "StateVector") -> "StateVector":
        """Product state; ``self`` supplies the most significant qubits."""
        if set(self.qubits) & set(other.qubits):
            raise ValueError("tensor operands share qubit labels")
        qubits = self.qubits + other.qubits
        amps = np.multiply.outer(self.amps, other.amps).reshape(-1)
        if amps.size > MAX_DIM:
            raise ValueError(
                f"amplitude count {amps.size} does not fit register {qubits}")
        return StateVector._of(qubits, amps)

    def permuted(self, order: Sequence[str]) -> "StateVector":
        """Same state with the register relabelled into ``order``."""
        order = tuple(order)
        if sorted(order) != sorted(self.qubits):
            raise ValueError(f"{order} is not a permutation of {self.qubits}")
        return StateVector._of(order, _front(self, order)[0].reshape(-1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateVector(qubits={self.qubits}, amps={np.array2string(self.amps, precision=5)})"


@lru_cache(maxsize=256)
def _layout(qubits: tuple[str, ...], targets: tuple[str, ...]
            ) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """``(order, rows, inverse)`` of :func:`_front`'s layout: the axis
    order that puts ``targets`` first, the row count ``2**len(targets)``
    and the axis order that undoes it."""
    for q in targets:
        if q not in qubits:
            raise ValueError(f"no qubit {q!r} in register {qubits}")
    axes = [qubits.index(q) for q in targets]
    order = tuple(axes + [i for i in range(len(qubits)) if i not in axes])
    inverse = tuple(sorted(range(len(order)), key=order.__getitem__))
    return order, 2 ** len(axes), inverse


def _front(state: StateVector,
           targets: Sequence[str]) -> tuple[np.ndarray, tuple[int, ...]]:
    """The amplitudes as a ``(2**k, rest)`` matrix for ``k`` targets.

    Rows are indexed by the targets (``targets[0]`` most significant),
    columns by the other qubits in register order.  Also returns the
    axis order that takes the matrix's axes back to register order.
    """
    order, rows, inverse = _layout(state.qubits, tuple(targets))
    psi = state.amps.reshape((2,) * len(state.qubits)).transpose(order)
    return psi.reshape(rows, -1), inverse


def apply_gate(state: StateVector, gate: np.ndarray,
               targets: Sequence[str]) -> StateVector:
    """Apply an operator to the named target qubits.

    ``gate`` must be square with dimension ``2**len(targets)``; its first
    tensor factor acts on ``targets[0]``.  The gate is not required to be
    unitary (Kraus updates use this too), so the output norm equals the
    input norm only for unitary gates.
    """
    gate = np.asarray(gate, dtype=complex)
    k = len(targets)
    if gate.shape != (2 ** k, 2 ** k):
        raise ValueError(f"gate shape {gate.shape} does not act on {k} qubit(s)")
    m, inverse = _front(state, targets)
    out = (gate @ m).reshape((2,) * len(state.qubits)).transpose(inverse)
    return StateVector._of(state.qubits, out.reshape(-1))


def fidelity(u: StateVector, v: StateVector) -> float:
    """Squared overlap ``|<u|v>|**2``; insensitive to global phase.

    Both states must be normalized and live on the same set of qubits
    (``v`` is permuted to match ``u`` if the orders differ).
    """
    if set(u.qubits) != set(v.qubits):
        raise ValueError(f"registers differ: {u.qubits} vs {v.qubits}")
    if abs(u.norm() - 1.0) > 1e-9 or abs(v.norm() - 1.0) > 1e-9:
        raise ValueError("fidelity requires normalized states")
    if v.qubits != u.qubits:
        v = v.permuted(u.qubits)
    return float(abs(np.vdot(u.amps, v.amps)) ** 2)


def _contract(state: StateVector, qubit: str, vector: np.ndarray) -> np.ndarray:
    """Amplitudes of ``<vector|_qubit psi>`` on the remaining qubits."""
    bra = np.conj(np.asarray(vector, dtype=complex))
    return bra @ _front(state, (qubit,))[0]


def _rest(state: StateVector, qubit: str) -> tuple[str, ...]:
    """The labels left after removing ``qubit``, of which there must be
    at least one."""
    rest = tuple(q for q in state.qubits if q != qubit)
    if not rest:
        raise ValueError("cannot remove the last qubit of a register")
    return rest


def project_out(state: StateVector, qubit: str, vector: np.ndarray) -> StateVector:
    """Project ``qubit`` onto the single-qubit state ``vector`` and drop it.

    Returns the normalized conditional state of the remaining qubits.
    Raises when the projection has (numerically) zero weight.
    """
    rest = _rest(state, qubit)
    return StateVector._of(rest, _contract(state, qubit, vector)).normalized()


def measure_qubit(state: StateVector, qubit: str,
                  basis: Sequence[np.ndarray], u: float) -> tuple[int, StateVector]:
    """Projectively measure one qubit in a two-element orthonormal basis.

    The Born weights are computed from the state; the caller supplies a
    uniform deviate ``u`` in [0, 1) and the outcome is 0 when
    ``u < p0 / (p0 + p1)``.  Returns ``(outcome, post)`` where ``post`` is
    the normalized state of the remaining qubits (the measured qubit is
    removed from the register).
    """
    if not 0.0 <= u < 1.0:
        raise ValueError(f"uniform deviate {u} outside [0, 1)")
    rest = _rest(state, qubit)
    r0, r1 = (_contract(state, qubit, v) for v in basis[:2])
    p0 = float(np.vdot(r0, r0).real)
    p1 = float(np.vdot(r1, r1).real)
    if p0 + p1 < 1e-300:
        raise ValueError("state has no weight in the measurement basis")
    outcome = 0 if u < p0 / (p0 + p1) else 1
    reduced = r0 if outcome == 0 else r1
    return outcome, StateVector._of(rest, reduced).normalized()


def expectation(state: StateVector, op: np.ndarray, qubit: str) -> float:
    """Real expectation value of a Hermitian single-qubit operator."""
    m, _ = _front(state, (qubit,))
    return float(np.vdot(m, np.asarray(op, dtype=complex) @ m).real)


def haar_state(qubits: Sequence[str], normals: np.ndarray) -> StateVector:
    """Build a Haar-random state from 2*dim standard normal deviates.

    ``normals`` supplies the real parts first, then the imaginary parts.
    Deterministic given the deviates, which keeps sampling reproducible.
    """
    qubits = tuple(qubits)
    d = 2 ** len(qubits)
    z = np.asarray(normals, dtype=float)
    if z.size != 2 * d:
        raise ValueError(f"need {2 * d} deviates, got {z.size}")
    return StateVector(qubits, z[:d] + 1j * z[d:]).normalized()
