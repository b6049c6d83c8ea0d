"""Dense statevector simulator: labels at the boundary, integer axes inside a run.

Design notes:
- A PureState carries one hashable label per qubit. apply_gate and fidelity map
  each label to its axis once, at their boundary. The kernels a run repeats,
  tensor, apply_cnots and measure, take integer axes and return Slots, amplitudes
  with no labels: mbqc and steane number every axis up front and label the
  residual once, at the end. Measurement is destructive: the measured axis is
  removed and each later axis moves down by one (nodes vanish as they are consumed).
- A measurement basis is given by its angle: None means Z (|0>, |1>), a
  float delta means M(delta), the equatorial basis
  |+/-_delta> = (|0> +/- e^{i delta} |1>)/sqrt(2). Outcome 0 always means
  collapse onto |0> or the + ("plus") branch.
- Outcomes are drawn through an OutcomeSource so the same code path serves
  seeded Born sampling and forced-branch enumeration. BornSampler draws 64 uniforms
  at a time, the stream of one draw per outcome: its rng runs up to 63 draws ahead.
- States are compared with global-phase-insensitive fidelity; nothing in
  this package should ever assert on a global phase.
- A state is an immutable value whose norm PureState checks once, where it is
  made from outside values; _state labels kernel outputs unchecked, and each
  measurement checks p0 + p1, the one norm check at run time.

The amplitude array is shaped (2,)*n with one axis per qubit, axis order matching
``labels``. A hard cap of 24 qubits keeps accidental blowups from eating the machine. Every
gate takes one kernel: the input is copied into a fresh contiguous array, and each row of
the gate that differs from the identity's is rewritten from that row's non-zero entries, one
slice of the input each, or scaled in place on the copy when its one entry is on the
diagonal (Z, Rz, CZ). CZ rewrites one row, CNOT two, H both. A run of CNOTs is a permutation
of basis states, so apply_cnots moves the amplitudes once, by a gather index that the same
kernel builds, and checks, once per run. That index is also the only source of dense unitaries:
mbqc scatters a CNOT's 1s at it, and steane gathers the encoder's H layer by it. A
measurement works in place on copies of the measured qubit's two halves (see measure). An
in-place scale takes a view on the first or last axis, else a where= mask: a ufunc over an
interior view copies the array. measure folds a last-axis CZ partner through the view itself.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractViolation, DegenerateBranchError, InputError

QUBIT_CAP = 24
_NORM_TOL = 1e-9
_UNITARY_TOL = 1e-12
_DEGENERATE_TOL = 1e-14
_INV_SQRT2 = 1.0 / math.sqrt(2)
_DRAWS = 64  # uniforms a BornSampler draws at once: 512 B

Label = object  # any hashable


# ---------------------------------------------------------------- gates ----


@dataclass(frozen=True, eq=False)
class Gate:
    """A named unitary on k qubits (matrix is 2^k x 2^k, row-major). Gates
    compare and hash by identity; compare matrices with np.array_equal.

    ``rows`` lists each output row that is not the identity's row as (row
    bits, terms): one (column bits, entry) term per non-zero entry, entry
    None when it is exactly 1. Bits hold one 0/1 per target, first target first.
    ``matrix`` is a read-only copy, so no write, by the caller or through a
    shared constant, can leave ``rows`` stale.
    """

    kind: str
    matrix: np.ndarray
    rows: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError(f"gate {self.kind}: matrix must be square, got {m.shape}")
        n = m.shape[0]
        if n & (n - 1) or n < 2:
            raise InputError(f"gate {self.kind}: dimension {n} is not a power of two")
        if not np.allclose(m @ m.conj().T, np.eye(n), atol=_UNITARY_TOL):
            raise InputError(f"gate {self.kind}: matrix is not unitary within {_UNITARY_TOL}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        bits = list(np.ndindex((2,) * self.arity))
        rows = []
        for r in np.flatnonzero((m != np.eye(n)).any(axis=1)):
            cols = np.flatnonzero(m[r])
            # a 0-d array multiplies a slice faster than a numpy scalar, same bits
            terms = tuple((bits[c], None if m[r, c] == 1 else np.array(m[r, c])) for c in cols)
            rows.append((bits[r], terms))
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def arity(self) -> int:
        return self.matrix.shape[0].bit_length() - 1


X = Gate("X", np.array([[0, 1], [1, 0]]))
Y = Gate("Y", np.array([[0, -1j], [1j, 0]]))
Z = Gate("Z", np.array([[1, 0], [0, -1]]))
H = Gate("H", np.array([[1, 1], [1, -1]]) / math.sqrt(2))
CZ = Gate("CZ", np.diag([1, 1, 1, -1]))
CNOT = Gate("CNOT", np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]))
# CZ rewrites one row, (1, 1), with one term: its -1 entry as a 0-d array;
# measure folds CZ in by the same product that _contract makes
_CZ_SIGN = CZ.rows[0][1][0][1]
_BIT = (np.array([True, False]), np.array([False, True]))  # selects one half of an axis


def rz(phi: float) -> Gate:
    """Phase rotation diag(1, e^{i phi}); new_plus_theta(t) == rz(t) H |0>."""
    return Gate(f"Rz({phi:g})", np.diag([1.0, cmath.exp(1j * phi)]))


# -------------------------------------------------------- outcome source ----


class BornSampler:
    """Samples outcomes by the Born rule from a generator seeded with an int, _DRAWS uniforms at
    a time: the doubles of one rng.random() per outcome, in order, so rng may run ahead."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self._draws: list = []  # the block's unused uniforms, the next one last

    def choose(self, p0: float, p1: float) -> int:
        if not self._draws:
            self._draws = self.rng.random(_DRAWS).tolist()[::-1]
        return 0 if self._draws.pop() < p0 else 1


class ForcedBranch:
    """Replays an explicit branch word.

    Used for exhaustive enumeration: measure raises DegenerateBranchError on
    a ~zero-probability bit after pos has moved past it, so the caller sweeps
    branch words and skips the subtrees below that prefix.
    """

    def __init__(self, bits: Sequence[int]):
        # checked before int(), which would truncate 0.5 to 0
        if any(b not in (0, 1) for b in bits):
            raise InputError("branch word must contain only bits")
        self.bits = [int(b) for b in bits]
        self.pos = 0

    def choose(self, p0: float, p1: float) -> int:
        if self.pos >= len(self.bits):
            raise InputError("branch word exhausted: more measurements than bits")
        bit = self.bits[self.pos]
        self.pos += 1
        return bit


# decides a measurement's outcome, given the two branch probabilities
OutcomeSource = BornSampler | ForcedBranch

# --------------------------------------------------------------- states ----


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized pure state over labeled qubits, as an immutable value: a read-only copy
    of the (2,)*n amplitudes it is given and a tuple of labels, so the norm checked here
    holds for its lifetime. States compare and hash by identity; compare with fidelity."""

    amps: np.ndarray
    labels: tuple = ()

    def __post_init__(self) -> None:
        amps, labels = np.array(self.amps, dtype=complex), tuple(self.labels)
        n = len(labels)
        if n > QUBIT_CAP:
            raise InputError(f"{n} qubits exceeds the cap of {QUBIT_CAP}")
        if len(set(labels)) != n:
            raise InputError("qubit labels must be unique")
        if amps.shape != (2,) * n:
            raise InputError(f"amplitudes must be shaped {(2,) * n}, got {amps.shape}")
        norm = float(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= _NORM_TOL:  # written so that NaN fails
            raise InputError(f"state norm^2 = {norm} is not 1 within {_NORM_TOL}")
        amps.setflags(write=False)
        self.__dict__.update(amps=amps, labels=labels)

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(slots=True, eq=False)
class Slots:
    """A run's state between its boundaries: the (2,)*n amplitudes alone, each qubit an integer
    axis. The run kernels return one and read any state's amps and n, as bench/spans.py does."""

    amps: np.ndarray

    @property
    def n(self) -> int:
        return self.amps.ndim


def _state(amps: np.ndarray, labels: tuple) -> PureState:
    """A state on amps, made read-only, and labels, checking nothing: amps is a kernel's fresh
    output or a checked state's shared array, so shape, labels, cap and norm hold by
    construction. The fields go straight into __dict__, the cheapest way past frozen."""
    amps.setflags(write=False)
    out = PureState.__new__(PureState)
    d = out.__dict__
    d["amps"] = amps
    d["labels"] = labels
    return out


# the two fixed one-qubit states, each checked once; tensor reads their shared
# arrays, so no caller builds or checks them again
PLUS = PureState(np.full(2, _INV_SQRT2, dtype=complex), ["+"])
ZERO = PureState(np.array([1.0, 0.0], dtype=complex), ["0"])


def qubit_state(spec) -> PureState:
    """A 1-qubit PureState, as given, or a 2-vector, copied and checked on label 0."""
    if isinstance(spec, PureState):
        if spec.n != 1:
            raise InputError(f"expected a single-qubit state, got {spec.n} qubits")
        return spec
    vec = np.asarray(spec, dtype=complex).reshape(-1)  # PureState copies it
    if vec.shape != (2,):
        raise InputError("expected a 2-vector or a 1-qubit state")
    return PureState(vec, [0])


def new_plus_theta(theta: float, label: Label = 0) -> PureState:
    """|+_theta> = (|0> + e^{i theta} |1>)/sqrt(2)."""
    amps = np.array([1.0, cmath.exp(1j * float(theta))]) / math.sqrt(2)
    return PureState(amps, [label])


def tensor(a: Slots | PureState, b: Slots | PureState) -> Slots:
    """Product state a (x) b: a's axes, then b's."""
    n = a.n + b.n
    if n > QUBIT_CAP:
        raise InputError(f"tensor would exceed the {QUBIT_CAP}-qubit cap")
    # one rank-1 matrix product of the two flat amplitude vectors
    return Slots(np.dot(a.amps.reshape(-1, 1), b.amps.reshape(1, -1)).reshape((2,) * n))


# ----------------------------------------------------------- operations ----


def apply_gate(s: PureState, g: Gate, targets: Sequence[Label]) -> PureState:
    """Apply gate g to the given target qubits (order matters for multi-qubit gates)."""
    targets = list(targets)
    if len(targets) != g.arity:
        raise InputError(f"gate {g.kind} expects {g.arity} targets, got {len(targets)}")
    if len(set(targets)) != len(targets):
        raise InputError("duplicate target labels")
    for label in targets:
        if label not in s.labels:
            raise InputError(f"qubit {label!r} is not part of this state")
    return _state(_contract(g, s.amps, [s.labels.index(lb) for lb in targets]), s.labels)


def apply_cnots(s: Slots | PureState, axes: tuple) -> Slots:
    """Apply CNOT to each (control axis, target axis) pair in axes, in order, as one gather with
    the bits of the same apply_gate calls. axes is a tuple of tuples: the index's cache key."""
    return Slots(s.amps.reshape(-1).take(_cnot_index(s.n, axes)))


@functools.lru_cache(maxsize=8)
def _cnot_index(n: int, axes: tuple) -> np.ndarray:
    """Read-only gather index of a CNOT run on n axes, its pairs checked once per key: the
    input's position of each output amplitude."""
    idx = np.arange(2**n).reshape((2,) * n)
    for c, t in axes:
        if c == t or not 0 <= c < n or not 0 <= t < n:
            raise InputError(f"CNOT on axes {c}, {t} needs two distinct axes below {n}")
        idx = _contract(CNOT, idx, [c, t])
    idx.flags.writeable = False
    return idx


def _contract(g: Gate, amps: np.ndarray, axes: list) -> np.ndarray:
    """Apply gate g to the given k axes of amps as a new C-contiguous array: each row in
    g.rows is the sum of its terms, slice * entry (entry * slice rounds differently), or
    scaled in place by _scale if its one term is on the diagonal; other rows are copies."""
    out = amps.copy()
    idx = [slice(None)] * amps.ndim
    for r, terms in g.rows:
        if len(terms) == 1 and terms[0][0] == r:
            _scale(out, sorted(zip(axes, r)), terms[0][1])
            continue
        acc = None
        for c, entry in terms:
            for ax, b in zip(axes, c):
                idx[ax] = b
            term = amps[tuple(idx)] if entry is None else amps[tuple(idx)] * entry
            acc = term if acc is None else acc + term
        for ax, b in zip(axes, r):
            idx[ax] = b
        out[tuple(idx)] = acc
    return out


def _scale(a: np.ndarray, picks: list, entry) -> None:
    """Multiply in place, as slice * entry, the slice of C-contiguous a where each (axis, bit)
    of picks (axes ascending) holds: a view on the end axes, a where= mask on interior ones."""
    last, view = a.ndim - 1, a
    for ax, b in picks:
        if ax not in (0, last):  # a ufunc over an interior view would copy all of a
            masks = [_BIT[b].reshape((2,) + (1,) * (last - ax)) for ax, b in picks]
            np.multiply(a, entry, out=a, where=functools.reduce(np.logical_and, masks))
            return
        view = view.reshape(-1, 2)[:, b] if ax == last else view[b]
    np.multiply(view, entry, out=view)


def measure(
    s: Slots | PureState, ax: int, delta: float | None, src: OutcomeSource, cz: Sequence[int] = ()
) -> tuple[int, float, Slots]:
    """Destructively measure axis ax of s in Z (delta None) or in M(delta), delta
    finite, after CZ with each partner in cz, numbered in the residual: an axis
    past ax is one less. Returns (outcome, Born probability, residual state).

    Outcome 0 is the |0> / |+_delta> branch. The measured axis is removed;
    the residual state is renormalized. A state may become empty (n == 0), in
    which case the residual has a 0-dim amplitude scalar of modulus 1.

    CZ only negates the amplitudes where both of its qubits are 1, so each
    partner's CZ is applied in place to the |1> half, with the same bits as
    apply_gate with CZ per partner first: through a view on the last axis, where
    run_pattern puts most partners, else by _scale. p0 + p1 must be 1 within _NORM_TOL:
    the one norm check made at run time, at every measurement.

    The residual is one of the two half-size copies the call takes from s and
    works on in place, so it shares no memory with s. Those two are the call's
    peak in Z, with or without partners; M(delta) adds one more half for the new
    branch.
    """
    if delta is not None and not math.isfinite(delta):
        raise InputError(f"basis angle must be finite, got {delta!r}")
    # take copies, so the in-place updates below never reach s.amps; at
    # n == 1 the halves are numpy scalars, which augmented assignment rebinds
    a0 = s.amps.take(0, axis=ax)
    a1 = s.amps.take(1, axis=ax)
    for at in cz:
        if at == a1.ndim - 1:
            half = a1.reshape(-1, 2)[:, 1]  # _scale's last-axis view, without its picks
            np.multiply(half, _CZ_SIGN, out=half)
            del half  # a live view would keep a1's old half through the M(delta) rebind
        else:
            _scale(a1, [(at, 1)], _CZ_SIGN)
    # numpy divides a complex array by a real s as a product with 1/s, so
    # the products below give the same bits without the complex division;
    # each keeps the operand order, since c * x and x * c round differently
    if delta is None:
        b0, b1 = a0, a1
    else:
        a1 = cmath.exp(-1j * delta) * a1
        b0 = a0 + a1
        b0 *= _INV_SQRT2
        a0 -= a1
        a0 *= _INV_SQRT2
        b1 = a0
    p0 = float(np.vdot(b0, b0).real)
    p1 = float(np.vdot(b1, b1).real)
    if not abs(p0 + p1 - 1.0) <= _NORM_TOL:
        raise ContractViolation(f"branch probabilities sum to {p0 + p1}")
    outcome = src.choose(p0, p1)
    if outcome not in (0, 1):
        raise InputError(f"outcome source returned {outcome!r}")
    prob, branch = (p0, b0) if outcome == 0 else (p1, b1)
    if prob < _DEGENERATE_TOL:
        raise DegenerateBranchError(f"outcome {outcome} on axis {ax} has probability {prob}")
    branch *= 1.0 / math.sqrt(prob)
    return outcome, prob, Slots(branch)


def fidelity(s1: PureState, s2: PureState) -> float:
    """|<s1|s2>|^2, insensitive to global phase; s2's axes are put in s1's label order first."""
    if set(s2.labels) != set(s1.labels):
        raise InputError("fidelity compares two states on the same labels")
    v2 = np.transpose(s2.amps, [s2.labels.index(lb) for lb in s1.labels]).reshape(-1)
    return float(abs(np.vdot(s1.amps.reshape(-1), v2)) ** 2)
