"""The [[7,1,3]] code: codewords, encoder, syndromes, and MBQC compilation.

Code conventions:
- Physical qubits are labelled ("d", 1) .. ("d", 7); bit strings written
  with qubit 1 leftmost.
- Stabilizer generators use the three parity rows 0001111, 0110011,
  1010101 for both X and Z checks. Reading the three check parities
  most-significant-first yields the binary position of a single error
  (0 means no error), the classic single-error-correcting property.
- |0>_L is the uniform superposition over the span of the rows (8 words);
  logical X is X on qubits {3, 5, 6} and maps it to |1>_L, the other coset.

Encoder (data on wire 3, everything else arriving as |+>), its wiring read
off the rows: the first qubit of each row is its pivot (wires 1, 2, 4),
which stays |+>; the remaining wires 5, 6, 7 are Hadamard-ed to |0>; the
data then fans out over the logical-X support and each pivot fans out
over its row. Eleven CNOTs total, each compiled to a cluster tile between
consecutive rows, giving a 7-row measurement pattern for the whole block.
Its dense map, encoder_unitary, is the H layer gathered by the cached index
of _ENCODER_AXES, the CNOTs on axes that encode_circuit applies to a state.

Syndrome extraction is ancilla-coupled and non-destructive:
- bit check (finds X errors): fresh |+>_L ancilla as the TARGET of a
  transversal CNOT from the data, ancilla read out in the computational
  basis; the parity rows of the readout word give the syndrome while every
  data amplitude survives (the ancilla word is uniform over a coset).
- phase check (finds Z errors): fresh |0>_L ancilla as the CONTROL of a
  transversal CNOT onto the data, ancilla read out in the X basis.
The roles are not interchangeable: flipping either ancilla choice still
produces a valid-looking syndrome but collapses or overwrites the encoded
data, which the tests demonstrate explicitly. Both ancillas are built once,
and each round runs on axes: the ancilla tensored past the data's n axes, its
seven CNOTs one sv.apply_cnots gather, its readout seven measurements of axis n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import mbqc
from . import statevector as sv
from .errors import InputError

DATA_LABELS = tuple(("d", i) for i in range(1, 8))

PARITY_ROWS = ("0001111", "0110011", "1010101")

LOGICAL_X_SUPPORT = (3, 5, 6)


def _span(rows) -> tuple:
    """Every GF(2) sum of the rows, as sorted bit strings."""
    words = {0}
    for row in rows:
        words |= {w ^ int(row, 2) for w in words}
    return tuple(sorted(f"{w:07b}" for w in words))


ZERO_STRINGS = _span(PARITY_ROWS)

# encoder wiring: the qubits set in each row, rows sorted by their first (pivot)
_ROW_SUPPORTS = sorted(tuple(i for i, ch in enumerate(row, 1) if ch == "1") for row in PARITY_ROWS)
DATA_WIRE = LOGICAL_X_SUPPORT[0]
PIVOT_WIRES = tuple(support[0] for support in _ROW_SUPPORTS)
ZEROED_WIRES = tuple(w for w in range(1, 8) if w != DATA_WIRE and w not in PIVOT_WIRES)
# the first wire of each support fans out over the rest
ENCODER_CNOTS = tuple(
    (support[0], t) for support in (LOGICAL_X_SUPPORT, *_ROW_SUPPORTS) for t in support[1:]
)
# the same CNOTs on axes, wire w on axis w - 1: the key of their cached gather index
_ENCODER_AXES = tuple((c - 1, t - 1) for c, t in ENCODER_CNOTS)


# --------------------------------------------------------------- codewords ----


def _string_state(strings, labels) -> sv.PureState:
    amps = np.zeros((2,) * 7, dtype=complex)
    for s in strings:
        amps[tuple(int(ch) for ch in s)] = 1.0 / math.sqrt(len(strings))
    return sv.PureState(amps, list(labels))


def logical_zero() -> sv.PureState:
    return _string_state(ZERO_STRINGS, DATA_LABELS)


def logical_one() -> sv.PureState:
    flipped = ["".join("1" if ch == "0" else "0" for ch in s) for s in ZERO_STRINGS]
    return _string_state(flipped, DATA_LABELS)


def logical_plus_theta(theta: float) -> sv.PureState:
    """(|0>_L + e^{i theta} |1>_L) / sqrt(2)."""
    zero, one = logical_zero(), logical_one()
    amps = (zero.amps + np.exp(1j * theta) * one.amps) / math.sqrt(2.0)
    return sv.PureState(amps, list(DATA_LABELS))


# ----------------------------------------------------------------- encoder ----


@functools.cache
def encoder_unitary() -> np.ndarray:
    """The 7-wire encoder map for all-|+> non-data inputs (wire order 1..7): the H
    layer on ZEROED_WIRES, its rows gathered by encode_circuit's cached CNOT index.
    Built once; every call returns the same read-only array."""
    layer = [sv.H.matrix if w in ZEROED_WIRES else np.eye(2) for w in range(1, 8)]
    u = functools.reduce(np.kron, layer)[sv._cnot_index(7, _ENCODER_AXES).reshape(-1)]
    u.flags.writeable = False
    return u


def encode_circuit(data) -> sv.PureState:
    """Reference gate-model encoding of a single-qubit state (2-vector or
    1-qubit PureState); returns the encoded block on ("d", 1..7)."""
    data_q = sv.qubit_state(data)
    state = None
    for i in range(1, 8):
        # the data, else the shared, already checked |+> or |0>
        q = data_q if i == DATA_WIRE else sv.PLUS if i in PIVOT_WIRES else sv.ZERO
        state = q if state is None else sv.tensor(state, q)
    return sv._state(sv.apply_cnots(state, _ENCODER_AXES).amps, DATA_LABELS)


# ------------------------------------------------------------------ errors ----


@dataclass(frozen=True)
class PauliError:
    kind: str  # "X" | "Y" | "Z"
    position: int  # 1..7

    def __post_init__(self) -> None:
        if self.kind not in ("X", "Y", "Z"):
            raise InputError(f"unknown Pauli kind {self.kind!r}")
        if not 1 <= self.position <= 7:
            raise InputError("error position must be between 1 and 7")


def inject_error(state: sv.PureState, err: PauliError) -> sv.PureState:
    gate = {"X": sv.X, "Y": sv.Y, "Z": sv.Z}[err.kind]
    return sv.apply_gate(state, gate, [("d", err.position)])


# --------------------------------------------------------------- syndromes ----


# the syndrome ancillas |+>_L and |0>_L, checked once; tensor reads only their amps
_PLUS_L = logical_plus_theta(0.0)
_ZERO_L = logical_zero()


@dataclass(frozen=True)
class SyndromeResult:
    """Each position is 0 when clean, else the flagged qubit (1..7): the
    word's three parity-row bits read as a binary number, MSB first."""

    bit_word: tuple  # raw computational readout of the bit-check ancilla
    phase_word: tuple  # raw X-basis readout of the phase-check ancilla
    bit_position: int
    phase_position: int


def _position(word) -> int:
    """The parity-row bits of a readout word as a binary number, MSB first."""
    pos = 0
    for row in PARITY_ROWS:
        pos = 2 * pos + sum(bit for bit, ch in zip(word, row) if ch == "1") % 2
    return pos


def extract_syndrome(
    state: sv.PureState, src: sv.OutcomeSource
) -> tuple[SyndromeResult, sv.PureState]:
    """Run one bit round and one phase round; returns (result, surviving data).

    The data state must carry the ("d", 1..7) labels; others ride along. Each
    round tensors a fresh 7-qubit logical ancilla (14 live qubits), couples
    transversally, and destructively reads the ancilla out.
    """
    if not set(DATA_LABELS) <= set(state.labels):
        raise InputError("state does not carry the encoded-block labels")
    data = [state.labels.index(lb) for lb in DATA_LABELS]
    anc = range(state.n, state.n + 7)  # each ancilla's axes, past the data's

    # per round: fresh ancilla, its (control, target) axis pairs, readout (Z or X basis)
    joint, words = state, []
    for ancilla, cx, delta in ((_PLUS_L, zip(data, anc), None), (_ZERO_L, zip(anc, data), 0.0)):
        joint = sv.apply_cnots(sv.tensor(joint, ancilla), tuple(cx))
        word = []
        for _ in anc:  # the ancilla's first axis is state.n; the next moves there
            outcome, _, joint = sv.measure(joint, state.n, delta, src)
            word.append(outcome)
        words.append(tuple(word))

    return SyndromeResult(*words, *map(_position, words)), sv._state(joint.amps, state.labels)


def apply_correction(state: sv.PureState, result: SyndromeResult) -> sv.PureState:
    """Undo the flagged single-qubit error: X at the bit-check position,
    Z at the phase-check position (both at once recovers a Y)."""
    if result.bit_position:
        state = sv.apply_gate(state, sv.X, [("d", result.bit_position)])
    if result.phase_position:
        state = sv.apply_gate(state, sv.Z, [("d", result.phase_position)])
    return state


# --------------------------------------------------------- MBQC compilation ----


def compile_encoder() -> mbqc.MeasurementPattern:
    """Compile the full encoder to one cluster-state measurement pattern.

    Wires 1..7 sit on rows 0..6 with inputs in column 1; Hadamard chains on
    the |0>-prepared wires come first, then each CNOT tile in fan-out order.
    All measurement angles are fixed (X or Y), so the pattern needs no
    adaptivity and every correction is a static output-frame update.

    The layout is built and validated once; every call declares
    encoder_unitary() on a fresh copy of it whose lists and dicts no other
    call shares, without validating or lowering again.
    """
    return _encoder_layout().declaring(encoder_unitary())


@functools.cache
def _encoder_layout() -> mbqc.MeasurementPattern:
    """The validated encoder pattern, declaring no unitary; compile_encoder
    copies it, so this one is never handed out or changed."""
    b = mbqc.PatternBuilder()
    for w in range(1, 8):
        b.wire(w, 1, w - 1)
    for w in ZEROED_WIRES:
        mbqc.lay_hadamard(b, w)
    for c, t in ENCODER_CNOTS:
        mbqc.lay_cnot(b, list(range(c, t + 1)))
    return b.build(list(range(1, 8)))


@dataclass
class EncodedBlock:
    """An MBQC-prepared logical qubit plus the run's public record."""

    state: sv.PureState  # corrected block on ("d", 1..7)
    transcript: mbqc.Transcript
    frame: mbqc.ByproductFrame  # corrections that were applied, on ("d", i) keys


def prepare_encoded_mbqc(theta: float, src: sv.OutcomeSource) -> EncodedBlock:
    """Prepare |+_theta>_L by running the compiled encoder pattern with a
    |+_theta> data input, then undoing the tracked byproducts."""
    p = compile_encoder()
    data_in = p.inputs[DATA_WIRE - 1]
    state, transcript, frame = mbqc.run_pattern(p, {data_in: sv.new_plus_theta(theta)}, src)
    state = mbqc.apply_byproducts(state, frame)
    relabel = {node: ("d", i + 1) for i, node in enumerate(p.outputs)}
    # a fresh kernel output, so it is renamed, not copied and checked again
    state = sv._state(state.amps, tuple(relabel.get(lb, lb) for lb in state.labels))
    frame = mbqc.ByproductFrame(
        {relabel[node]: exps for node, exps in frame.exps.items()}
    )
    return EncodedBlock(state, transcript, frame)
