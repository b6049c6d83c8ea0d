"""Codewords, encoder, syndrome extraction, and the compiled cluster encoder.

The error-correction matrix (3 logical states x 21 single-qubit Paulis) is
exhaustive: every case must point the syndrome at the right qubit and
restore the state exactly. Two additional tests demonstrate that swapping
either ancilla preparation, while still yielding plausible syndromes,
damages the encoded data; they pin down why the wiring is what it is.
"""

from __future__ import annotations

import copy
import itertools
import math

import numpy as np
import pytest

import blindprep.statevector as sv
import blindprep.steane as steane
from blindprep.errors import InputError
from blindprep.mbqc import FIXED_BASES, apply_byproducts, run_pattern
from blindprep.steane import (
    DATA_LABELS,
    DATA_WIRE,
    ENCODER_CNOTS,
    LOGICAL_X_SUPPORT,
    PARITY_ROWS,
    PIVOT_WIRES,
    ZERO_STRINGS,
    ZEROED_WIRES,
    PauliError,
    apply_correction,
    compile_encoder,
    encode_circuit,
    encoder_unitary,
    extract_syndrome,
    inject_error,
    logical_one,
    logical_plus_theta,
    logical_zero,
    prepare_encoded_mbqc,
)
from helpers import (
    is_read_only_value,
    labeled_measure,
    labeled_tensor,
    reference_syndrome,
    vector,
)

SQ8 = 1.0 / math.sqrt(8.0)


def amp_at(state, string):
    return state.amps[tuple(int(ch) for ch in string)]


# --------------------------------------------------------------- codewords ----


def test_logical_zero_amplitudes():
    zero = logical_zero()
    nonzero = np.flatnonzero(np.abs(zero.amps.reshape(-1)) > 1e-12)
    assert len(nonzero) == 8
    for s in ZERO_STRINGS:
        assert amp_at(zero, s) == pytest.approx(SQ8, abs=1e-15)


def test_logical_one_is_bitwise_complement():
    one = logical_one()
    for s in ZERO_STRINGS:
        comp = "".join("1" if ch == "0" else "0" for ch in s)
        assert amp_at(one, comp) == pytest.approx(SQ8, abs=1e-15)


def test_codewords_are_orthonormal():
    zero, one = logical_zero(), logical_one()
    assert np.vdot(zero.amps, zero.amps) == pytest.approx(1.0, abs=1e-12)
    assert np.vdot(one.amps, one.amps) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(zero.amps, one.amps)) < 1e-12


def test_x_stabilizers_fix_logical_zero():
    zero = logical_zero()
    for row in PARITY_ROWS:
        state = sv.PureState(zero.amps.copy(), list(DATA_LABELS))
        for i, ch in enumerate(row, start=1):
            if ch == "1":
                state = sv.apply_gate(state, sv.X, [("d", i)])
        assert np.allclose(state.amps, zero.amps, atol=1e-12)


def test_transversal_x_flips_the_logical_qubit():
    state = logical_zero()
    for i in range(1, 8):
        state = sv.apply_gate(state, sv.X, [("d", i)])
    assert np.allclose(state.amps, logical_one().amps, atol=1e-12)


def test_minimal_logical_x_support():
    state = logical_zero()
    for i in LOGICAL_X_SUPPORT:
        state = sv.apply_gate(state, sv.X, [("d", i)])
    assert np.allclose(state.amps, logical_one().amps, atol=1e-12)


def test_logical_z_advances_the_equatorial_phase():
    state = logical_plus_theta(math.pi / 4)
    for i in LOGICAL_X_SUPPORT:
        state = sv.apply_gate(state, sv.Z, [("d", i)])
    target = logical_plus_theta(math.pi / 4 + math.pi)
    assert sv.fidelity(state, target) == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------- encoder ----


def test_encode_circuit_hits_the_codewords():
    assert np.allclose(encode_circuit([1.0, 0.0]).amps, logical_zero().amps, atol=1e-12)
    assert np.allclose(encode_circuit([0.0, 1.0]).amps, logical_one().amps, atol=1e-12)


@pytest.mark.parametrize("theta", [0.0, math.pi / 4, 2.1])
def test_encode_circuit_preserves_superpositions(theta):
    vec = sv.new_plus_theta(theta).amps.reshape(-1)
    encoded = encode_circuit(vec)
    assert np.allclose(encoded.amps, logical_plus_theta(theta).amps, atol=1e-12)


def test_encoder_unitary_matches_circuit_on_plus_inputs():
    theta = 0.9
    psi = sv.new_plus_theta(theta).amps.reshape(-1)
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    vec = np.ones(1, dtype=complex)
    for wire in range(1, 8):
        vec = np.kron(vec, psi if wire == 3 else plus)
    out = encoder_unitary() @ vec
    ref = vector(encode_circuit(psi), DATA_LABELS)
    assert np.allclose(out, ref, atol=1e-12)


def test_encoder_unitary_is_one_shared_read_only_array():
    u = encoder_unitary()
    assert encoder_unitary() is u
    assert not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 0.0


def test_encoder_unitary_is_cnot_permutation_times_three_hadamards():
    # numpy only: H on wires 5-7, then the CNOTs as one permutation of basis states
    assert ZEROED_WIRES == (5, 6, 7)
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    perm = np.zeros((128, 128))
    for x in range(128):
        y = x
        for c, t in ENCODER_CNOTS:
            y ^= (y >> (7 - c) & 1) << (7 - t)
        perm[y, x] = 1.0
    assert np.array_equal(encoder_unitary(), perm @ np.kron(np.eye(16), np.kron(h, np.kron(h, h))))


def test_tables_derived_from_the_rows_and_logical_x():
    assert ZERO_STRINGS == (
        "0000000", "0001111", "0110011", "0111100",
        "1010101", "1011010", "1100110", "1101001",
    )
    assert (DATA_WIRE, PIVOT_WIRES, ZEROED_WIRES) == (3, (1, 2, 4), (5, 6, 7))
    assert ENCODER_CNOTS == (
        (3, 5), (3, 6),
        (1, 3), (1, 5), (1, 7),
        (2, 3), (2, 6), (2, 7),
        (4, 5), (4, 6), (4, 7),
    )


def test_encoder_cnots_point_down_the_block():
    for c, t in ENCODER_CNOTS:
        assert 1 <= c < t <= 7


# ---------------------------------------------------------------- syndromes ----


BASES = [
    ("zero", logical_zero),
    ("one", logical_one),
    ("plus", lambda: logical_plus_theta(math.pi / 4)),
]


@pytest.mark.parametrize("name,make", BASES)
def test_clean_state_reports_clean(name, make):
    state = make()
    result, survived = extract_syndrome(state, sv.BornSampler(7))
    assert result.bit_position == result.phase_position == 0
    assert sv.fidelity(survived, make()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name,make", BASES)
@pytest.mark.parametrize("kind", ["X", "Y", "Z"])
@pytest.mark.parametrize("position", list(range(1, 8)))
def test_every_single_qubit_error_is_corrected(name, make, kind, position):
    state = inject_error(make(), PauliError(kind, position))
    result, survived = extract_syndrome(state, sv.BornSampler(position * 13 + 1))
    expect_bit = position if kind in ("X", "Y") else 0
    expect_phase = position if kind in ("Z", "Y") else 0
    assert result.bit_position == expect_bit
    assert result.phase_position == expect_phase
    fixed = apply_correction(survived, result)
    assert sv.fidelity(fixed, make()) == pytest.approx(1.0, abs=1e-12)


def test_syndrome_is_deterministic_but_readout_words_vary():
    err = PauliError("X", 5)
    words = set()
    for seed in range(6):
        state = inject_error(logical_plus_theta(0.3), err)
        result, _ = extract_syndrome(state, sv.BornSampler(seed))
        assert result.bit_position == 5
        assert result.phase_position == 0
        words.add(result.bit_word)
    assert len(words) > 1  # the raw word is coset-random, only parities are fixed


SYNDROME_DATA = (np.array([1.0, 0.0]), np.array([0.0, 1.0]), sv.new_plus_theta(math.pi / 4))


def _syndrome_blocks(hurt, rng):
    """hurt as given, with its DATA_LABELS in a random axis order, and with an
    extra qubit before and one after the block, on the labels ("bit", 3) and
    ("phase", 7) that the ancillas once carried."""
    perm = [int(i) for i in rng.permutation(7)]
    yield hurt
    yield sv.PureState(np.transpose(hurt.amps, perm), [hurt.labels[i] for i in perm])
    before = sv.new_plus_theta(0.7, ("bit", 3))
    yield labeled_tensor(labeled_tensor(before, hurt), sv.new_plus_theta(-1.2, ("phase", 7)))


def test_extract_syndrome_matches_the_label_reference_bit_for_bit():
    # the 63 cases of the correction matrix, each on three blocks: the ancilla
    # axes follow the data's, wherever its labels sit and whatever rides along
    rng = np.random.default_rng(63)
    cases = list(itertools.product(SYNDROME_DATA, "XYZ", range(1, 8)))
    for seed, (data, kind, position) in enumerate(cases):
        hurt = inject_error(encode_circuit(data), PauliError(kind, position))
        for block in _syndrome_blocks(hurt, rng):
            result, survived = extract_syndrome(block, sv.BornSampler(seed))
            bit_word, phase_word, want = reference_syndrome(block, sv.BornSampler(seed))
            assert (result.bit_word, result.phase_word) == (bit_word, phase_word)
            assert survived.labels == want.labels == block.labels
            assert survived.amps.tobytes() == want.amps.tobytes()


def test_extract_requires_block_labels():
    with pytest.raises(InputError, match="^state does not carry the encoded-block labels$"):
        extract_syndrome(sv.new_plus_theta(0.0, label="q"), sv.BornSampler(0))
    short = sv.PureState(logical_zero().amps, [*DATA_LABELS[:6], ("d", 8)])
    with pytest.raises(InputError, match="^state does not carry the encoded-block labels$"):
        extract_syndrome(short, sv.BornSampler(0))


def test_syndrome_case_checks_only_its_data_qubit(monkeypatch):
    # |+>, |0> and both ancillas are checked once, at import, and shared
    # read-only; a case builds and checks only the data qubit it is given
    checked = []
    check = sv.PureState.__post_init__

    def counting(state):
        checked.append(list(state.labels))
        check(state)

    monkeypatch.setattr(sv.PureState, "__post_init__", counting)
    hurt = inject_error(encode_circuit(np.array([1.0, 0.0])), PauliError("Y", 4))
    result, survived = extract_syndrome(hurt, sv.BornSampler(0))
    fixed = apply_correction(survived, result)
    assert checked == [[0]]
    assert sv.fidelity(fixed, logical_zero()) == pytest.approx(1.0, abs=1e-9)
    for shared in (sv.PLUS, sv.ZERO, steane._PLUS_L, steane._ZERO_L):
        with pytest.raises(ValueError, match="read-only"):
            shared.amps[(0,) * shared.n] = 0.0


def test_every_returned_block_is_a_read_only_value():
    encoded = encode_circuit(np.array([1.0, 0.0]))
    hurt = inject_error(encoded, PauliError("X", 2))
    result, survived = extract_syndrome(hurt, sv.BornSampler(0))
    fixed = apply_correction(survived, result)
    prepared = prepare_encoded_mbqc(0.3, sv.BornSampler(1)).state
    for state in (encoded, hurt, survived, fixed, prepared, steane._PLUS_L, steane._ZERO_L):
        assert is_read_only_value(state)


def test_bit_check_with_zeroed_ancilla_target_collapses_data():
    # plausible-looking alternative: |0>_L ancilla as transversal-CNOT target.
    # The readout parities still vanish, but the superposition is gone.
    state = logical_plus_theta(math.pi / 4)
    anc = [("bit", i) for i in range(1, 8)]
    joint = labeled_tensor(state, sv.PureState(logical_zero().amps, anc))
    for d, a in zip(DATA_LABELS, anc):
        joint = sv.apply_gate(joint, sv.CNOT, [d, a])
    src = sv.BornSampler(3)
    word = []
    for a in anc:
        outcome, _, joint = labeled_measure(joint, a, None, src)
        word.append(outcome)
    parities = [
        sum(bit for bit, ch in zip(word, row) if ch == "1") % 2 for row in PARITY_ROWS
    ]
    assert parities == [0, 0, 0]
    fid = sv.fidelity(joint, logical_plus_theta(math.pi / 4))
    assert fid < 0.9  # collapsed into one logical sector


def test_phase_check_with_plus_ancilla_control_disturbs_data():
    # plausible-looking alternative: |+>_L ancilla as transversal-CNOT control.
    # It projects the data onto a logical-X eigenstate instead of probing it.
    state = logical_plus_theta(math.pi / 4)
    anc = [("phase", i) for i in range(1, 8)]
    joint = labeled_tensor(state, sv.PureState(logical_plus_theta(0.0).amps, anc))
    for d, a in zip(DATA_LABELS, anc):
        joint = sv.apply_gate(joint, sv.CNOT, [a, d])
    src = sv.BornSampler(5)
    for a in anc:
        _, _, joint = labeled_measure(joint, a, 0.0, src)
    fid = sv.fidelity(joint, logical_plus_theta(math.pi / 4))
    assert fid < 0.9


# ------------------------------------------------------- compiled encoder ----


def test_compiled_encoder_size_and_shape():
    p = compile_encoder()
    assert len(p.nodes) == 169
    assert p.measured_count == 162
    assert len(p.inputs) == 7 and len(p.outputs) == 7
    width, height = p.bounding_grid()
    assert height == 7
    assert width < 50
    # fully non-adaptive: every step is an x or y measurement, with no deps
    bases = {(delta, deps) for _, delta, deps in p.steps}
    assert bases == {(FIXED_BASES["x"], frozenset()), (FIXED_BASES["y"], frozenset())}


def test_compiled_encoder_calls_are_equal_but_share_nothing_mutable():
    fields = ("inputs", "outputs", "steps", "edges", "x_corr", "z_corr")
    first, second = compile_encoder(), compile_encoder()
    assert first is not second
    assert first.declared_unitary is second.declared_unitary is encoder_unitary()
    for field in fields:
        assert getattr(first, field) == getattr(second, field)
        assert getattr(first, field) is not getattr(second, field)
    kept = [copy.copy(getattr(second, field)) for field in fields]  # of immutable items
    first.steps.pop()
    first.edges.clear()
    first.x_corr.clear()
    assert [getattr(compile_encoder(), field) for field in fields] == kept
    assert [getattr(second, field) for field in fields] == kept


def test_compiled_encoder_forced_zero_branch():
    p = compile_encoder()
    theta = math.pi / 4
    data_in = p.inputs[2]
    psi = sv.new_plus_theta(theta).amps.reshape(-1)
    state, transcript, frame = run_pattern(
        p, {data_in: psi}, sv.ForcedBranch([0] * p.measured_count)
    )
    state = apply_byproducts(state, frame)
    relabel = {node: ("d", i + 1) for i, node in enumerate(p.outputs)}
    state = sv.PureState(state.amps, [relabel.get(lb, lb) for lb in state.labels])
    assert sv.fidelity(state, logical_plus_theta(theta)) == pytest.approx(
        1.0, abs=1e-9
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mbqc_preparation_matches_circuit(seed):
    theta = math.pi / 4
    block = prepare_encoded_mbqc(theta, sv.BornSampler(seed))
    assert len(block.transcript.entries) == 162
    for entry in block.transcript.entries:
        assert entry.prob == pytest.approx(0.5, abs=1e-12)
    assert sv.fidelity(block.state, logical_plus_theta(theta)) == pytest.approx(
        1.0, abs=1e-9
    )


def test_encoder_runs_share_the_fixed_basis_objects():
    # the encoder is non-adaptive: its bases do not depend on the outcomes
    first, second = (
        prepare_encoded_mbqc(0.3, sv.BornSampler(seed)).transcript.entries for seed in (0, 1)
    )
    assert [e.outcome for e in first] != [e.outcome for e in second]
    assert [e.basis for e in first] == [e.basis for e in second]
    assert {e.basis for e in first} == {FIXED_BASES["x"], FIXED_BASES["y"]} == {0.0, math.pi / 2}


def test_mbqc_block_survives_error_correction_cycle():
    theta = math.pi / 4
    block = prepare_encoded_mbqc(theta, sv.BornSampler(9))
    hurt = inject_error(block.state, PauliError("Y", 2))
    result, survived = extract_syndrome(hurt, sv.BornSampler(10))
    assert result.bit_position == 2 and result.phase_position == 2
    fixed = apply_correction(survived, result)
    assert sv.fidelity(fixed, logical_plus_theta(theta)) == pytest.approx(
        1.0, abs=1e-9
    )
