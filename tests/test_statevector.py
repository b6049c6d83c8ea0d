"""Statevector layer: gate algebra, circuit matrices, destructive measurement.

Expected values come from independent oracles computed inside each test
(explicit matrix-vector products, Kronecker products, basis permutations,
einsum partial traces), not from the module under test.
"""

import cmath
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from blindprep import statevector as sv
from blindprep.errors import (
    ContractViolation,
    DegenerateBranchError,
    InputError,
)
from helpers import (
    I2,
    S,
    is_read_only_value,
    labeled_measure,
    labeled_tensor,
    new_basis_state,
    random_state,
    random_unitary,
    reference_measure,
    reference_tensor,
    vector,
)

ATOL = 1e-12


# ------------------------------------------------------------ gate algebra


def test_pauli_matrices_match_standard_entries():
    assert np.array_equal(sv.X.matrix, np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(sv.Y.matrix, np.array([[0, -1j], [1j, 0]], dtype=complex))
    assert np.array_equal(sv.Z.matrix, np.array([[1, 0], [0, -1]], dtype=complex))


def test_pauli_products():
    x, y, z = sv.X.matrix, sv.Y.matrix, sv.Z.matrix
    assert np.allclose(x @ z, -1j * y, atol=ATOL)
    for p in (x, y, z):
        assert np.allclose(p @ p, np.eye(2), atol=ATOL)


@pytest.mark.parametrize("g", [I2, sv.X, sv.Y, sv.Z, sv.H, S, sv.CZ, sv.CNOT, sv.rz(0.7)])
def test_gates_unitary(g):
    m = g.matrix
    assert np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12)


def test_shared_gate_matrices_are_read_only():
    # a pattern's declared unitary can be H.matrix itself; a write through it
    # would change every later rotation_unitary but not H.rows
    from blindprep.mbqc import HadamardGate, pattern_for_gate

    assert pattern_for_gate(HadamardGate()).declared_unitary is sv.H.matrix
    for g in (sv.X, sv.Y, sv.Z, sv.H, sv.CZ, sv.CNOT):
        with pytest.raises(ValueError, match="read-only"):
            g.matrix[0, 0] = 0.0


def test_a_gate_keeps_its_own_read_only_matrix():
    # a later write to the caller's array desyncs neither matrix nor rows
    m = np.array([[0, 1], [1, 0]], dtype=complex)
    g = sv.Gate("g", m)
    m[:] = np.eye(2)
    assert np.array_equal(g.matrix, sv.X.matrix)
    flipped = sv.apply_gate(new_basis_state(1), g, [0])
    assert np.array_equal(flipped.amps, new_basis_state(1, 1).amps)
    with pytest.raises(ValueError, match="read-only"):
        g.matrix[0, 0] = 0.0


def test_gates_compare_and_hash_by_identity():
    # a generated == would compare the matrices as arrays, whose truth is ambiguous
    assert sv.rz(0.1) != sv.rz(0.1) and sv.X == sv.X
    assert len({sv.X, sv.Z, sv.X}) == 2 and hash(sv.CZ) == hash(sv.CZ)
    assert np.array_equal(sv.rz(0.1).matrix, sv.rz(0.1).matrix)


def test_cz_symmetric():
    assert np.array_equal(sv.CZ.matrix, sv.CZ.matrix.T)


def test_nonunitary_matrix_rejected():
    with pytest.raises(InputError):
        sv.Gate("bad", np.array([[1, 0], [0, 2]]))


# ------------------------------------------------------------ constructors


def test_plus_theta_at_half_pi():
    s = sv.new_plus_theta(math.pi / 2)
    want = np.array([1.0, 1j]) / math.sqrt(2)
    assert np.allclose(vector(s), want, atol=ATOL)


def test_states_compare_and_hash_by_identity():
    a, b = sv.new_plus_theta(0.3), sv.new_plus_theta(0.3)
    assert a != b and a == a and len({a, b, a}) == 2
    assert sv.fidelity(a, b) == pytest.approx(1.0, abs=ATOL)


def test_basis_state_bits():
    s = new_basis_state(3, [1, 0, 1])
    v = vector(s)
    assert v[0b101] == 1.0 and np.count_nonzero(v) == 1


def test_basis_state_int_form():
    assert np.allclose(vector(new_basis_state(3, 5)), vector(new_basis_state(3, [1, 0, 1])))


def test_qubit_cap_enforced():
    with pytest.raises(InputError):
        new_basis_state(sv.QUBIT_CAP + 1)
    with pytest.raises(InputError):  # refused before the amplitudes' shape is checked
        sv.PureState(np.zeros(1), range(sv.QUBIT_CAP + 1))
    # a unitary on n wires is a 2n-qubit tensor; a CNOT that wide is refused before it is laid
    from blindprep.mbqc import CNOTGate, gate_layout

    with pytest.raises(InputError, match="^a unitary on 13 wires is a 26-qubit tensor"):
        gate_layout(CNOTGate(sv.QUBIT_CAP // 2))


def test_duplicate_labels_rejected():
    with pytest.raises(InputError):
        sv.PureState(np.array([[1, 0], [0, 0]], dtype=complex) / 1.0, ["a", "a"])


def test_mis_sized_amplitudes_rejected():
    # amplitudes come shaped (2,)*n, one axis per qubit; a flat vector is refused
    with pytest.raises(InputError, match=r"^amplitudes must be shaped \(2,\), got \(3,\)$"):
        sv.PureState(np.ones(3) / 3**0.5, [0])
    with pytest.raises(InputError, match=r"^amplitudes must be shaped \(2, 2\), got \(2,\)$"):
        sv.PureState(np.array([1.0, 0.0]), ["a", "b"])
    with pytest.raises(InputError, match=r"^amplitudes must be shaped \(2, 2\), got \(4,\)$"):
        sv.PureState(np.array([1.0, 0.0, 0.0, 0.0]), ["a", "b"])


# -------------------------------------------------------------- apply_gate


def test_cz_on_plus_plus_matches_matrix_oracle():
    s = labeled_tensor(sv.new_plus_theta(0.0, "a"), sv.new_plus_theta(0.0, "b"))
    got = vector(sv.apply_gate(s, sv.CZ, ["a", "b"]))
    # oracle: explicit 4x4 matrix times the |++> vector
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    want = cz @ (np.ones(4, dtype=complex) / 2)
    assert np.allclose(got, want, atol=ATOL)


def test_gate_on_missing_qubit_is_sequencing_error():
    s = new_basis_state(1)
    with pytest.raises(InputError, match="^qubit 'nope' is not part of this state$"):
        sv.apply_gate(s, sv.X, ["nope"])


def test_two_qubit_gate_axis_order():
    # CNOT with control "c", target "t" on |10> -> |11>, regardless of storage order
    s = labeled_tensor(new_basis_state(1, [0], labels=["t"]), new_basis_state(1, [1], labels=["c"]))
    out = sv.apply_gate(s, sv.CNOT, ["c", "t"])
    assert abs(vector(out, ["c", "t"])[0b11]) == pytest.approx(1.0, abs=ATOL)


def test_cnot_unitary_matches_the_permutation_oracle():
    # CNOT from wire 0 onto wire n-1 flips the last bit of x when the first is set;
    # the declared unitary is scattered from the CNOT's gather index, bit for bit
    from blindprep.mbqc import CNOTGate, gate_unitary

    for n in range(2, 11):
        want = np.zeros((2**n, 2**n), dtype=complex)
        for x in range(2**n):
            want[x ^ (x >> (n - 1)), x] = 1.0
        assert gate_unitary(CNOTGate(n - 1)).tobytes() == want.tobytes()


def _dense(g, amps, axes):
    """The gate as one tensordot + moveaxis contraction, independent of the
    row-by-row kernel."""
    k = len(axes)
    op = g.matrix.reshape((2,) * (2 * k))
    out = np.tensordot(op, amps, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def _full(g, n, targets):
    """The 2^n x 2^n matrix of g on the target wires, built entry by entry."""
    k = len(targets)
    rest = [q for q in range(n) if q not in targets]

    def split(x):
        bits = [(x >> (n - 1 - q)) & 1 for q in range(n)]
        return sum(bits[t] << (k - 1 - j) for j, t in enumerate(targets)), [bits[q] for q in rest]

    full = np.zeros((2**n, 2**n), dtype=complex)
    for x in range(2**n):
        for y in range(2**n):
            (r, xr), (c, yr) = split(x), split(y)
            if xr == yr:
                full[x, y] = g.matrix[r, c]
    return full


def test_monomial_gate_matches_tensordot_and_matrix_oracles():
    # diagonal and asymmetric in its two targets, so a wrong axis order shows
    d = np.array([1, 1j, -1, -1j])
    g = sv.Gate("D", np.diag(d))
    s = random_state(np.random.default_rng(3), 4)
    for targets in ([0, 2], [2, 0], [3, 1], [1, 3]):
        out = sv.apply_gate(s, g, targets)
        assert np.array_equal(out.amps, _dense(g, s.amps, targets))
        full = _full(g, 4, targets)
        assert np.allclose(vector(out), full @ vector(s), atol=ATOL)


SWAP = sv.Gate("SWAP", np.eye(4)[[0, 2, 1, 3]])
TOFFOLI = sv.Gate("CCX", np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]])
PHASED_X = sv.Gate("SX", np.diag([1, 1j]) @ sv.X.matrix)
# not an involution, so reading perm backwards shows
PHASED_CYCLE = sv.Gate("INC", np.diag([1, 1j, -1, -1j]) @ np.eye(4)[[1, 2, 3, 0]])


def _target_lists(arity, n):
    """Both orders, adjacent and non-adjacent axes, the first and the last."""
    return {
        1: [[0], [2], [n - 1]],
        2: [[0, n - 1], [n - 1, 0], [1, 3], [3, 1], [1, 2]],
        3: [[2, 0, n - 1], [n - 1, 1, 2], [0, 1, 2], [3, 2, 1]],
    }[arity]


PERMUTATIONS = [sv.X, sv.Y, sv.CNOT, SWAP, TOFFOLI, PHASED_X, PHASED_CYCLE]


@pytest.mark.parametrize("g", PERMUTATIONS, ids=[g.kind for g in PERMUTATIONS])
def test_permutation_gate_matches_tensordot_and_matrix_oracles(g):
    rng = np.random.default_rng(11)
    for n in (4, 5, 6):
        s = random_state(rng, n)
        for targets in _target_lists(g.arity, n):
            out = sv.apply_gate(s, g, targets)
            dense = _dense(g, s.amps, targets)
            assert np.array_equal(out.amps, dense)
            # copies keep every bit; only the sign of an exact zero may differ
            assert (out.amps + 0.0).tobytes() == (dense + 0.0).tobytes()
            full = _full(g, n, targets)
            assert np.allclose(vector(out), full @ vector(s), atol=ATOL)


@pytest.mark.parametrize("g", [sv.X, sv.Y, sv.CZ, sv.Gate("I", np.eye(4))], ids=lambda g: g.kind)
def test_monomial_result_does_not_alias_the_input(g):
    s = random_state(np.random.default_rng(5), 3)
    before = s.amps.copy()
    out = sv.apply_gate(s, g, [2, 0][: g.arity])
    assert not np.shares_memory(out.amps, s.amps)
    with pytest.raises(ValueError, match="read-only"):
        out.amps[...] = 0
    assert np.array_equal(s.amps, before)


# each has rows that only scale themselves, the last one on its |0> row
SCALING = [sv.Z, sv.rz(0.3), sv.CZ, sv.Gate("P0", np.diag([cmath.exp(0.2j), 1]))]


@pytest.mark.parametrize("g", SCALING, ids=[g.kind for g in SCALING])
def test_a_row_that_only_scales_itself_keeps_the_out_of_place_bits(g):
    rng = np.random.default_rng(29)
    for n in (1, 2, 4, 7, 14):
        s = random_state(rng, n)
        if n > 2:
            target_lists = _target_lists(g.arity, n)
        else:
            target_lists = [list(t) for t in itertools.permutations(range(n), g.arity)]
        for targets in target_lists:
            # the product out of place, each row written into a copy
            want = s.amps.copy()
            for r, ((_, entry),) in g.rows:
                idx = [slice(None)] * n
                for ax, b in zip(targets, r):
                    idx[ax] = b
                want[tuple(idx)] = s.amps[tuple(idx)] * entry
            assert sv.apply_gate(s, g, targets).amps.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "g, targets",
    [(sv.Z, [6]), (sv.rz(0.3), [6]), (sv.CZ, [3, 9]), (sv.Z, [0]), (sv.Z, [13]), (sv.CZ, [13, 0])],
)
def test_a_row_that_only_scales_itself_is_scaled_without_a_temporary(g, targets):
    # the fresh copy is the only state-size array the call allocates
    s = random_state(np.random.default_rng(31), 14)
    tracemalloc.start()
    try:
        sv.apply_gate(s, g, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * s.amps.nbytes


def test_identity_gate_is_monomial_and_keeps_every_bit():
    g = sv.Gate("I", np.eye(4))
    assert g.rows == ()
    s = random_state(np.random.default_rng(6), 3)
    assert sv.apply_gate(s, g, [2, 0]).amps.tobytes() == s.amps.tobytes()


def test_h_is_dense_and_rz_is_a_diagonal_monomial():
    # a gate lists only the rows that differ from the identity's
    h = sv.H.matrix[0, 0]
    assert sv.H.rows == (
        ((0,), (((0,), h), ((1,), h))),
        ((1,), (((0,), h), ((1,), -h))),
    )
    assert sv.rz(0.3).rows == (((1,), (((1,), cmath.exp(0.3j)),)),)
    assert sv.CZ.rows == (((1, 1), (((1, 1), -1),)),)
    assert sv.CNOT.rows == (((1, 0), (((1, 1), None),)), ((1, 1), (((1, 0), None),)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_random_dense_gate_matches_tensordot_and_matrix_oracles(k):
    rng = np.random.default_rng(20 + k)
    g = random_unitary(rng, k)
    for n in (4, 5):
        s = random_state(rng, n)
        for targets in _target_lists(k, n):
            out = sv.apply_gate(s, g, targets)
            assert np.allclose(out.amps, _dense(g, s.amps, targets), atol=ATOL)
            assert np.allclose(vector(out), _full(g, n, targets) @ vector(s), atol=ATOL)


RY = sv.Gate("Ry", [[math.cos(0.45), -math.sin(0.45)], [math.sin(0.45), math.cos(0.45)]])
FRESH = [sv.H, RY, sv.X, sv.CZ, sv.CNOT, sv.Gate("I", np.eye(4))]
FRESH.append(random_unitary(np.random.default_rng(9), 3))
# the first target is the last axis, not the leading one
FRESH_OPS = [(g.kind, lambda s, g=g: sv.apply_gate(s, g, [2, 0, 1][: g.arity])) for g in FRESH]
FRESH_OPS.append(("cnots", lambda s: sv._state(sv.apply_cnots(s, ((2, 0), (0, 1))).amps, s.labels)))


@pytest.mark.parametrize("op", [op for _, op in FRESH_OPS], ids=[kind for kind, _ in FRESH_OPS])
def test_every_gate_result_is_fresh_and_c_contiguous(op):
    s = random_state(np.random.default_rng(5), 3)
    before = s.amps.copy()
    out = op(s)
    assert out.amps.flags.c_contiguous and out.amps.flags.owndata
    assert not np.shares_memory(out.amps, s.amps)
    with pytest.raises(ValueError, match="read-only"):
        out.amps[...] = 0
    assert np.array_equal(s.amps, before)


def _cnot_runs(rng, n):
    """CNOT runs on n qubits: reversed pairs, pairs that share a qubit, a
    qubit used by no pair, and every pair of a random order."""
    yield [(0, 1), (1, 0), (0, 1)]
    yield [(0, n - 1), (0, 1), (n - 1, 1), (1, n - 1)]
    yield [(n - 2, 0)]  # every other qubit is a spectator
    perm = [int(q) for q in rng.permutation(n)]
    yield list(zip(perm, perm[1:] + perm[:1]))


@pytest.mark.parametrize("n", range(3, 15))
def test_apply_cnots_matches_sequential_cnot_gates_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    for shuffled in (False, True):
        labels = [("q", int(i)) for i in (rng.permutation(n) if shuffled else range(n))]
        s = random_state(rng, n, labels)
        for run in _cnot_runs(rng, n):
            pairs = [(("q", c), ("q", t)) for c, t in run]
            want = s
            for pair in pairs:
                want = sv.apply_gate(want, sv.CNOT, pair)
            got = sv.apply_cnots(s, tuple(tuple(map(s.labels.index, pair)) for pair in pairs))
            assert isinstance(got, sv.Slots)
            assert (got.amps + 0.0).tobytes() == (want.amps + 0.0).tobytes()


def test_apply_cnots_index_is_cached_and_read_only():
    s = random_state(np.random.default_rng(6), 4)
    sv.apply_cnots(s, ((0, 1), (2, 3)))
    idx = sv._cnot_index(4, ((0, 1), (2, 3)))
    assert idx is sv._cnot_index(4, ((0, 1), (2, 3)))
    assert not idx.flags.writeable
    with pytest.raises(ValueError):
        idx[(0,) * 4] = 1


def test_apply_cnots_rejects_a_repeated_axis_and_an_axis_out_of_range():
    s = random_state(np.random.default_rng(7), 3)
    # each twice: a refusal is never cached as an index
    for run in (((0, 1), (2, 2)), ((0, 1), (0, 3)), ((-1, 0),)) * 2:
        want = "^CNOT on axes {}, {} needs two distinct axes below 3$".format(*run[-1])
        with pytest.raises(InputError, match=want):
            sv.apply_cnots(s, run)


def test_tensor_matches_kron():
    rng = np.random.default_rng(5)
    a = random_state(rng, 2, ["a0", "a1"])
    b = random_state(rng, 3, ["b0", "b1", "b2"])
    ab = sv.tensor(a, b)
    assert ab.n == 5 and ab.amps.shape == (2,) * 5
    assert np.allclose(ab.amps.reshape(-1), np.kron(vector(a), vector(b)), atol=ATOL)
    # same bits as the tensordot outer product the golden CLI records were made with
    for x, y in ((a, b), (b, a), (random_state(rng, 7), random_state(rng, 7, list("abcdefg")))):
        assert np.array_equal(sv.tensor(x, y).amps, np.tensordot(x.amps, y.amps, axes=0))


def test_rz_acts_as_phase_on_one():
    s = sv.new_plus_theta(0.0)
    out = sv.apply_gate(s, sv.rz(0.3), [0])
    want = np.array([1.0, cmath.exp(0.3j)]) / math.sqrt(2)
    assert np.allclose(vector(out), want, atol=ATOL)


# ----------------------------------------------------------------- measure


@pytest.mark.parametrize("bad", [0.5, 1.7, "1", 2, -1])
def test_forced_branch_rejects_non_bits_before_truncating(bad):
    with pytest.raises(InputError, match="^branch word must contain only bits$"):
        sv.ForcedBranch([0, bad])


def test_forced_branch_takes_numpy_ints_and_bools():
    src = sv.ForcedBranch([np.int64(1), np.uint8(0), True, False, np.True_, 1.0])
    assert src.bits == [1, 0, 1, 0, 1, 1]
    assert all(type(b) is int for b in src.bits)


def test_measure_plus_in_x_basis_is_deterministic():
    s = sv.new_plus_theta(0.0)
    outcome, prob, rest = sv.measure(s, 0, 0.0, sv.ForcedBranch([0]))
    assert outcome == 0
    assert prob == pytest.approx(1.0, abs=ATOL)
    assert rest.n == 0


def test_measure_zero_in_x_basis_is_even():
    for bit in (0, 1):
        _, prob, _ = sv.measure(new_basis_state(1), 0, 0.0, sv.ForcedBranch([bit]))
        assert prob == pytest.approx(0.5, abs=ATOL)


def test_branch_probabilities_sum_to_one():
    rng = np.random.default_rng(7)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    s = sv.PureState(v.reshape(2, 2, 2), ["a", "b", "c"])
    for basis in (None, 0.0, 1.234):
        _, p0, _ = sv.measure(s, 1, basis, sv.ForcedBranch([0]))  # "b" is axis 1
        _, p1, _ = sv.measure(s, 1, basis, sv.ForcedBranch([1]))
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


def test_measure_is_destructive_and_renormalized():
    s = labeled_tensor(sv.new_plus_theta(0.4, "d"), new_basis_state(1, [0], labels=["anc"]))
    outcome, prob, rest = labeled_measure(s, "anc", None, sv.ForcedBranch([0]))
    assert rest.labels == ("d",)
    assert np.vdot(vector(rest), vector(rest)).real == pytest.approx(1.0, abs=ATOL)
    with pytest.raises(InputError, match="^qubit 'anc' is not part of this state$"):
        sv.apply_gate(rest, sv.X, ["anc"])


@pytest.mark.parametrize("basis", [None, 0.4])
def test_measure_residual_does_not_alias_input(basis):
    rng = np.random.default_rng(11)
    mixed = random_state(rng, 3, ["a", "m", "b"])
    # measured qubit in |0>: outcome 0 has probability 1 in the Z basis
    certain = labeled_tensor(new_basis_state(1, 0, ["m"]), random_state(rng, 2))
    for s in (mixed, certain):
        before = s.amps.copy()
        _, _, rest = labeled_measure(s, "m", basis, sv.ForcedBranch([0]))
        assert not np.shares_memory(rest.amps, s.amps)
        with pytest.raises(ValueError, match="read-only"):
            rest.amps[...] = 0.0
        assert np.array_equal(s.amps, before)


def test_measure_residual_has_the_bits_of_division_by_root_prob():
    # the CLI's recorded fidelities were made by dividing by sqrt(p)
    rng = np.random.default_rng(13)
    for n, q, basis in ((3, 2, None), (5, 1, 2.2), (10, 9, -0.7)):
        s = random_state(rng, n)
        _, prob, rest = sv.measure(s, q, basis, sv.ForcedBranch([1]))
        a0, a1 = np.take(s.amps, 0, axis=q), np.take(s.amps, 1, axis=q)
        if basis is None:
            b1 = a1
        else:
            b1 = (a0 - cmath.exp(-1j * basis) * a1) / math.sqrt(2)
        assert prob == float(np.vdot(b1, b1).real)
        assert rest.amps.tobytes() == (b1 / math.sqrt(prob)).tobytes()


def _out_of_place_measure(s, q, delta, outcome):
    """(prob, residual amplitudes) by measure's formula with a fresh array at
    every step, each product in the same operand order."""
    ax = s.labels.index(q)
    a0, a1 = s.amps.take(0, axis=ax), s.amps.take(1, axis=ax)
    if delta is None:
        b0, b1 = a0, a1
    else:
        turned = cmath.exp(-1j * delta) * a1
        b0 = (a0 + turned) * (1.0 / math.sqrt(2))
        b1 = (a0 - turned) * (1.0 / math.sqrt(2))
    branch = b0 if outcome == 0 else b1
    prob = float(np.vdot(branch, branch).real)
    return prob, branch * (1.0 / math.sqrt(prob))


@pytest.mark.parametrize("n", range(1, 15))
def test_measure_matches_the_out_of_place_formula_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    s = random_state(rng, n, [f"q{i}" for i in rng.permutation(n)])
    for q in s.labels:
        for delta in (None, 0.0, math.pi / 2, float(rng.uniform(-math.pi, math.pi))):
            for outcome in (0, 1):
                got, prob, rest = labeled_measure(s, q, delta, sv.ForcedBranch([outcome]))
                want_prob, want = _out_of_place_measure(s, q, delta, outcome)
                assert got == outcome
                assert prob == want_prob
                assert rest.labels == tuple(lb for lb in s.labels if lb != q)
                assert (rest.amps + 0.0).tobytes() == (want + 0.0).tobytes()


@pytest.mark.parametrize("n", range(2, 15))
def test_measure_with_cz_partners_equals_cz_gates_then_measure_bit_for_bit(n):
    rng = np.random.default_rng(200 + n)
    s = random_state(rng, n, [f"q{i}" for i in rng.permutation(n)])
    for q in s.labels:
        others = [lb for lb in s.labels if lb != q]
        for k in range(min(3, n - 1) + 1):
            partners = [others[i] for i in rng.choice(len(others), k, replace=False)]
            gated = s
            for partner in partners:
                gated = sv.apply_gate(gated, sv.CZ, [q, partner])
            for delta in (None, 0.0, math.pi / 2, float(rng.uniform(-math.pi, math.pi))):
                for outcome in (0, 1):
                    got = labeled_measure(s, q, delta, sv.ForcedBranch([outcome]), partners)
                    want = labeled_measure(gated, q, delta, sv.ForcedBranch([outcome]))
                    assert got[:2] == want[:2]
                    assert got[2].labels == want[2].labels
                    assert got[2].amps.tobytes() == want[2].amps.tobytes()


def _half_axes(n, q):
    """The labels (axis numbers) on the first, an interior and the last axis
    of q's half; the interior is None when the half has fewer than 3 axes."""
    half = [i for i in range(n) if i != q]
    return half[0], (half[len(half) // 2] if len(half) > 2 else None), half[-1]


@pytest.mark.parametrize("n", range(2, 15))
def test_measure_folds_a_partner_on_each_axis_of_the_half_bit_for_bit(n):
    # the end axes take a view, an interior axis the where= mask
    rng = np.random.default_rng(300 + n)
    s = random_state(rng, n)
    for q in sorted({0, n // 2, n - 1}):
        for partner in _half_axes(n, q):
            if partner is None:
                continue
            gated = sv.apply_gate(s, sv.CZ, [q, partner])
            for delta in (None, 0.7):
                for outcome in (0, 1):
                    got = labeled_measure(s, q, delta, sv.ForcedBranch([outcome]), [partner])
                    want = labeled_measure(gated, q, delta, sv.ForcedBranch([outcome]))
                    assert got[:2] == want[:2], (q, partner)
                    assert got[2].labels == want[2].labels
                    assert (got[2].amps + 0.0).tobytes() == (want[2].amps + 0.0).tobytes()


@pytest.mark.parametrize("n", range(1, 15))
def test_measure_keeps_the_reference_bits(n):
    # partners on each kind of axis of the half, Z and M(delta), both outcomes;
    # the kernel takes each partner's axis in the residual, one less past q
    rng = np.random.default_rng(400 + n)
    s = random_state(rng, n)
    for q in sorted({0, n // 2, n - 1}):
        first, interior, last = _half_axes(n, q) if n > 1 else (None, None, None)
        partner_sets = {(), (first,), (interior,), (last,), (first, interior, last)}
        for cz in partner_sets:
            cz = tuple(dict.fromkeys(p for p in cz if p is not None))
            for delta in (None, 0.0, math.pi / 2, 0.7):
                for outcome in (0, 1):
                    partners = [p - (p > q) for p in cz]
                    got = sv.measure(s, q, delta, sv.ForcedBranch([outcome]), partners)
                    want = reference_measure(s, q, delta, sv.ForcedBranch([outcome]), cz)
                    assert got[:2] == want[:2], (q, cz, delta)
                    assert got[2].n == want[2].n == n - 1
                    assert got[2].amps.tobytes() == want[2].amps.tobytes()


@pytest.mark.parametrize("n", range(1, 15))
def test_tensor_keeps_the_reference_bits(n):
    rng = np.random.default_rng(500 + n)
    a = random_state(rng, n)
    for k in (1, 7):
        b = random_state(rng, k, [("b", i) for i in range(k)])
        got, want = sv.tensor(a, b), reference_tensor(a, b)
        assert got.n == want.n == n + k
        assert got.amps.shape == want.amps.shape
        assert got.amps.tobytes() == want.amps.tobytes()


@pytest.mark.parametrize("delta, halves", [(None, 2), (0.0, 3), (0.7, 3)])
def test_measure_peak_memory_is_the_two_halves_plus_the_new_branch(delta, halves):
    # bytes that Python's tracer sees, not page faults, which depend on the allocator
    s = random_state(np.random.default_rng(17), 14)
    half = s.amps.nbytes // 2
    for q in (0, 6, 13):
        first, _, last = _half_axes(14, q)
        for cz in ((), (3, 9), (first,), (last,), (first, last)):
            tracemalloc.start()
            try:
                labeled_measure(s, q, delta, sv.ForcedBranch([1]), cz)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= (halves + 0.1) * half, (q, cz)


@pytest.mark.parametrize("basis", [None, 0.0, 0.4])
def test_measure_leaves_the_input_amplitudes_unchanged(basis):
    rng = np.random.default_rng(19)
    for n in (1, 2, 5):
        s = random_state(rng, n)
        before = s.amps.copy()
        for q in range(n):
            others = [lb for lb in range(n) if lb != q]
            for cz in ((), others[:1], others[:3]):
                for outcome in (0, 1):
                    labeled_measure(s, q, basis, sv.ForcedBranch([outcome]), cz)
                    assert s.amps.tobytes() == before.tobytes()


def test_forced_impossible_branch_raises():
    s = new_basis_state(1, [0])
    with pytest.raises(DegenerateBranchError):
        sv.measure(s, 0, None, sv.ForcedBranch([1]))


def test_rotated_basis_projects_correctly():
    # |+_theta> measured in Rotated(theta) must give + deterministically
    theta = 2.1
    s = sv.new_plus_theta(theta)
    outcome, prob, _ = sv.measure(s, 0, theta, sv.ForcedBranch([0]))
    assert prob == pytest.approx(1.0, abs=ATOL)


def test_born_sampler_reproducible():
    def run(seed):
        src = sv.BornSampler(seed)
        bits = []
        for _ in range(20):
            outcome, _, _ = sv.measure(new_basis_state(1), 0, 0.0, src)
            bits.append(outcome)
        return bits

    assert run(123) == run(123)
    assert run(123) != run(124)  # astronomically unlikely to collide


# --------------------------------------------------------- partial trace


def _einsum_partial_trace(vec, n, keep):
    """Independent partial-trace oracle over a flat 2^n vector."""
    t = vec.reshape((2,) * n)
    rho = np.tensordot(t, t.conj(), axes=0)  # shape (2,)*2n
    # trace out everything not kept, pairing axis i with axis n+i
    drop = [i for i in range(n) if i not in keep]
    for d in sorted(drop, reverse=True):
        rho = np.trace(rho, axis1=d, axis2=d + (rho.ndim // 2))
    k = len(keep)
    return rho.reshape(2**k, 2**k)


def test_reduced_density_of_min_cluster_is_maximally_mixed():
    # CZ(|+_theta> (x) |+>), keep the second qubit -> I/2
    theta = math.pi / 4
    s = labeled_tensor(sv.new_plus_theta(theta, "n1"), sv.new_plus_theta(0.0, "n2"))
    s = sv.apply_gate(s, sv.CZ, ["n1", "n2"])
    got = _einsum_partial_trace(vector(s, ["n1", "n2"]), 2, keep=[1])
    assert np.allclose(got, np.eye(2) / 2, atol=ATOL)


# ---------------------------------------------------------------- fidelity


def test_fidelity_ignores_global_phase():
    theta = 1.9
    s1 = sv.new_plus_theta(theta)
    s2 = sv.PureState(vector(s1) * cmath.exp(0.77j), [0])
    assert sv.fidelity(s1, s2) == pytest.approx(1.0, abs=ATOL)


def test_fidelity_of_plus_and_plus_i():
    got = sv.fidelity(sv.new_plus_theta(0.0), sv.new_plus_theta(math.pi / 2))
    # oracle: |<+|+_i>|^2 computed from raw vectors
    v1 = np.array([1, 1]) / math.sqrt(2)
    v2 = np.array([1, 1j]) / math.sqrt(2)
    assert got == pytest.approx(float(abs(np.vdot(v1, v2)) ** 2), abs=ATOL)
    assert got == pytest.approx(0.5, abs=ATOL)


def test_fidelity_aligns_label_order():
    a = labeled_tensor(new_basis_state(1, [0], labels=["x"]), sv.new_plus_theta(0.3, "y"))
    b = labeled_tensor(sv.new_plus_theta(0.3, "y"), new_basis_state(1, [0], labels=["x"]))
    assert sv.fidelity(a, b) == pytest.approx(1.0, abs=ATOL)


def test_fidelity_rejects_mismatched_labels():
    with pytest.raises(InputError):
        sv.fidelity(sv.new_plus_theta(0.0, "a"), sv.new_plus_theta(0.0, "b"))
    # a state with one label more is refused as well, with no numpy error
    ab = labeled_tensor(sv.new_plus_theta(0.0, "a"), sv.new_plus_theta(0.0, "b"))
    for s1, s2 in ((ab, sv.new_plus_theta(0.0, "a")), (sv.new_plus_theta(0.0, "a"), ab)):
        with pytest.raises(InputError, match="^fidelity compares two states on the same labels$"):
            sv.fidelity(s1, s2)


class _SameRepr:
    """Distinct labels that all print alike."""

    def __repr__(self):
        return "q"


def test_label_order_must_be_a_permutation_by_identity():
    a, b = _SameRepr(), _SameRepr()
    with pytest.raises(InputError):
        sv.fidelity(sv.new_plus_theta(0.0, a), sv.new_plus_theta(0.0, b))


# ---------------------------------------------------------- read-only values


VALUES = [
    ("PureState", lambda s: sv.PureState(s.amps, s.labels)),
    ("new_plus_theta", lambda s: sv.new_plus_theta(0.3)),
    ("qubit_state", lambda s: sv.qubit_state([0.6, 0.8])),
    ("tensor", lambda s: labeled_tensor(s, sv.new_plus_theta(0.2, "t"))),
    ("H", lambda s: sv.apply_gate(s, sv.H, [1])),
    ("CZ", lambda s: sv.apply_gate(s, sv.CZ, [2, 0])),
    ("cnots", lambda s: sv._state(sv.apply_cnots(s, ((0, 2), (2, 1))).amps, s.labels)),
    ("measure_z", lambda s: labeled_measure(s, 1, None, sv.ForcedBranch([1]))[2]),
    ("measure_cz", lambda s: labeled_measure(s, 0, 0.7, sv.ForcedBranch([0]), [2])[2]),
]


@pytest.mark.parametrize("op", [op for _, op in VALUES], ids=[kind for kind, _ in VALUES])
def test_every_state_is_a_read_only_value(op):
    # nothing can change a state after its one norm check
    out = op(random_state(np.random.default_rng(37), 3))
    assert is_read_only_value(out)
    with pytest.raises(ValueError, match="read-only"):
        out.amps[...] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        out.amps = np.zeros_like(out.amps)
    with pytest.raises(dataclasses.FrozenInstanceError):
        out.labels = ()


# ------------------------------------------------------------ norm guards


def test_norm_drift_detected():
    with pytest.raises(InputError):
        sv.PureState(np.array([1.0, 1.0]), [0])  # norm sqrt(2)
    with pytest.raises(InputError):
        sv.PureState(np.array([math.nan, 0.0]), [0])  # norm NaN


def test_kernels_reject_a_nan_state_that_skipped_validation():
    # only the internal constructor skips the check; measure's p0 + p1 is the
    # one norm check at run time, so such a state fails at its first measurement
    bad = sv._state(np.array([math.nan, 0.0], dtype=complex), (0,))
    with pytest.raises(ContractViolation):
        sv.measure(bad, 0, None, sv.BornSampler(0))


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_non_finite_basis_angle_is_rejected(delta):
    with pytest.raises(InputError):
        sv.measure(sv.new_plus_theta(0.0), 0, delta, sv.ForcedBranch([0]))


def test_a_state_keeps_a_copy_of_its_amplitudes():
    # a caller's later write once left the state at norm 4, and measure then
    # blamed the package: "branch probabilities sum to 4.0"
    v = np.array([1, 0], complex)
    s = sv.PureState(v, ["a"])
    v[:] = [0, 2]
    assert not np.shares_memory(s.amps, v)
    assert np.array_equal(s.amps, [1, 0])
    assert sv.measure(s, 0, None, sv.ForcedBranch([0]))[:2] == (0, 1.0)
    with pytest.raises(DegenerateBranchError):
        sv.measure(s, 0, None, sv.ForcedBranch([1]))


def test_qubit_state_copies_a_vector_and_shares_a_one_qubit_state(monkeypatch):
    # a vector from outside is copied and checked; a state was checked when it
    # was built, so it is returned as it is
    checked = []
    check = sv.PureState.__post_init__

    def counting(state):
        checked.append(tuple(state.labels))
        check(state)

    one = sv.new_plus_theta(0.4, "b")
    monkeypatch.setattr(sv.PureState, "__post_init__", counting)
    vec = np.array([0.6, 0.8j])
    from_vec = sv.qubit_state(vec)
    assert sv.qubit_state(one) is one
    assert checked == [(0,)]
    vec[0] = 0.0
    assert not np.shares_memory(from_vec.amps, vec)
    with pytest.raises(ValueError, match="read-only"):
        one.amps[...] = 0.0
    assert from_vec.labels == (0,)
    assert np.array_equal(from_vec.amps, [0.6, 0.8j])
    with pytest.raises(InputError, match="^expected a single-qubit state, got 2 qubits$"):
        sv.qubit_state(new_basis_state(2))
    with pytest.raises(InputError, match="^expected a 2-vector or a 1-qubit state$"):
        sv.qubit_state([1.0, 0.0, 0.0])
