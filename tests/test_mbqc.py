"""Pattern construction, execution, and gate soundness.

The heavy checks enumerate every measurement branch of a gate pattern,
undo the tracked byproducts, and compare against the declared unitary.
Entangled (Choi-style) probe inputs make one enumeration certify the
pattern on the full input space, which keeps multi-wire checks tractable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import blindprep.mbqc as mbqc
import blindprep.statevector as sv
from blindprep.errors import InputError
from blindprep.mbqc import (
    FIXED_BASES,
    LIVE_CAP,
    ByproductFrame,
    CNOTGate,
    HadamardGate,
    MeasurementPattern,
    PatternBuilder,
    RotationGate,
    apply_byproducts,
    choi_probe,
    enumerate_branches,
    pattern_for_gate,
    rotation_unitary,
    run_pattern,
    runs,
)
from helpers import (
    build_cluster,
    is_read_only_value,
    labeled_measure,
    labeled_tensor,
    random_state,
    reference_choi_target,
    reference_run,
    traced_widths,
    vector,
)

SQ2 = 1.0 / math.sqrt(2.0)

# representative single-qubit inputs: computational pair, X pair, one Y state
FIVE_STATES = [
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([SQ2, SQ2], dtype=complex),
    np.array([SQ2, -SQ2], dtype=complex),
    np.array([SQ2, 1j * SQ2], dtype=complex),
]


def run_corrected(p, inputs, bits):
    state, transcript, frame = run_pattern(p, inputs, sv.ForcedBranch(bits))
    return apply_byproducts(state, frame), transcript


def product_target(p, vecs):
    """declared_unitary applied to a product input, labelled by output nodes."""
    psi = vecs[0]
    for v in vecs[1:]:
        psi = np.kron(psi, v)
    out = p.declared_unitary @ psi
    return sv.PureState(out.reshape((2,) * len(p.outputs)), list(p.outputs))


def full_build_run(p, inputs, bits):
    """Reference execution: the whole cluster first (build_cluster), then
    every measurement in step order. Returns (state, branch prob, frame)."""
    state = build_cluster(p, inputs)
    src = sv.ForcedBranch(bits)
    outcomes, prob = {}, 1.0
    for node, delta, deps in p.steps:
        basis = -delta if sum(outcomes[d] for d in deps) % 2 else delta
        outcomes[node], step_prob, state = labeled_measure(state, node, basis, src)
        prob *= step_prob
    frame = {
        out: (
            sum(outcomes[n] for n in p.x_corr.get(out, ())) % 2,
            sum(outcomes[n] for n in p.z_corr.get(out, ())) % 2,
        )
        for out in p.outputs
    }
    return state, prob, frame


# ------------------------------------------------------------ structure ----


def two_node(steps, outputs=((1, 0),), edges=(((0, 0), (1, 0)),), inputs=((0, 0),)):
    """A pattern over the given parts; the defaults make a valid one-hop wire."""
    return MeasurementPattern(list(inputs), list(outputs), steps, list(edges), {}, {})


X00 = [((0, 0), FIXED_BASES["x"], ())]


def test_graph_rejects_duplicate_nodes():
    # the node set is the measured nodes plus the outputs, each once
    assert two_node(X00).nodes == [(0, 0), (1, 0)]
    with pytest.raises(InputError, match="^node 0,0 is measured twice or also an output$"):
        two_node(X00 + X00)  # measured twice
    with pytest.raises(InputError, match="^node 0,0 is measured twice or also an output$"):
        two_node(X00, outputs=[(1, 0), (0, 0)])  # measured and an output
    for bad in [(0, 0.0), (0, "1"), [0, 0], (0, 0, 0)]:  # not an (x, y) int pair
        with pytest.raises(InputError, match=f"^node {re.escape(repr(bad))} is not an "):
            two_node(X00, outputs=[bad], edges=[])


def test_graph_rejects_self_loop_and_duplicate_edges():
    with pytest.raises(InputError, match="^edge 0,0 0,0 is a self-loop$"):
        two_node(X00, edges=[((0, 0), (0, 0))])
    with pytest.raises(InputError, match="^edge 1,0 0,0 is declared twice$"):
        two_node(X00, edges=[((0, 0), (1, 0)), ((1, 0), (0, 0))])


def test_graph_rejects_edge_to_missing_node():
    # an edge endpoint or an input that is neither measured nor an output
    with pytest.raises(InputError, match="^edge end 2,0 is not a measured node or an output$"):
        two_node(X00, edges=[((0, 0), (1, 0)), ((1, 0), (2, 0))])
    with pytest.raises(InputError, match="^input 2,0 is not a measured node or an output$"):
        two_node(X00, inputs=[(2, 0)])


def test_graph_rejects_a_pattern_with_no_nodes():
    # a run would have no state to return
    with pytest.raises(InputError, match="^a pattern needs at least one node$"):
        MeasurementPattern([], [], [], [], {}, {})


def test_graph_bounding_box():
    p = two_node([((1, 0), None, ())], outputs=[(5, 2)], edges=[], inputs=[(1, 0)])
    assert p.bounding_grid() == (5, 3)


def test_pattern_steps_must_cover_non_outputs():
    # without a step for (0, 0), the input and the edge name a missing node
    with pytest.raises(InputError, match="^input 0,0 is not a measured node or an output$"):
        two_node([])


def test_pattern_rejects_acausal_dependency():
    steps = [
        ((0, 0), 0.3, [(1, 0)]),  # depends on a later node
        ((1, 0), 0.0, ()),
    ]
    edges = [((0, 0), (1, 0)), ((1, 0), (2, 0))]
    with pytest.raises(InputError, match="^dep 1,0 is not measured earlier$"):
        two_node(steps, outputs=[(2, 0)], edges=edges)


def test_step_validation():
    # a Z step with deps, and a delta that is not a finite real number: each
    # refused with one line, whatever exception converting it would raise
    for step, message in [
        (((1, 0), None, [(0, 0)]), "step 1,0: a Z measurement takes no deps"),
        (((1, 0), math.nan, ()), "step 1,0: delta nan is not a finite real"),
        (((1, 0), math.inf, ()), "step 1,0: delta inf is not a finite real"),
        (((1, 0), -math.inf, [(0, 0)]), "step 1,0: delta -inf is not a finite real"),
        (((1, 0), 10**400, ()), f"step 1,0: delta {10**400} is not a finite real"),
        (((1, 0), "1.5", ()), "step 1,0: delta '1.5' is not a finite real"),
        (((1, 0), "abc", ()), "step 1,0: delta 'abc' is not a finite real"),
        (((1, 0), 1 + 0j, ()), r"step 1,0: delta \(1\+0j\) is not a finite real"),
        (((1, 0), Decimal("0.5"), ()), r"step 1,0: delta Decimal\('0.5'\) is not a finite real"),
    ]:
        with pytest.raises(InputError, match=f"^{message}$"):
            two_node(X00 + [step], outputs=[(2, 0)])
    # any other real is kept as its float, and deps as a frozenset of nodes
    for delta in (1, True, Fraction(1, 2), np.float64(-0.0), np.int8(3)):
        p = two_node(X00 + [((1, 0), delta, [(0, 0)])], outputs=[(2, 0)])
        assert p.steps[1] == ((1, 0), float(delta), frozenset({(0, 0)}))
        assert type(p.steps[1][1]) is float


def test_step_delta_is_the_measured_basis():
    # the executor measures each step at its delta, None being Z, negated
    # when its deps' outcomes have odd parity
    chain = [(x, 0) for x in range(5)]
    deltas = [(0.0, ()), (math.pi / 2, ()), (0.3, [(0, 0), (1, 0)]), (None, ())]
    steps = [(node, *step) for node, step in zip(chain, deltas)]
    p = MeasurementPattern([(0, 0)], [(4, 0)], steps, list(zip(chain, chain[1:])), {}, {})
    assert p.steps[2][2] == frozenset({(0, 0), (1, 0)})
    words = []
    for word, _, _, transcript, _ in enumerate_branches(p, {}):
        bases = [e.basis for e in transcript.entries]
        assert bases[:2] == [FIXED_BASES["x"], FIXED_BASES["y"]] == [0.0, math.pi / 2]
        assert bases[2] == (-0.3 if word[0] ^ word[1] else 0.3)
        assert bases[3] is FIXED_BASES["z"] is None
        words.append(word)
    assert len(words) == 16


# ---------------------------------------------------- single-hop identities ----


def hop_pattern(kind):
    b = PatternBuilder()
    b.wire("w", 0, 0)
    b.hop("w", kind)
    return b.build(["w"])


@pytest.mark.parametrize("theta", [0.0, math.pi / 4, 1.1, -2.0])
def test_x_hop_teleports_hadamard(theta):
    p = hop_pattern("x")
    psi = sv.new_plus_theta(theta).amps.reshape(-1)
    for s in (0, 1):
        state, transcript, frame = run_pattern(p, {(0, 0): psi}, sv.ForcedBranch([s]))
        assert transcript.entries[0].prob == pytest.approx(0.5, abs=1e-12)
        expect = sv.H.matrix @ psi
        if s:
            expect = sv.X.matrix @ expect
        assert sv.fidelity(state, sv.PureState(expect, [(1, 0)])) == pytest.approx(1.0, abs=1e-12)
        corrected = apply_byproducts(state, frame)
        assert sv.fidelity(
            corrected, sv.PureState(sv.H.matrix @ psi, [(1, 0)])
        ) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, math.pi / 4, 2.2])
def test_y_hop_teleports_h_sdg(theta):
    # fixed M(pi/2) leaves X^s H Rz(-pi/2) on the neighbour
    p = hop_pattern("y")
    psi = sv.new_plus_theta(theta).amps.reshape(-1)
    h_sdg = sv.H.matrix @ sv.rz(-math.pi / 2).matrix
    for s in (0, 1):
        state, transcript, _ = run_pattern(p, {(0, 0): psi}, sv.ForcedBranch([s]))
        assert transcript.entries[0].prob == pytest.approx(0.5, abs=1e-12)
        expect = h_sdg @ psi
        if s:
            expect = sv.X.matrix @ expect
        assert sv.fidelity(state, sv.PureState(expect, [(1, 0)])) == pytest.approx(1.0, abs=1e-12)


def test_hop_rejects_z_and_fixed_hops_with_an_angle():
    b = PatternBuilder()
    b.wire("w", 0, 0)
    with pytest.raises(InputError, match="^a hop measures x, y or rot, not 'z'$"):
        b.hop("w", "z")
    with pytest.raises(InputError, match="^a hop measures x, y or rot, not 'q'$"):
        b.hop("w", "q")
    with pytest.raises(InputError, match="^only rot hops carry an angle, not x$"):
        b.hop("w", "x", 0.3)
    with pytest.raises(InputError, match="^only rot hops carry an angle, not y$"):
        b.hop("w", "y", math.nan)
    # a rejected hop leaves the builder untouched
    assert b.hop("w", "x") == (1, 0)
    # a rot angle is checked with every other step when the pattern is built
    b.hop("w", "rot", math.nan)
    with pytest.raises(InputError, match="^step 1,0: delta nan is not a finite real$"):
        b.build(["w"])


def test_an_unregistered_wire_is_one_input_error():
    b = PatternBuilder()
    b.wire("w", 0, 0)
    for call in (
        lambda: b.carrier("nope"),
        lambda: b.hop("nope", "x"),
        lambda: b.bridge("w", "nope", []),
        lambda: b.build(["w", "nope"]),
    ):
        with pytest.raises(InputError, match="^wire 'nope' is not registered$"):
            call()
    assert b.build(["w"]).inputs == [(0, 0)]  # a refused call leaves the builder untouched


def test_build_rejects_a_node_placed_twice():
    b = PatternBuilder()
    b.wire("w", 0, 0)
    b.wire("v", 1, 0)
    b.hop("w", "x")  # onto (1, 0), the input of wire v
    with pytest.raises(InputError, match="^node 1,0 is measured twice or also an output$"):
        b.build(["w", "v"])


def test_z_elimination_is_neutral_after_correction():
    # a dangling |+> neighbour removed by a Z measurement leaves Z^s on (0, 0)
    p = MeasurementPattern(
        inputs=[(0, 0)],
        outputs=[(0, 0)],
        steps=[((0, 1), None, ())],
        edges=[((0, 0), (0, 1))],
        x_corr={},
        z_corr={(0, 0): {(0, 1)}},
    ).declaring(np.eye(2))
    psi = sv.new_plus_theta(0.7).amps.reshape(-1)
    for s in (0, 1):
        state, transcript, frame = run_pattern(p, {(0, 0): psi}, sv.ForcedBranch([s]))
        assert transcript.entries[0].basis is None
        assert transcript.entries[0].prob == pytest.approx(0.5, abs=1e-12)
        raw = sv.Z.matrix @ psi if s else psi
        assert sv.fidelity(state, sv.PureState(raw, [(0, 0)])) == pytest.approx(1.0, abs=1e-12)
        corrected = apply_byproducts(state, frame)
        assert sv.fidelity(corrected, sv.PureState(psi, [(0, 0)])) == pytest.approx(1.0, abs=1e-12)


def test_even_bridge_composes_to_cz():
    # two untouched wires joined by an empty (a bare CZ edge) or 2-node
    # X-measured bridge act as CZ
    for coords in ([], [(2, 0), (2, 1)]):
        b = PatternBuilder()
        s1 = b.wire("c", 1, 0)
        s2 = b.wire("t", 1, 1)
        b.bridge("c", "t", coords)
        p = b.build(["c", "t"]).declaring(sv.CZ.matrix)
        for va in FIVE_STATES[:4]:
            for vb in FIVE_STATES[:4]:
                target = product_target(p, [va, vb])
                total = 0.0
                for _, prob, state, _, frame in enumerate_branches(p, {s1: va, s2: vb}):
                    assert prob == pytest.approx(0.5 ** len(coords), abs=1e-12)
                    total += prob
                    corrected = apply_byproducts(state, frame)
                    assert sv.fidelity(corrected, target) == pytest.approx(1.0, abs=1e-12)
                assert total == pytest.approx(1.0, abs=1e-12)


def test_odd_bridge_is_rejected():
    b = PatternBuilder()
    b.wire("c", 1, 0)
    b.wire("t", 1, 1)
    with pytest.raises(InputError):
        b.bridge("c", "t", [(2, 0)])


# ------------------------------------------------------------ corrections ----


def test_hadamard_correction_sets_are_pinned():
    p = pattern_for_gate(HadamardGate())
    out = (5, 0)
    assert p.outputs == [out]
    assert p.x_corr[out] == frozenset({(1, 0), (3, 0), (4, 0)})
    assert p.z_corr[out] == frozenset({(2, 0), (3, 0)})
    assert p.steps == [
        ((1, 0), 0.0, frozenset()),
        ((2, 0), math.pi / 2, frozenset()),
        ((3, 0), math.pi / 2, frozenset()),
        ((4, 0), math.pi / 2, frozenset()),
    ]
    _, transcript, _ = run_pattern(p, {}, sv.BornSampler(0))
    assert [e.basis for e in transcript.entries] == [0.0, math.pi / 2, math.pi / 2, math.pi / 2]


def test_rotation_dependencies_are_pinned():
    p = pattern_for_gate(RotationGate(0.3, 0.5, 0.7))
    out = (5, 0)
    assert p.x_corr[out] == frozenset({(2, 0), (4, 0)})
    assert p.z_corr[out] == frozenset({(1, 0), (3, 0)})
    assert {node: deps for node, _, deps in p.steps} == {
        (1, 0): frozenset(),
        (2, 0): frozenset({(1, 0)}),
        (3, 0): frozenset({(2, 0)}),
        (4, 0): frozenset({(1, 0), (3, 0)}),
    }
    deltas = [delta for _, delta, _ in p.steps]
    assert deltas == pytest.approx([0.0, -0.3, -0.5, -0.7])


def parity(nodes, outcomes):
    """The GF(2) sum of the outcomes recorded for nodes."""
    return sum(outcomes[node] for node in nodes) % 2


def test_rot_basis_sign_follows_parity():
    # on every branch, against an oracle over the transcript's outcomes and
    # the pattern's public node sets: each step is measured at -delta exactly
    # when its deps have odd parity, else at delta, and the frame is the
    # parity of x_corr and z_corr
    from blindprep.cli import _ROTATION_TRIPLES

    rotations = [*_ROTATION_TRIPLES, (math.pi / 4, 0.0, 0.0)]  # the last has -0.0 angles
    gates = [RotationGate(*t) for t in rotations] + [HadamardGate(), CNOTGate(1)]
    for gate in gates:
        p = pattern_for_gate(gate)
        steps = {node: (delta, deps) for node, delta, deps in p.steps}
        count = 0
        for _, _, _, transcript, frame in enumerate_branches(p, {}):
            got = {e.node: e.outcome for e in transcript.entries}
            for e in transcript.entries:
                delta, deps = steps[e.node]
                want = -delta if parity(deps, got) else delta
                assert repr(e.basis) == repr(want), (gate, e.node)
            assert frame.exps == {
                out: (parity(p.x_corr.get(out, ()), got), parity(p.z_corr.get(out, ()), got))
                for out in p.outputs
            }
            count += 1
        assert count == 2**p.measured_count, gate


def test_byproduct_order_is_z_then_x():
    psi = sv.new_plus_theta(0.9, label="q")
    fixed = apply_byproducts(
        sv.PureState(psi.amps.copy(), ["q"]), ByproductFrame({"q": (1, 1)})
    )
    expect = sv.X.matrix @ (sv.Z.matrix @ psi.amps.reshape(-1))
    assert sv.fidelity(fixed, sv.PureState(expect, ["q"])) == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------- gate soundness ----


def assert_pattern_sound(p, inputs, target, expected_branches):
    seen = 0
    total = 0.0
    uniform = 1.0 / expected_branches
    for bits, prob, state, _, frame in enumerate_branches(p, inputs):
        assert prob == pytest.approx(uniform, abs=1e-12)
        corrected = apply_byproducts(state, frame)
        assert sv.fidelity(corrected, target) == pytest.approx(1.0, abs=1e-10)
        seen += 1
        total += prob
    assert seen == expected_branches
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("vec", FIVE_STATES)
def test_hadamard_pattern_all_branches(vec):
    p = pattern_for_gate(HadamardGate())
    assert_pattern_sound(p, {(1, 0): vec}, product_target(p, [vec]), 16)


@pytest.mark.parametrize(
    "angles",
    [(0.3, 0.5, 0.7), (math.pi / 4, 0.0, 0.0), (1.2, -0.4, 2.5)],
)
def test_rotation_pattern_all_branches(angles):
    p = pattern_for_gate(RotationGate(*angles))
    for vec in FIVE_STATES:
        assert_pattern_sound(p, {(1, 0): vec}, product_target(p, [vec]), 16)


def test_rotation_unitary_matches_euler_product():
    xi, eta, zeta = 0.3, 0.5, 0.7
    u = rotation_unitary(xi, eta, zeta)

    def rx(t):
        return np.array(
            [[math.cos(t / 2), -1j * math.sin(t / 2)], [-1j * math.sin(t / 2), math.cos(t / 2)]]
        )

    def rz_half(t):
        return np.array([[np.exp(-1j * t / 2), 0], [0, np.exp(1j * t / 2)]])

    euler = rx(zeta) @ rz_half(eta) @ rx(xi)
    phase = np.vdot(euler.reshape(-1), u.reshape(-1))
    phase /= abs(phase)
    assert np.allclose(u, phase * euler, atol=1e-12)


def test_cnot_sep1_all_branches_product_inputs():
    p = pattern_for_gate(CNOTGate(1))
    for vc in FIVE_STATES:
        for vt in FIVE_STATES:
            inputs = {(1, 0): vc, (1, 1): vt}
            assert_pattern_sound(p, inputs, product_target(p, [vc, vt]), 64)


def test_cnot_sep2_choi_all_branches():
    p = pattern_for_gate(CNOTGate(2))
    assert p.measured_count == 12
    probe, target = choi_probe(p)
    assert_pattern_sound(p, probe, target, 4096)


def test_cnot_sep3_choi_sampled_branches():
    p = pattern_for_gate(CNOTGate(3))
    probe, target = choi_probe(p)
    rng = sv.BornSampler(11)
    for _ in range(200):
        state, transcript, frame = run_pattern(p, probe, rng)
        assert transcript.branch_prob == pytest.approx(
            0.5**p.measured_count, rel=1e-9
        )
        corrected = apply_byproducts(state, frame)
        assert sv.fidelity(corrected, target) == pytest.approx(1.0, abs=1e-10)


def test_cnot_layout_grid_shape():
    # one intermediate row per unit of separation; width stays five columns
    for d in (1, 2, 3, 4):
        p = pattern_for_gate(CNOTGate(d))
        w, h = p.bounding_grid()
        assert h == d + 1
        assert w <= 5


def test_cnot_rejects_bad_separation():
    with pytest.raises(InputError):
        pattern_for_gate(CNOTGate(0))


# ------------------------------------------------------------- execution ----


def output_edge_pattern():
    """Two one-hop wires whose outputs share a CZ edge."""
    edges = [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (1, 1))]
    steps = [((0, 0), 0.0, ()), ((0, 1), 0.0, ())]
    return MeasurementPattern([(0, 0), (0, 1)], [(1, 0), (1, 1)], steps, edges, {}, {})


def test_jit_and_full_build_agree_branchwise():
    # run_pattern creates nodes and edges just in time; the reference builds
    # the whole cluster first. Rotation adds adaptive angles, CNOT a 2-D graph,
    # the star a measurement with three CZ partners, and the last pattern an
    # edge between two outputs.
    cases = [
        (pattern_for_gate(HadamardGate()), [FIVE_STATES[4]]),
        (pattern_for_gate(RotationGate(0.3, 0.5, 0.7)), [FIVE_STATES[4]]),
        (pattern_for_gate(CNOTGate(1)), [FIVE_STATES[2], FIVE_STATES[4]]),
        (star_pattern(3, "x"), [FIVE_STATES[4]]),
        (output_edge_pattern(), [FIVE_STATES[0], FIVE_STATES[4]]),
    ]
    for p, vecs in cases:
        inputs = dict(zip(p.inputs, vecs))
        seen = 0
        for bits, prob, state, _, frame in enumerate_branches(p, inputs):
            ref_state, ref_prob, ref_frame = full_build_run(p, inputs, bits)
            assert prob == pytest.approx(ref_prob, abs=1e-12)
            assert frame.exps == ref_frame
            assert sv.fidelity(state, ref_state) == pytest.approx(1.0, abs=1e-12)
            seen += 1
        assert seen == 2**p.measured_count


def test_only_edges_between_two_outputs_go_through_apply_gate(monkeypatch):
    from blindprep.steane import compile_encoder

    real, cz_calls = sv.apply_gate, []

    def counted(s, g, targets):
        if g is sv.CZ:
            cz_calls.append(list(targets))
        return real(s, g, targets)

    monkeypatch.setattr(sv, "apply_gate", counted)
    p = compile_encoder()
    run_pattern(p, {}, sv.BornSampler(3))
    assert cz_calls == []
    run_pattern(output_edge_pattern(), {}, sv.BornSampler(3))
    assert cz_calls == [[(1, 0), (1, 1)]]


def adjacency_walk(p, created):
    """Reference for mbqc._lower: the executor's adjacency walk, with each
    node created at its first use by ensure() and each step's partners
    scanned from an adjacency dict at the step, as run_pattern did before it
    lowered the pattern. Returns the same tuple of step tuples as the steps
    of p.schedule: each with its delta and the bit mask of its deps over
    step positions."""
    position = {node: i for i, (node, _, _) in enumerate(p.steps)}
    created = set(created)
    adjacent = {node: [] for node in p.nodes}
    for a, b in p.edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    measured, steps = set(), []

    def ensure(node, new):
        if node not in created:
            created.add(node)
            new.append(node)

    for node, delta, deps in p.steps:
        new = []
        ensure(node, new)
        partners = [other for other in adjacent[node] if other not in measured]
        for other in partners:
            ensure(other, new)
        measured.add(node)
        mask = sum(2 ** position[dep] for dep in deps)
        steps.append((node, delta, mask, tuple(new), tuple(partners)))
    new = []
    for node in p.outputs:
        ensure(node, new)
    edges = tuple((a, b) for a, b in p.edges if a not in measured and b not in measured)
    steps.append((None, None, 0, tuple(new), edges))
    return tuple(steps)


def lowering_cases():
    from blindprep.cli import _ROTATION_TRIPLES
    from blindprep.steane import compile_encoder

    yield "hadamard", pattern_for_gate(HadamardGate())
    for i, triple in enumerate(_ROTATION_TRIPLES):
        yield f"rotation{i}", pattern_for_gate(RotationGate(*triple))
    for d in range(1, 6):
        yield f"cnot_sep{d}", pattern_for_gate(CNOTGate(d))
    yield "encoder", compile_encoder()
    yield "output_edge", output_edge_pattern()


def walk_width(steps, held):
    """The most qubits alive at once over steps, from held alive at the start."""
    width = peak = len(held)
    for node, _, _, new, _ in steps:
        width += len(new)
        peak = max(peak, width)
        width -= node is not None
    return peak


def walk_widths(p):
    """The live widths of p counted from adjacency_walk's steps: with dict
    inputs, then with a joint state that holds every input from the start."""
    return walk_width(adjacency_walk(p, ()), ()), walk_width(adjacency_walk(p, p.inputs), p.inputs)


def without(steps, held):
    """steps with the nodes in held dropped from each step's nodes to create."""
    return tuple(
        (node, delta, deps, tuple(q for q in new if q not in held), cz)
        for node, delta, deps, new, cz in steps
    )


def test_lowering_matches_the_adjacency_walk_with_dict_and_joint_inputs():
    for name, p in lowering_cases():
        steps, _, nodes, widths, _ = p.schedule
        assert nodes == frozenset(p.nodes), name
        assert widths == walk_widths(p), name
        # dict inputs: every node, inputs included, is created at its first use
        assert steps == adjacency_walk(p, ()), name
        # a joint state, such as the Choi probe, holds the inputs plus
        # spectators that no step touches: run_pattern skips the inputs
        probe = choi_probe(p)[0] if p.declared_unitary is not None else None
        labels = p.inputs if probe is None else probe.labels
        assert without(steps, set(p.inputs)) == adjacency_walk(p, labels), name


def test_construction_lowers_once(monkeypatch):
    # one schedule serves dict inputs and a joint input state alike
    calls = []
    real = mbqc._lower
    monkeypatch.setattr(mbqc, "_lower", lambda p: calls.append(p) or real(p))
    p = two_node(X00)
    assert len(calls) == 1 and calls[0] is p
    q = dataclasses.replace(p)
    assert len(calls) == 2 and calls[1] is q


def test_a_gate_is_lowered_once_and_declaring_lowers_nothing(monkeypatch):
    from blindprep import steane

    steane.compile_encoder()  # builds the cached layout, once per process
    calls = []
    real = mbqc._lower
    monkeypatch.setattr(mbqc, "_lower", lambda p: calls.append(p) or real(p))
    for gate in (HadamardGate(), RotationGate(0.3, 0.5, 0.7), CNOTGate(2)):
        calls.clear()
        layout = mbqc.gate_layout(gate)
        assert len(calls) == 1 and calls[0] is layout
        assert layout.declaring(mbqc.gate_unitary(gate)).schedule is layout.schedule
        assert len(calls) == 1
        pattern_for_gate(gate)  # lowered in its gate_layout, not in the attach
        assert len(calls) == 2
    calls.clear()
    steane.compile_encoder()
    assert calls == []


def test_declaring_copies_every_list_and_dict_and_checks_only_the_shape():
    layout = mbqc.gate_layout(CNOTGate(1))
    u = mbqc.gate_unitary(CNOTGate(1))
    p = layout.declaring(u)
    assert p.declared_unitary is u and layout.declared_unitary is None
    names = ("inputs", "outputs", "steps", "edges", "x_corr", "z_corr")
    for name in names:
        assert getattr(p, name) == getattr(layout, name)
        assert getattr(p, name) is not getattr(layout, name)
    with pytest.raises(InputError, match="^declared unitary dimension mismatch$"):
        layout.declaring(np.eye(2))
    # declaring is the only way in: neither the constructor nor replace takes a unitary
    with pytest.raises(ValueError, match="declared_unitary"):
        dataclasses.replace(layout, declared_unitary=u)
    with pytest.raises(TypeError, match="declared_unitary"):
        MeasurementPattern(**{name: getattr(layout, name) for name in names}, declared_unitary=u)


@pytest.mark.parametrize("gate", [HadamardGate(), RotationGate(0.3, 0.5, 0.7), CNOTGate(1)])
def test_patterns_compare_by_layout_not_by_unitary(gate):
    assert pattern_for_gate(gate) == pattern_for_gate(gate) == mbqc.gate_layout(gate)
    assert pattern_for_gate(gate) != mbqc.gate_layout(CNOTGate(2))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_choi_width_is_the_most_qubits_a_choi_run_holds(monkeypatch, d):
    p = pattern_for_gate(CNOTGate(d))
    widths = []
    tensor = sv.tensor
    monkeypatch.setattr(sv, "tensor", lambda a, b: widths.append(a.n + b.n) or tensor(a, b))
    run_pattern(p, choi_probe(p)[0], sv.BornSampler(d))
    peak = max(widths)
    monkeypatch.setattr(sv, "QUBIT_CAP", peak)
    mbqc.check_choi_width(p)
    monkeypatch.setattr(sv, "QUBIT_CAP", peak - 1)
    with pytest.raises(InputError, match=f"^a Choi run holds {peak} qubits, over the cap of "):
        mbqc.check_choi_width(p)


def test_choi_width_admits_cnot_to_sep_9(monkeypatch):
    # 22 qubits at sep 9; sep 10 and 11 are refused at 25 and 26 (test_cli)
    p = mbqc.gate_layout(CNOTGate(9))
    mbqc.check_choi_width(p)
    monkeypatch.setattr(sv, "QUBIT_CAP", 21)
    with pytest.raises(InputError, match="^a Choi run holds 22 qubits, over the cap of 21$"):
        mbqc.check_choi_width(p)


def test_gate_and_encoder_widths_are_pinned_against_traced_runs():
    # the same width with dict inputs and with a joint state for each gate;
    # the encoder's 10 is the benchmark's traced peak live width
    from blindprep.cli import _ROTATION_TRIPLES
    from blindprep.steane import compile_encoder

    cases = [(HadamardGate(), 2)] + [(RotationGate(*t), 2) for t in _ROTATION_TRIPLES]
    cases += zip(map(CNOTGate, range(1, 10)), (3, 5, 6, 8, 8, 10, 10, 12, 12))
    patterns = [(mbqc.gate_layout(gate), width) for gate, width in cases]
    for p, width in patterns + [(compile_encoder(), 10)]:
        assert p.schedule[3] == (width, width) == traced_widths(p)


def test_runs_after_construction_never_lower_again(monkeypatch):
    from blindprep import steane

    p = pattern_for_gate(CNOTGate(2))
    steane.compile_encoder()  # builds the cached layout, once per process
    calls = []
    real = mbqc._lower
    monkeypatch.setattr(mbqc, "_lower", lambda *a: calls.append(a) or real(*a))
    assert sum(1 for _ in enumerate_branches(p, choi_probe(p)[0])) > 0
    for seed in range(20):
        steane.prepare_encoded_mbqc(0.3, sv.BornSampler(seed))
    assert calls == []


def test_compiled_encoder_copies_share_one_schedule():
    from blindprep.steane import compile_encoder

    first, second = compile_encoder(), compile_encoder()
    assert first.steps is not second.steps
    assert first.schedule is second.schedule
    # a copy changed in place keeps the schedule it was built with
    first.steps.pop()
    assert first.schedule is compile_encoder().schedule


def test_an_in_place_edit_of_the_steps_is_not_run():
    # the schedule is fixed at construction: dropping a step in place changes
    # nothing that run_pattern does, while a new pattern from the edited
    # fields is validated again
    p = pattern_for_gate(HadamardGate())
    vec = np.array([0.6, 0.8j])
    bits = [1, 0, 1, 1]
    want = run_pattern(p, {(1, 0): vec}, sv.ForcedBranch(bits))
    dropped = p.steps.pop()
    got = run_pattern(p, {(1, 0): vec}, sv.ForcedBranch(bits))
    assert [e.node for e in got[1].entries] == [e.node for e in want[1].entries]
    assert dropped[0] in [e.node for e in got[1].entries]
    assert got[0].amps.tobytes() == want[0].amps.tobytes()
    with pytest.raises(InputError, match="^edge end 4,0 is not a measured node or an output$"):
        dataclasses.replace(p)  # the edited fields no longer form a pattern


def test_replace_lowers_the_new_pattern_afresh():
    p = pattern_for_gate(CNOTGate(3))
    q = dataclasses.replace(p, steps=list(reversed(p.steps)))
    assert q.declared_unitary is None  # the gate's unitary is not carried onto a new layout
    assert q.schedule is not p.schedule and q.schedule != p.schedule
    assert q.schedule[0] == adjacency_walk(q, ())
    assert without(q.schedule[0], set(q.inputs)) == adjacency_walk(q, q.inputs)
    assert q.schedule[3] == walk_widths(q)
    # the same fields give an equal schedule, lowered again
    again = dataclasses.replace(p)
    assert again.schedule == p.schedule and again.schedule is not p.schedule


def test_an_encoder_run_creates_its_nodes_in_the_walk_order(monkeypatch):
    from blindprep.steane import compile_encoder

    real, created = sv.tensor, []

    def spy(a, b):
        created.append(b)
        return real(a, b)

    monkeypatch.setattr(sv, "tensor", spy)
    p = compile_encoder()
    state, _, _ = run_pattern(p, {p.inputs[3]: FIVE_STATES[4]}, sv.BornSampler(7))
    walk = [node for _, _, _, new, _ in adjacency_walk(p, ()) for node in new]
    plan, labels = p.schedule[4]
    assert [node for _, _, _, new, _, _ in plan for node in new] == walk
    # the first node starts the state; each later one comes through a tensor,
    # the shared |+> but for the supplied input, at its place in the walk
    assert len(created) == len(walk) - 1 == 168
    assert [i + 1 for i, q in enumerate(created) if q is not sv.PLUS] == [walk.index(p.inputs[3])]
    assert labels == state.labels and sorted(labels) == sorted(p.outputs)


def test_choi_target_matches_the_dense_gate_path_bit_for_bit():
    # the target scales the declared unitary by the probe's one amplitude;
    # every amplitude, signed zeros included, is the one the probe got from
    # apply_gate with that unitary as a Gate
    from blindprep.cli import _ROTATION_TRIPLES

    gates = [HadamardGate(), *(RotationGate(*t) for t in _ROTATION_TRIPLES)]
    for gate in gates + [CNOTGate(d) for d in range(1, 6)]:
        p = pattern_for_gate(gate)
        target = choi_probe(p)[1]
        specs = [("spec", i) for i in range(len(p.inputs))]
        assert target.labels == (*p.outputs, *specs)
        want = reference_choi_target(p)
        assert vector(target, want.labels).tobytes() == vector(want).tobytes(), gate


def test_choi_probe_refuses_a_declared_map_that_does_not_keep_the_norm():
    # declaring checks only the shape, so a scaled identity reaches choi_probe,
    # which refuses it as the caller's mistake before it builds the probe
    p = mbqc.gate_layout(CNOTGate(1)).declaring(2 * np.eye(4))
    with pytest.raises(InputError, match=r"^declared map takes the probe to norm\^2 4\.0, not 1$"):
        choi_probe(p)


def test_choi_probe_refuses_a_pattern_with_no_inputs():
    # there is no input to pair with a spectator, so no probe to build; a
    # pattern that declares a unitary has as many outputs as inputs, none here
    p = MeasurementPattern([], [], [((0, 0), 0.0, ())], [], {}, {}).declaring(np.eye(1))
    with pytest.raises(InputError, match="^a Choi probe needs at least one input node$"):
        choi_probe(p)


def test_choi_probe_refuses_a_pattern_that_declares_no_unitary():
    # a gate layout declares none until declaring is called: there is no target
    with pytest.raises(InputError, match="^a Choi probe needs a pattern that declares a unitary$"):
        choi_probe(mbqc.gate_layout(CNOTGate(1)))


def test_declaring_refuses_unequal_input_and_output_counts():
    # a square u on the inputs' space would give choi_probe a target whose
    # array does not fit the output labels; refused with one line instead
    p = MeasurementPattern([(0, 0)], [(1, 0), (2, 0)], X00, [((0, 0), (1, 0))], {}, {})
    for u in (np.eye(2), np.eye(4)):
        with pytest.raises(InputError, match="^declared unitary dimension mismatch$"):
            p.declaring(u)
    assert p.declared_unitary is None


def test_choi_probe_holds_the_probe_and_the_target_and_no_copy():
    # at sep 7 both are 16-qubit states of 1 MiB; a copy of the scaled
    # unitary would take the peak to three of them
    p = pattern_for_gate(CNOTGate(7))  # the unitary is built outside the traced span
    tracemalloc.start()
    try:
        probe, target = choi_probe(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probe.amps.nbytes == target.amps.nbytes == 2**20
    assert peak <= 2.5 * 2**20


def test_hop_outcomes_are_uniform_for_any_input():
    # entangling to a fresh |+> forces 50/50 outcomes whatever rides the wire
    p = hop_pattern("x")
    for vec in FIVE_STATES:
        branches = list(enumerate_branches(p, {(0, 0): vec}))
        assert [b[0] for b in branches] == [[0], [1]]
        for _, prob, _, _, _ in branches:
            assert prob == pytest.approx(0.5, abs=1e-12)


def test_enumerate_prunes_deterministic_branches():
    # an isolated |0> measured in Z has only one possible outcome
    p = MeasurementPattern(
        [(0, 0)], [(1, 0)], [((0, 0), None, ())], [], {}, {(1, 0): frozenset()}
    )
    zero = np.array([1.0, 0.0], dtype=complex)
    branches = list(enumerate_branches(p, {(0, 0): zero}))
    assert len(branches) == 1
    assert branches[0][0] == [0]
    assert branches[0][1] == pytest.approx(1.0, abs=1e-12)


def test_enumerate_skips_every_word_below_an_impossible_bit(monkeypatch):
    # an isolated |0> measured in Z first, then three X measurements along a
    # chain: its outcome 1 is impossible, so the walk runs the 8 words below
    # outcome 0 and one word below outcome 1, never the other 7
    chain = [(x, 0) for x in range(1, 5)]
    p = MeasurementPattern(
        [(0, 0)], [(4, 0)], [((0, 0), None, ())] + [(node, 0.0, ()) for node in chain[:-1]],
        list(zip(chain, chain[1:])), {}, {(4, 0): frozenset()},
    )
    calls = []

    def counted(*args):
        calls.append(args)
        return run_pattern(*args)

    monkeypatch.setattr(mbqc, "run_pattern", counted)
    branches = list(enumerate_branches(p, {(0, 0): np.array([1.0, 0.0], dtype=complex)}))
    assert [b[0][0] for b in branches] == [0] * 8
    assert [b[0][1:] for b in branches] == [list(w) for w in itertools.product((0, 1), repeat=3)]
    assert len(calls) == 9


def _x_chain(m):
    """A one-wire pattern of m X measurements."""
    b = PatternBuilder()
    b.wire("w", 0, 0)
    for _ in range(m):
        b.hop("w", "x")
    return b.build(["w"])


def test_enumeration_stops_at_22_measurements_before_running_anything(monkeypatch):
    calls = []
    real = mbqc.run_pattern
    monkeypatch.setattr(mbqc, "run_pattern", lambda *a: calls.append(a) or real(*a))
    bits, _, _, _, _ = next(enumerate_branches(_x_chain(22), None))
    assert bits == [0] * 22 and len(calls) == 1
    branches = enumerate_branches(_x_chain(23), None)
    with pytest.raises(InputError, match=r"^refusing to enumerate 2\^23 branches$"):
        next(branches)
    assert len(calls) == 1


def test_transcript_follows_column_major_order():
    p = pattern_for_gate(CNOTGate(2))
    _, transcript, _ = run_pattern(p, None, sv.BornSampler(3))
    nodes = [e.node for e in transcript.entries]
    assert nodes == sorted(nodes)
    assert len(nodes) == p.measured_count


def test_run_pattern_defaults_missing_inputs_to_plus():
    p = pattern_for_gate(HadamardGate())
    plus = np.array([SQ2, SQ2], dtype=complex)
    for bits, prob, state, _, frame in enumerate_branches(p, None):
        ref_state, ref_tr, ref_frame = run_pattern(
            p, {(1, 0): plus}, sv.ForcedBranch(bits)
        )
        assert ref_tr.branch_prob == pytest.approx(prob, abs=1e-12)
        assert sv.fidelity(ref_state, state) == pytest.approx(1.0, abs=1e-12)
        assert ref_frame.exps == frame.exps


def _driver_case(gate):
    p = pattern_for_gate(gate)
    if isinstance(gate, CNOTGate):
        return p, choi_probe(p)[0]
    return p, {(1, 0): FIVE_STATES[4]}


DRIVER_GATES = pytest.mark.parametrize(
    "gate", [HadamardGate(), CNOTGate(1)], ids=["hadamard", "cnot_sep1_choi"]
)


@DRIVER_GATES
def test_runs_without_paths_yields_every_enumerated_branch(gate):
    p, inputs = _driver_case(gate)
    got = list(runs(p, inputs))
    want = list(enumerate_branches(p, inputs))
    assert len(got) == len(want) == 2**p.measured_count
    for (state, transcript, frame), (bits, prob, ref_state, _, ref_frame) in zip(got, want):
        assert transcript.branch_word() == bits
        assert transcript.branch_prob == prob
        assert state.labels == ref_state.labels
        assert np.array_equal(state.amps, ref_state.amps)
        assert frame.exps == ref_frame.exps


@DRIVER_GATES
def test_runs_with_paths_replays_seeded_run_pattern(gate):
    p, inputs = _driver_case(gate)
    got = list(runs(p, inputs, 3, seed=5))
    assert len(got) == 3
    for i, (state, transcript, frame) in enumerate(got):
        ref_state, ref_transcript, ref_frame = run_pattern(p, inputs, sv.BornSampler(5 + i))
        assert transcript.branch_word() == ref_transcript.branch_word()
        assert transcript.branch_prob == ref_transcript.branch_prob
        assert state.labels == ref_state.labels
        assert np.array_equal(state.amps, ref_state.amps)
        assert frame.exps == ref_frame.exps


def test_run_pattern_leaves_a_joint_input_state_as_it_was():
    # the probe is used as given, not copied, so nothing may write to it
    p = pattern_for_gate(CNOTGate(1))
    probe, _ = choi_probe(p)
    amps, labels = probe.amps.tobytes(), probe.labels
    assert sum(1 for _ in enumerate_branches(p, probe)) == 2**p.measured_count
    assert probe.amps.tobytes() == amps and probe.labels == labels


def test_run_pattern_and_choi_probe_return_read_only_values():
    p = pattern_for_gate(CNOTGate(1))
    state, _, frame = run_pattern(p, {p.inputs[0]: FIVE_STATES[1]}, sv.BornSampler(0))
    probe, target = choi_probe(p)
    joint, _, _ = run_pattern(p, probe, sv.BornSampler(0))
    for out in (state, apply_byproducts(state, frame), probe, target, joint):
        assert is_read_only_value(out)


def test_run_pattern_rejects_state_on_non_input():
    p = pattern_for_gate(HadamardGate())
    with pytest.raises(InputError):
        run_pattern(p, {(2, 0): FIVE_STATES[0]}, sv.BornSampler(0))


def test_run_pattern_rejects_joint_state_missing_inputs():
    p = pattern_for_gate(CNOTGate(1))
    lone = sv.new_plus_theta(0.0, label=(1, 0))
    with pytest.raises(InputError):
        run_pattern(p, lone, sv.BornSampler(0))


def test_run_pattern_rejects_colliding_spectator_labels():
    p = pattern_for_gate(HadamardGate())
    amps = np.zeros((2, 2), dtype=complex)
    amps[0, 0] = amps[1, 1] = SQ2
    bad = sv.PureState(amps, [(1, 0), (3, 0)])  # (3, 0) is a cluster node
    with pytest.raises(InputError):
        run_pattern(p, bad, sv.BornSampler(0))


# ------------------------------------------------ integer axes vs labels ----


def assert_runs_alike(p, inputs, make_src):
    """run_pattern against reference_run, the executor that found each qubit
    by its label: amplitudes, labels, every transcript entry and the frame."""
    state, transcript, frame = run_pattern(p, inputs, make_src())
    want, entries, want_frame = reference_run(p, inputs, make_src())
    assert state.labels == want.labels
    assert state.amps.tobytes() == want.amps.tobytes()
    assert [(e.node, e.basis, e.outcome, e.prob) for e in transcript.entries] == entries
    assert frame.exps == want_frame


def test_the_encoder_runs_on_axes_with_the_bits_of_a_run_by_label():
    from blindprep.steane import DATA_WIRE, compile_encoder

    p = compile_encoder()
    for k in range(8):
        inputs = {p.inputs[DATA_WIRE - 1]: sv.new_plus_theta(k * math.pi / 4)}
        for seed in range(3):
            assert_runs_alike(p, inputs, lambda: sv.BornSampler(seed))
        assert_runs_alike(p, inputs, lambda: sv.ForcedBranch([0] * p.measured_count))


def test_gate_patterns_run_on_axes_with_the_bits_of_a_run_by_label():
    # every branch of each one-wire gate on five inputs; CNOTs on their Choi probes
    from blindprep.cli import _ROTATION_TRIPLES

    for gate in [HadamardGate(), *(RotationGate(*t) for t in _ROTATION_TRIPLES)]:
        p = pattern_for_gate(gate)
        for vec in FIVE_STATES:
            for word in itertools.product((0, 1), repeat=p.measured_count):
                assert_runs_alike(p, {p.inputs[0]: vec}, lambda: sv.ForcedBranch(word))
    for d in (1, 2, 3):
        p = pattern_for_gate(CNOTGate(d))
        probe = choi_probe(p)[0]
        for seed in range(8):
            assert_runs_alike(p, probe, lambda: sv.BornSampler(seed))
        assert_runs_alike(p, probe, lambda: sv.ForcedBranch([0] * p.measured_count))


def test_joint_inputs_run_on_axes_wherever_their_spectators_sit():
    # spectators before, between (the benchmark's Bell-pair order) and after
    # the inputs, and the inputs in reverse order
    rng = np.random.default_rng(41)
    for p in (pattern_for_gate(HadamardGate()), *map(pattern_for_gate, map(CNOTGate, (1, 2)))):
        ins, specs = list(p.inputs), [("spec", i) for i in range(len(p.inputs) + 1)]
        between = [lb for pair in zip(ins, specs) for lb in pair]
        for order in (specs + ins, between, ins + specs, specs[:1] + ins[::-1] + specs[1:]):
            joint = random_state(rng, len(order), order)
            for seed in range(4):
                assert_runs_alike(p, joint, lambda: sv.BornSampler(seed))


def test_a_joint_input_is_placed_once_per_label_order():
    # most certify ops are branches of a Choi probe: none may place it again
    p = pattern_for_gate(CNOTGate(1))
    probe = choi_probe(p)[0]
    mbqc._place.cache_clear()
    runs_made = sum(1 for _ in enumerate_branches(p, probe))
    assert mbqc._place.cache_info().misses == 1 and runs_made == 2**p.measured_count
    swapped = sv.PureState(probe.amps.T, probe.labels[::-1])
    run_pattern(p, swapped, sv.BornSampler(0))
    run_pattern(p, probe, sv.BornSampler(0))
    assert mbqc._place.cache_info().misses == 2


def test_a_joint_input_past_the_qubit_cap_is_refused_by_tensor(monkeypatch):
    # spectators are left out of the live width, so the cap on the whole state
    # is tensor's: one line, before any array of that size is built
    p = hop_pattern("x")
    monkeypatch.setattr(sv, "QUBIT_CAP", 4)
    joint = random_state(np.random.default_rng(3), 4, [(0, 0), "s1", "s2", "s3"])
    with pytest.raises(InputError, match="^tensor would exceed the 4-qubit cap$"):
        run_pattern(p, joint, sv.BornSampler(0))


def star_pattern(n_leaves, kind="z"):
    """An input centre, measured as kind, joined to n_leaves output leaves."""
    centre = (0, 0)
    leaves = [(1, y) for y in range(n_leaves)]
    return MeasurementPattern(
        [centre],
        leaves,
        [(centre, FIXED_BASES[kind], ())],
        [(centre, leaf) for leaf in leaves],
        {},
        {leaf: frozenset() for leaf in leaves},
    )


def test_live_width_cap_is_enforced():
    with pytest.raises(InputError):
        run_pattern(star_pattern(21), None, sv.BornSampler(0))
    # a spectator riding on a joint input does not count toward the cap
    amps = np.zeros((2, 2), dtype=complex)
    amps[0, 0] = amps[1, 1] = SQ2
    bell = sv.PureState(amps, [(0, 0), "spec"])
    state, _, _ = run_pattern(star_pattern(LIVE_CAP - 1), bell, sv.BornSampler(0))
    assert state.n == LIVE_CAP  # LIVE_CAP - 1 leaves plus the spectator
    with pytest.raises(InputError, match="live width"):
        run_pattern(star_pattern(LIVE_CAP), bell, sv.BornSampler(0))


def test_live_width_cap_is_checked_before_the_tensor(monkeypatch):
    # the width is lowered with the schedule, so a pattern past the cap is
    # refused before any state is built, with the pattern's peak: the centre
    # and 21 leaves, then the held input and LIVE_CAP leaves beside a spectator
    calls = []
    monkeypatch.setattr(sv, "tensor", lambda a, b: calls.append((a, b)))
    amps = np.zeros((2, 2), dtype=complex)
    amps[0, 0] = amps[1, 1] = SQ2
    bell = sv.PureState(amps, [(0, 0), "spec"])
    with pytest.raises(InputError, match=f"^live width 22 exceeds the cap of {LIVE_CAP}$"):
        run_pattern(star_pattern(21), None, sv.BornSampler(0))
    with pytest.raises(InputError, match=f"^live width 21 exceeds the cap of {LIVE_CAP}$"):
        run_pattern(star_pattern(LIVE_CAP), bell, sv.BornSampler(0))
    # a mistake in the inputs is reported before the width
    with pytest.raises(InputError, match="^joint input state must cover every input node$"):
        run_pattern(star_pattern(LIVE_CAP), sv.PureState(amps, ["a", "spec"]), sv.BornSampler(0))
    with pytest.raises(InputError, match="^joint input state labels collide with non-input"):
        run_pattern(star_pattern(LIVE_CAP), sv.PureState(amps, [(0, 0), (1, 0)]), sv.BornSampler(0))
    with pytest.raises(InputError, match=r"^state supplied for non-input node \(1, 0\)$"):
        run_pattern(star_pattern(21), {(1, 0): FIVE_STATES[0]}, sv.BornSampler(0))
    assert calls == []


def test_live_width_cap_reads_the_width_of_the_input_form(monkeypatch):
    # the widest step, a Z-measured centre beside its three output leaves,
    # comes before the input (0, 0) is first used: a dict run creates that
    # input last, while a joint state holds it from the start
    leaves = [(2, y) for y in range(3)]
    p = MeasurementPattern(
        [(0, 0)], [*leaves, (0, 0)], [((1, 0), None, ())],
        [((1, 0), leaf) for leaf in leaves], {}, {},
    )
    assert p.schedule[3] == traced_widths(p) == (4, 5)
    monkeypatch.setattr(mbqc, "LIVE_CAP", 4)
    state, _, _ = run_pattern(p, {}, sv.BornSampler(0))
    assert state.n == 4
    joint = sv.PureState(np.array([1.0, 0.0], dtype=complex), [(0, 0)])
    with pytest.raises(InputError, match="^live width 5 exceeds the cap of 4$"):
        run_pattern(p, joint, sv.BornSampler(0))


def test_build_cluster_matches_manual_preparation():
    state = build_cluster(two_node(X00))
    manual = labeled_tensor(sv.new_plus_theta(0.0, (0, 0)), sv.new_plus_theta(0.0, (1, 0)))
    manual = sv.apply_gate(manual, sv.CZ, [(0, 0), (1, 0)])
    assert sv.fidelity(state, manual) == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------- layouts ----


# one sha256 per layout; a new value means the executor may create nodes in
# another order and so change float bits: re-record it as the golden records
LAYOUT_DIGESTS = {
    "hadamard": "8135c9c64c733d65da543afe2c315fd75c2feb599f1e9ab2af1de679ec5089f2",
    "rotation": "3646e925eaacd1335732c3e04872b475986782325e8d260a2530756c392d86ef",
    "cnot1": "8fa4c5059f1c8f16336c49eb5087d5c082aa03ad4958bf43f196d3f66a8bedd8",
    "cnot2": "53d76f28dc933d865e064a25b24ab483a71c5e914eeceda595282c358b56cd7c",
    "cnot3": "9c69f53410f33d7d4c17cf9bcf5ab82077b1466309cc9ea2e0aa8bd35b81271c",
    "cnot4": "bc73d5766f4d5ab1fcb7d7db6c66d61cb2945f6179421b03c9c3ab6a2a54c8f9",
    "cnot5": "c2ea0df2767ddbf01df47e89e28a4222faf7073e564a3e856b4389c8bccac201",
    "cnot6": "8656469f0c859ca97afe194cefb834ee6126720c5ee86befae264d12b6fd2e75",
    "cnot7": "6681353544fcf362c824e9e484013fbe99e2ff6afa4c3c7c39afaf4dea055ae5",
    "cnot8": "dbcffee364a9180648d53f6a92eff54e4a23606d95fa2c2515625c048c80631e",
    "cnot9": "5286adecda18bece367453da19b221dd95c14b3463fa7752b4f8d1d07c444f11",
    "encoder": "fb8e340915d3202465df1b5ddb20c94fbe9f18dd495577d1bb4eec105e039fa3",
}


def _layout(name):
    if name == "hadamard":
        return pattern_for_gate(HadamardGate())
    if name == "rotation":
        return pattern_for_gate(RotationGate(1.1, 0.4, -0.9))
    if name == "encoder":
        from blindprep.steane import compile_encoder

        return compile_encoder()
    return pattern_for_gate(CNOTGate(int(name[4:])))


@pytest.mark.parametrize("name", sorted(LAYOUT_DIGESTS))
def test_layouts_are_pinned_in_edge_order(name):
    # the executor creates nodes in edge-list order, which fixes the float
    # bits; so the edges are hashed as listed, not sorted. Each step is hashed
    # as the (node, kind, angle, deps) text the digests were recorded from:
    # a step with deps is rot, any other is named by its fixed delta
    p = _layout(name)
    kind = {None: "z", 0.0: "x", math.pi / 2: "y"}
    steps = [
        (node, "rot", delta, sorted(deps)) if deps else (node, kind[delta], 0.0, [])
        for node, delta, deps in p.steps
    ]
    corr = [sorted((out, sorted(nodes)) for out, nodes in c.items()) for c in (p.x_corr, p.z_corr)]
    text = repr((p.inputs, p.outputs, steps, p.edges, corr))
    assert hashlib.sha256(text.encode()).hexdigest() == LAYOUT_DIGESTS[name]


# the one-hop wire of X00 with one structural fault or one field in the wrong
# shape: the fields that differ, and the validator's message
DIRECT_FAULTS = {
    "self_loop": ({"edges": [((0, 0), (0, 0))]}, "edge 0,0 0,0 is a self-loop"),
    "undeclared_edge_end": (
        {"edges": [((0, 0), (2, 0))], "steps": X00 + [((3, 0), 0.0, ())]},
        "edge end 2,0 is not a measured node or an output",
    ),
    "loose_input": (
        {"inputs": [(0, 0), (5, 5)]}, "input 5,5 is not a measured node or an output"
    ),
    "corr_not_output": (
        {"x_corr": {(1, 0): frozenset({(0, 0)})}, "z_corr": {(0, 0): frozenset()}},
        "zcorr target 0,0 is not an output",
    ),
    "corr_unmeasured": (
        {"x_corr": {(1, 0): frozenset({(0, 0), (3, 3)})}}, "xcorr node 3,3 is not a measured node"
    ),
    "late_dep": (
        {"steps": X00 + [((2, 0), 0.5, [(3, 0)]), ((3, 0), 0.0, ())]},
        "dep 3,0 is not measured earlier",
    ),
    "measured_twice": ({"steps": X00 + X00}, "node 0,0 is measured twice or also an output"),
    "measured_output": (
        {"outputs": [(1, 0), (0, 0)]}, "node 0,0 is measured twice or also an output"
    ),
    "input_twice": ({"inputs": [(0, 0), (0, 0)]}, "input 0,0 is declared twice"),
    "edge_twice": (
        {"edges": [((1, 0), (0, 0)), ((1, 0), (0, 0))]}, "edge 1,0 0,0 is declared twice"
    ),
    "edge_reversed": (
        {"edges": [((0, 0), (1, 0)), ((1, 0), (0, 0))]}, "edge 1,0 0,0 is declared twice"
    ),
    # a field in the wrong shape
    "two_field_step": ({"steps": [((0, 0), 0.0)]}, "steps entry ((0, 0), 0.0) is not a 3-tuple"),
    "int_deps": ({"steps": [((0, 0), 0.0, 5)]}, "deps of 0,0 is 5, not a collection of nodes"),
    "one_ended_edge": ({"edges": [((0, 0),)]}, "edges entry ((0, 0),) is not a 2-tuple"),
    "no_steps": ({"steps": None}, "steps must be a list, not None"),
    "no_inputs": ({"inputs": None}, "inputs must be a list, not None"),
    "int_xcorr_nodes": (
        {"x_corr": {(1, 0): 5}}, "x_corr of 1,0 is 5, not a collection of nodes"
    ),
    "xcorr_list": ({"x_corr": [(1, 0)]}, "x_corr must be a dict, not [(1, 0)]"),
    "int_zcorr_target": ({"z_corr": {5: ()}}, "node 5 is not an (x, y) int pair"),
}


@pytest.mark.parametrize("name", list(DIRECT_FAULTS))
def test_pattern_built_in_code_reports_the_parsers_fault(name):
    # one validator, one vocabulary: each fault is named by its declaration
    fields, message = DIRECT_FAULTS[name]
    wire = {"inputs": [(0, 0)], "outputs": [(1, 0)], "steps": X00, "edges": [],
            "x_corr": {}, "z_corr": {}}
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        MeasurementPattern(**{**wire, **fields})


# a list where an (x, y) pair belongs, in each place a pattern hashes a node
LIST_NODE_FIELDS = {
    "input": lambda: {"inputs": [[0, 0]]},
    "edge_end": lambda: {"edges": [([0, 0], (1, 0))]},
    "xcorr": lambda: {"x_corr": {(1, 0): [[0, 0]]}},
    "zcorr": lambda: {"z_corr": {(1, 0): [[0, 0]]}},
    "rot_dep": lambda: {"steps": [((0, 0), 0.1, [[0, 0]])]},
}


@pytest.mark.parametrize("place", list(LIST_NODE_FIELDS))
def test_a_list_node_is_a_structural_fault(place):
    wire = {"inputs": [(0, 0)], "outputs": [(1, 0)], "steps": X00, "edges": [],
            "x_corr": {}, "z_corr": {}}
    with pytest.raises(InputError, match=r"^node \[0, 0\] is not an \(x, y\) int pair$"):
        MeasurementPattern(**{**wire, **LIST_NODE_FIELDS[place]()})


def test_trimmed_wire_still_acts_as_hadamard():
    # a Hadamard chain whose input has a dangling neighbour, removed by a Z
    # measurement: after its Z byproduct the chain acts as if it were never
    # attached. The only pattern that eliminates a z node inside a chain.
    steps = [((1, 0), 0.0, ()), ((1, 1), None, ())]
    steps += [((x, 0), math.pi / 2, ()) for x in (2, 3, 4)]
    chain = [(x, 0) for x in range(1, 6)]
    p = MeasurementPattern(
        inputs=[(1, 0)],
        outputs=[(5, 0)],
        steps=steps,
        edges=[((1, 0), (1, 1))] + list(zip(chain, chain[1:])),
        x_corr={(5, 0): frozenset({(1, 0), (1, 1), (3, 0), (4, 0)})},
        z_corr={(5, 0): frozenset({(2, 0), (3, 0)})},
    )
    assert [delta for _, delta, _ in p.steps].count(None) == 1
    assert p.measured_count == 5
    for vec in FIVE_STATES:
        target = sv.PureState(sv.H.matrix @ vec, [p.outputs[0]])
        for bits in np.ndindex(*(2,) * 5):
            state, _ = run_corrected(p, {p.inputs[0]: vec}, list(bits))
            assert sv.fidelity(state, target) == pytest.approx(1.0, abs=1e-10)
