"""Measurement patterns, their builder, and the one-way executor.

Conventions (fixed once, everything else is derived):
- Cluster nodes are prepared as |+> (or a supplied input state), entangled by
  CZ along the pattern's edges, and consumed by destructive measurement. The
  executor folds each edge's CZ into the measurement of its first measured
  endpoint (the E-then-M pairing of the measurement calculus); only an edge
  between two outputs goes through sv.apply_gate.
- M(delta) is the equatorial basis |+/-_delta>; outcome s=0 is the + branch.
- Head-of-chain identity: measuring the first node of an edge pair in M(delta)
  leaves X^s H Rz(-delta) |psi> on its neighbour. Z-basis measurement of a
  neighbour removes it, leaving Z^s on the survivors.
- Each non-output node is consumed by one step (node, delta, deps): Z if
  delta is None, else M(delta), negated when its deps' outcomes have odd
  parity (the measurement calculus's s-domain). Callers name fixed bases by
  kind, through FIXED_BASES; the builder lays x, y and rot hops, so a Z step
  comes only from a pattern built directly, e.g. min_cluster_pattern("z").
- Byproducts are tracked as exponent pairs (a, b) meaning X^a Z^b per wire.
  Every exponent is a GF(2) sum of measurement outcomes, so patterns carry
  static node sets (x_corr / z_corr) and adaptive-angle dependency sets, all
  computed symbolically by PatternBuilder while a layout is described.
  Construction lowers each set to a bit mask over step positions and each
  node to an integer axis, so a run keeps its outcomes as one int, reads each
  sign or exponent as the parity of that int under a mask, and reads node
  labels only at its boundary.

Gate layouts (node counts are this implementation's choice; the soundness
tests are the authority for their correctness):

  Hadamard                 Rotation(xi, eta, zeta)
  in--x--y--y--y--out      in--x--(-xi)--(-eta)--(-zeta)--out
  (5-node chain)           (5-node chain, adaptive signs)

  CNOT between wires separated by d rows: the control wire is a 5-node row
  whose middle node couples through a vertical bridge of X-measured nodes to
  the target row. An even-length bridge composes to exactly CZ between its
  endpoints times known outcome-parity Z byproducts, while an odd bridge is
  a non-unitary parity fusion, so the bridge must have even length: odd d
  runs straight (d-1 nodes), even d adds one jog node next to the target.
  The target row is a 3-node chain (odd d) or 5-node chain (even d) so the
  coupling lands between two single hops (H.CZ.H = CNOT on the target side).
  Pass-through wires ride 3-node chains placed off the bridge column and
  contribute identity. One intermediate row forms the repeatable tile.

Node identifiers ARE their (column, row) grid coordinates, which keeps
transcripts, corrections, and the validator's messages readable.
"""

from __future__ import annotations

import copy
import functools
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import statevector as sv
from .errors import DegenerateBranchError, InputError

LIVE_CAP = 20  # most qubits a run holds at once: lowered per pattern, checked before any state
MAX_ENUMERATED = 22  # most measurements whose branches enumerate_branches walks

Node = tuple  # (x, y) int pairs


def _pair(node) -> Node:
    """node itself, checked to be an (x, y) int pair before anything hashes it."""
    if not isinstance(node, tuple) or len(node) != 2 or not all(isinstance(c, int) for c in node):
        raise InputError(f"node {node!r} is not an (x, y) int pair")
    return node


def _node_set(value, name: str, node: Node) -> frozenset:
    """value's nodes as a frozenset, each checked by _pair; a value that is
    not iterable is refused as the field name of node."""
    try:
        return frozenset(map(_pair, value))
    except TypeError:  # not iterable
        raise InputError(f"{name} of {_c(node)} is {value!r}, not a collection of nodes") from None


def _c(node: Node) -> str:
    """A node as the validator's messages print it: x,y."""
    return f"{node[0]},{node[1]}"


# kind -> the delta sv.measure takes: None is Z, a float is M(delta)
FIXED_BASES = {"z": None, "x": 0.0, "y": math.pi / 2}


# -------------------------------------------------------------- patterns ----


@dataclass
class MeasurementPattern:
    """A runnable one-way pattern with static correction bookkeeping.

    Every non-output node is measured exactly once, so the node set is not
    stored: it is the measured nodes in step order, then the outputs.
    steps: measurement order, one (node, delta, deps) per measured node:
    delta None (Z, with no deps) or a finite real, deps nodes measured earlier.
    edges: CZ pairs, each stored lowest node first; the list order is kept,
    because the executor entangles in that order.
    x_corr/z_corr: per output node, the set of measured nodes whose outcome
    parity gives the X / Z byproduct exponent on that output.
    declared_unitary: intended map on the wire space (inputs order = wire
    order = outputs order); None for a pattern that claims none, such as a
    gate_layout or blindness.min_cluster_pattern. Only declaring sets it:
    the constructor and dataclasses.replace build undeclared patterns, and
    equality compares layouts, never the unitary.
    schedule: what the executor runs, lowered by _lower when the pattern is
    built: the steps, each measured one with its delta and the bit mask of
    its deps (bit i is step i), the x_corr / z_corr masks of each output,
    the node set, the live widths (dict and joint inputs) that run_pattern
    checks before it builds any state, and the steps placed on integer axes
    for dict inputs. It is immutable, so copies share it.

    Construction validates and lowers once; a change made in place later is
    not checked, and the executor still runs the steps, edges and
    corrections lowered at construction. To change a pattern, build a new
    one, for example with dataclasses.replace.
    """

    inputs: list
    outputs: list
    steps: list  # [(node, delta, deps)]
    edges: list
    x_corr: dict
    z_corr: dict
    declared_unitary: np.ndarray | None = field(default=None, init=False, compare=False)
    schedule: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, size in (("inputs", None), ("outputs", None), ("steps", 3), ("edges", 2)):
            rows = getattr(self, name)
            if not isinstance(rows, (list, tuple)):
                raise InputError(f"{name} must be a list, not {rows!r}")
            for row in rows if size else ():
                if not isinstance(row, (list, tuple)) or len(row) != size:
                    raise InputError(f"{name} entry {row!r} is not a {size}-tuple")
        nodes: set = set()
        for node in map(_pair, self.nodes):
            if node in nodes:
                raise InputError(f"node {_c(node)} is measured twice or also an output")
            nodes.add(node)
        if not nodes:
            raise InputError("a pattern needs at least one node")
        for i, node in enumerate(map(_pair, self.inputs)):
            if node not in nodes:
                raise InputError(f"input {_c(node)} is not a measured node or an output")
            if node in self.inputs[:i]:
                raise InputError(f"input {_c(node)} is declared twice")
        measured: set = set()
        steps = []
        for node, delta, deps in self.steps:
            deps = _node_set(deps, "deps", node)
            if delta is not None:
                # a float's range: refuses nan, inf and an int too large to convert
                if not (isinstance(delta, numbers.Real) and abs(delta) <= sys.float_info.max):
                    raise InputError(f"step {_c(node)}: delta {delta!r} is not a finite real")
                delta = float(delta)
            elif deps:
                raise InputError(f"step {_c(node)}: a Z measurement takes no deps")
            if late := deps - measured:
                raise InputError(f"dep {_c(min(late))} is not measured earlier")
            steps.append((node, delta, deps))
            measured.add(node)
        self.steps = steps
        pairs: set = set()
        for a, b in self.edges:
            pair = frozenset((_pair(a), _pair(b)))
            if a == b:
                raise InputError(f"edge {_c(a)} {_c(b)} is a self-loop")
            for end in (a, b):
                if end not in nodes:
                    raise InputError(f"edge end {_c(end)} is not a measured node or an output")
            if pair in pairs:
                raise InputError(f"edge {_c(a)} {_c(b)} is declared twice")
            pairs.add(pair)
        self.edges = [tuple(sorted(e)) for e in self.edges]
        for name in ("x_corr", "z_corr"):
            kind, corr = name.replace("_", ""), getattr(self, name)
            if not isinstance(corr, dict):
                raise InputError(f"{name} must be a dict, not {corr!r}")
            for out, dep_nodes in corr.items():
                if _pair(out) not in self.outputs:
                    raise InputError(f"{kind} target {_c(out)} is not an output")
                unmeasured = _node_set(dep_nodes, name, out) - measured
                if unmeasured:
                    raise InputError(f"{kind} node {_c(min(unmeasured))} is not a measured node")
        self.schedule = _lower(self)

    def declaring(self, u: np.ndarray) -> MeasurementPattern:
        """A copy that declares u, with lists and dicts of its own and this
        pattern's schedule. Only shapes are checked, nothing is lowered: a
        unitary maps k inputs to k outputs, so u must be 2^k x 2^k."""
        if len(self.outputs) != len(self.inputs) or u.shape != (2 ** len(self.inputs),) * 2:
            raise InputError("declared unitary dimension mismatch")
        out = copy.copy(self)
        for name in ("inputs", "outputs", "steps", "edges", "x_corr", "z_corr"):
            setattr(out, name, copy.copy(getattr(self, name)))
        out.declared_unitary = u
        return out

    @property
    def nodes(self) -> list:
        """Measured nodes in step order, then the outputs."""
        return [node for node, _, _ in self.steps] + list(self.outputs)

    @property
    def measured_count(self) -> int:
        return len(self.steps)

    def bounding_grid(self) -> tuple[int, int]:
        xs = [x for x, _ in self.nodes]
        ys = [y for _, y in self.nodes]
        return (max(xs) - min(xs) + 1, max(ys) - min(ys) + 1)


@dataclass
class TranscriptEntry:
    node: Node
    basis: float | None  # the delta measured in; None is Z
    outcome: int
    prob: float


@dataclass
class Transcript:
    """Ordered measurement record of one pattern execution branch."""

    entries: list = field(default_factory=list)

    @property
    def branch_prob(self) -> float:
        p = 1.0
        for e in self.entries:
            p *= e.prob
        return p

    def branch_word(self) -> list:
        return [e.outcome for e in self.entries]


@dataclass
class ByproductFrame:
    """Pending X^a Z^b per output node (exponents mod 2)."""

    exps: dict  # node -> (a, b)


def apply_byproducts(state: sv.PureState, frame: ByproductFrame) -> sv.PureState:
    """Apply the pending corrections: X^a Z^b means Z first, then X."""
    for node, (a, b) in frame.exps.items():
        if b:
            state = sv.apply_gate(state, sv.Z, [node])
        if a:
            state = sv.apply_gate(state, sv.X, [node])
    return state


# -------------------------------------------------------------- executor ----


def run_pattern(
    p: MeasurementPattern, inputs: dict | sv.PureState | None, src: sv.OutcomeSource
) -> tuple[sv.PureState, Transcript, ByproductFrame]:
    """Execute a pattern and return (residual state, transcript, byproduct frame).

    inputs: dict node -> 1-qubit state/2-vector (missing input nodes default
    to |+>), or a joint PureState whose labels include every input node
    (extra labels ride along untouched as spectators, e.g. Choi probes).
    The steps are p.schedule, lowered once when p was built (a joint state's
    inputs are never created), on the axes _place numbered: labels are read
    only here, and the residual is labelled last. The input form's lowered live
    width (spectators excluded) is checked against LIVE_CAP before any state.
    """
    steps, corr, nodes, widths, placed = p.schedule
    # a joint state is used as given, since states are read-only values;
    # its labels past the inputs are spectators
    live = inputs if isinstance(inputs, sv.PureState) else None
    seeded = {} if live is not None else dict(inputs or {})
    wires = set(p.inputs)
    if live is not None and not wires <= set(live.labels):
        raise InputError("joint input state must cover every input node")
    if live is not None and not nodes.isdisjoint(set(live.labels) - wires):
        raise InputError("joint input state labels collide with non-input nodes")
    for node in seeded:
        if node not in wires:
            raise InputError(f"state supplied for non-input node {node}")

    if (width := widths[live is not None]) > LIVE_CAP:
        raise InputError(f"live width {width} exceeds the cap of {LIVE_CAP}")
    plan, labels = placed if live is None else _place(steps, live.labels)
    transcript = Transcript()
    bits = 0  # bit i is the outcome of step i
    for i, (node, delta, deps, new, ax, cz) in enumerate(plan):
        for fresh in new:
            spec = seeded.get(fresh)  # the supplied state, else the shared |+>
            q = sv.PLUS if spec is None else sv.qubit_state(spec)
            live = q if live is None else sv.tensor(live, q)
        if node is None:  # the last step: its cz are edges between two outputs
            break
        if (deps & bits).bit_count() & 1:
            delta = -delta
        outcome, prob, live = sv.measure(live, ax, delta, src, cz)
        bits |= outcome << i
        transcript.entries.append(TranscriptEntry(node, delta, outcome, prob))

    state = sv._state(live.amps, labels)
    for a, b in cz:
        state = sv.apply_gate(state, sv.CZ, [a, b])
    frame = {out: ((x & bits).bit_count() & 1, (z & bits).bit_count() & 1) for out, x, z in corr}
    return state, transcript, ByproductFrame(frame)


def _lower(p: MeasurementPattern) -> tuple:
    """run_pattern's (steps, corr, nodes, widths, placed). steps: (node, delta,
    deps mask, nodes to create first, CZ partners) per measured node, then
    (None, None, 0, outputs to create, edges between two outputs). Each node
    is created at its first use, inputs included. corr: (output, x_corr mask,
    z_corr mask) per output. Bit i of a mask is step i. nodes: every node, as
    a frozenset. widths: the most qubits alive at once with dict inputs, then
    with a joint state. placed: the steps on the axes of a run with dict
    inputs (see _place)."""
    last = len(p.steps)
    at = dict.fromkeys(p.outputs, last) | {node: i for i, (node, _, _) in enumerate(p.steps)}

    def mask(nodes: Iterable[Node]) -> int:
        return sum(1 << at[node] for node in nodes)

    partners: list = [[] for _ in range(last + 1)]
    for a, b in p.edges:  # to the first measured end, in p.edges order
        a, b = (a, b) if at[a] <= at[b] else (b, a)
        partners[at[a]].append(b if at[a] < last else (a, b))
    created: set = set()
    steps = []
    width, peak, joint = 0, 0, len(p.inputs)  # a joint state also holds uncreated inputs
    for (node, delta, deps), cz in zip(p.steps + [(None, None, ())], partners):
        new = tuple(q for q in ([node] + cz if node is not None else p.outputs) if q not in created)
        created.update(new)
        steps.append((node, delta, mask(deps), new, tuple(cz)))
        width += len(new)
        peak, joint = max(peak, width), max(joint, width + sum(q not in created for q in p.inputs))
        width -= node is not None
    corr = tuple(
        (out, mask(p.x_corr.get(out, ())), mask(p.z_corr.get(out, ()))) for out in p.outputs
    )
    steps = tuple(steps)
    return steps, corr, frozenset(at), (peak, joint), _place(steps, ())


@functools.lru_cache(maxsize=16)
def _place(steps: tuple, held: tuple) -> tuple:
    """(plan, labels): steps on the axes of a run from a state on the labels held (none
    for dict inputs, a joint state's otherwise, so a joint plan is placed once per label
    order). A created node takes the next axis; a measured one is removed, and each later
    axis moves down one. plan: (node, delta, deps, nodes to create, measured axis, CZ
    partners' axes in the residual) per step; the last has axis None and keeps its edges
    between two outputs as labels. labels: the residual's, in axis order."""
    order, plan = list(held), []
    for node, delta, deps, new, cz in steps:
        order += (new := tuple(q for q in new if q not in held))
        ax = None if node is None else order.index(node)
        if node is not None:
            del order[ax]
            cz = tuple(order.index(b) for b in cz)
        plan.append((node, delta, deps, new, ax, cz))
    return tuple(plan), tuple(order)


def enumerate_branches(
    p: MeasurementPattern, inputs
) -> Iterator[tuple[list, float, sv.PureState, Transcript, ByproductFrame]]:
    """Walk every measurement branch, pruning zero-probability subtrees.

    Yields (branch word, branch probability, residual state, transcript,
    frame). Cost grows with 2^measured_count; callers keep patterns small.
    """
    check_enumerable(p)
    m = p.measured_count
    word = 0
    while word < (1 << m):
        bits = [(word >> (m - 1 - i)) & 1 for i in range(m)]
        src = sv.ForcedBranch(bits)
        try:
            state, transcript, frame = run_pattern(p, inputs, src)
        except DegenerateBranchError:
            dead = src.pos - 1  # index of the impossible bit
            word = ((word >> (m - 1 - dead)) + 1) << (m - 1 - dead)
            continue
        yield bits, transcript.branch_prob, state, transcript, frame
        word += 1


def check_enumerable(p: MeasurementPattern) -> None:
    """Refuse a pattern with more than MAX_ENUMERATED measurements; callers
    that build costly inputs for an enumeration check before building them."""
    if p.measured_count > MAX_ENUMERATED:
        raise InputError(f"refusing to enumerate 2^{p.measured_count} branches")


def check_choi_width(p: MeasurementPattern) -> None:
    """Refuse a pattern whose run on choi_probe would hold more than QUBIT_CAP
    qubits: its joint live width, lowered once, plus a spectator per input.
    Callers check before they build the unitary or any state."""
    if (qubits := p.schedule[3][1] + len(p.inputs)) > sv.QUBIT_CAP:
        raise InputError(f"a Choi run holds {qubits} qubits, over the cap of {sv.QUBIT_CAP}")


def runs(
    p: MeasurementPattern, inputs, paths: int = 0, seed: int = 0
) -> Iterator[tuple[sv.PureState, Transcript, ByproductFrame]]:
    """Yield (residual state, transcript, frame) for every branch (paths 0)
    or for `paths` Born-sampled runs, seeded seed, seed + 1, ..."""
    if paths < 0:
        raise InputError(f"paths must be non-negative, got {paths}")
    if paths == 0:
        for _, _, state, transcript, frame in enumerate_branches(p, inputs):
            yield state, transcript, frame
    for i in range(paths):
        yield run_pattern(p, inputs, sv.BornSampler(seed + i))


# --------------------------------------------------------------- builder ----


class PatternBuilder:
    """Describes a layout while symbolically tracking byproduct frames.

    Wire frames are (a, b) sets of node ids over GF(2); hop and bridge
    update them per the rules in the module docstring, so the finished
    pattern carries exact static correction sets and adaptive dependencies.
    Every node it lays is x, y or rot measured, or an output.
    """

    def __init__(self) -> None:
        self._edges: list = []
        self._steps: list = []
        self._wires: dict = {}

    def wire(self, key, x: int, y: int) -> Node:
        """Register a wire whose input node sits at (x, y)."""
        if key in self._wires:
            raise InputError(f"wire {key!r} already exists")
        node = (x, y)
        self._wires[key] = {"input": node, "carrier": node, "a": frozenset(), "b": frozenset()}
        return node

    def _wire(self, key) -> dict:
        if key not in self._wires:
            raise InputError(f"wire {key!r} is not registered")
        return self._wires[key]

    def carrier(self, key) -> Node:
        return self._wire(key)["carrier"]

    def hop(self, key, kind: str, angle: float = 0.0, x: int | None = None) -> Node:
        """Advance a wire one node along its row: measure the carrier at
        FIXED_BASES[kind] ("x", "y") or at angle ("rot"), whose sign adapts
        to the pending X, and move to column x, by default one right of it."""
        if kind not in ("x", "y", "rot"):
            raise InputError(f"a hop measures x, y or rot, not {kind!r}")
        if angle and kind != "rot":
            raise InputError(f"only rot hops carry an angle, not {kind}")
        w = self._wire(key)
        u = w["carrier"]
        a, b = w["a"], w["b"]
        v = (u[0] + 1 if x is None else x, u[1])
        self._edges.append((u, v))
        self._steps.append((u, angle, a) if kind == "rot" else (u, FIXED_BASES[kind], ()))
        # a pending X flips a fixed M(pi/2)'s sign, which re-reads the
        # outcome; fold that into the new frame
        w["a"], w["b"] = frozenset({u}) ^ b ^ (a if kind == "y" else frozenset()), a
        w["carrier"] = v
        return v

    def bridge(self, k1, k2, coords: Sequence[tuple]) -> None:
        """Even-length X-measured chain linking two carriers; an empty chain
        is a direct CZ edge.

        With coords listed k1 -> k2, the chain composes to CZ with the
        crossed outcome parities Z^{s_2 xor s_4 xor ...} on the k1 side and
        Z^{s_1 xor s_3 xor ...} on the k2 side, plus the swap rule: each
        side's pending X becomes a Z on the other.
        """
        if len(coords) % 2 != 0:
            raise InputError("bridges must contain an even node count")
        w1, w2 = self._wire(k1), self._wire(k2)
        inner = [(int(x), int(y)) for x, y in coords]
        chain = [w1["carrier"], *inner, w2["carrier"]]
        self._edges.extend(zip(chain, chain[1:]))
        self._steps.extend((node, 0.0, ()) for node in inner)
        w1["b"] = w1["b"] ^ frozenset(inner[1::2]) ^ w2["a"]
        w2["b"] = w2["b"] ^ frozenset(inner[0::2]) ^ w1["a"]

    def build(self, wire_order: Sequence) -> MeasurementPattern:
        """Freeze into a MeasurementPattern that declares no unitary yet.

        Inputs are the wires' first nodes and outputs their current carriers,
        both in wire_order. Measurements are ordered column-major by their
        grid coordinates.
        """
        wires = [self._wire(k) for k in wire_order]
        return MeasurementPattern(
            inputs=[w["input"] for w in wires],
            outputs=[w["carrier"] for w in wires],
            steps=sorted(self._steps, key=lambda item: (item[0][0], item[0][1])),
            edges=list(self._edges),
            x_corr={w["carrier"]: w["a"] for w in wires},
            z_corr={w["carrier"]: w["b"] for w in wires},
        )


# ---------------------------------------------------------- gate library ----


@dataclass(frozen=True)
class HadamardGate:
    pass


@dataclass(frozen=True)
class RotationGate:
    xi: float
    eta: float
    zeta: float


@dataclass(frozen=True)
class CNOTGate:
    separation: int


def lay_hadamard(b: PatternBuilder, key) -> None:
    """Five-node chain measured X, Y, Y, Y; net byproduct X^{s1+s3+s4} Z^{s2+s3}."""
    for kind in ("x", "y", "y", "y"):
        b.hop(key, kind)


def lay_rotation(b: PatternBuilder, key, xi: float, eta: float, zeta: float) -> None:
    """Five-node chain realizing Rx(zeta) Rz(eta) Rx(xi) via nominal angles
    (0, -xi, -eta, -zeta); signs of the last three adapt to earlier outcomes."""
    b.hop(key, "x")
    b.hop(key, "rot", -xi)
    b.hop(key, "rot", -eta)
    b.hop(key, "rot", -zeta)


def lay_cnot(b: PatternBuilder, keys: Sequence) -> None:
    """CNOT from keys[0] (control) to keys[-1] (target); keys in between pass
    through unchanged. Wire rows must be consecutive top-to-bottom."""
    control, target = keys[0], keys[-1]
    rows = [b.carrier(k)[1] for k in keys]
    if rows != list(range(rows[0], rows[0] + len(keys))):
        raise InputError("lay_cnot expects consecutive rows, control on top")
    rc, rt = rows[0], rows[-1]
    base = max(b.carrier(k)[0] for k in keys)
    # the target's column before the bridge, its columns after, the jog that keeps it even
    if (rt - rc) % 2:
        before, after, jog = base + 2, (base + 3,), []
    else:
        before, after, jog = base + 1, (base + 2, base + 3, base + 4), [(base + 1, rt - 1)]
    b.hop(control, "x", x=base + 1)
    b.hop(control, "x", x=base + 2)  # carrier now at the coupling column
    b.hop(target, "x", x=before)
    b.bridge(control, target, [(base + 2, r) for r in range(rc + 1, rt)] + jog)
    b.hop(control, "x", x=base + 3)
    b.hop(control, "x", x=base + 4)
    for x in after:
        b.hop(target, "x", x=x)
    for key in keys[1:-1]:
        b.hop(key, "x", x=base + 3)
        b.hop(key, "x", x=base + 4)


def rotation_unitary(xi: float, eta: float, zeta: float) -> np.ndarray:
    """Declared rotation matrix: H R(zeta) H R(eta) H R(xi) H, R = diag(1, e^{i.})."""
    h = sv.H.matrix
    return h @ sv.rz(zeta).matrix @ h @ sv.rz(eta).matrix @ h @ sv.rz(xi).matrix @ h


def gate_layout(gate: HadamardGate | RotationGate | CNOTGate) -> MeasurementPattern:
    """Lay the standalone measurement pattern for one gate, declaring no
    unitary yet: for a wide CNOT that dense matrix is the costly part, so a
    caller can count the measurements first. A CNOT whose unitary would
    pass the qubit cap is refused before it is laid."""
    b = PatternBuilder()
    if isinstance(gate, (HadamardGate, RotationGate)):
        b.wire("w", 1, 0)
        if isinstance(gate, HadamardGate):
            lay_hadamard(b, "w")
        else:
            lay_rotation(b, "w", gate.xi, gate.eta, gate.zeta)
        return b.build(["w"])
    if isinstance(gate, CNOTGate):
        d = gate.separation
        if not isinstance(d, int) or d < 1:
            raise InputError("CNOT separation must be a positive integer")
        if 2 * (d + 1) > sv.QUBIT_CAP:
            raise InputError(
                f"a unitary on {d + 1} wires is a {2 * d + 2}-qubit tensor, "
                f"over the cap of {sv.QUBIT_CAP}"
            )
        keys = ["c"] + [f"m{r}" for r in range(1, d)] + ["t"]
        for r, k in enumerate(keys):
            b.wire(k, 1, r)
        lay_cnot(b, keys)
        return b.build(keys)
    raise InputError(f"unknown gate spec {gate!r}")


def gate_unitary(gate: HadamardGate | RotationGate | CNOTGate) -> np.ndarray:
    """The declared unitary of a gate that gate_layout accepts."""
    if isinstance(gate, HadamardGate):
        return sv.H.matrix
    if isinstance(gate, RotationGate):
        return rotation_unitary(gate.xi, gate.eta, gate.zeta)
    idx = sv._cnot_index(gate.separation + 1, ((0, gate.separation),)).reshape(-1)
    u = np.zeros((idx.size, idx.size), dtype=complex)
    u[np.arange(idx.size), idx] = 1  # the gather out[i] = in[idx[i]] as a matrix
    return u


def pattern_for_gate(gate: HadamardGate | RotationGate | CNOTGate) -> MeasurementPattern:
    """The standalone measurement pattern for one gate, with its declared unitary."""
    return gate_layout(gate).declaring(gate_unitary(gate))


def choi_probe(p: MeasurementPattern) -> tuple[sv.PureState, sv.PureState]:
    """(probe, target) certifying a pattern on its whole input space at once.

    The probe maximally entangles each input node with its own spectator
    label ("spec", i); the target is the declared unitary applied to the
    probe, on the output nodes. The probe is one amplitude times the sum of
    |c>|c> over input words c, so the target is that amplitude times U with
    its rows on the outputs and its columns on the spectators: a fresh
    product on as many distinct labels as the probe's, so it is not copied.
    """
    if not p.inputs:
        raise InputError("a Choi probe needs at least one input node")
    if p.declared_unitary is None:
        raise InputError("a Choi probe needs a pattern that declares a unitary")
    norm = float(np.vdot(p.declared_unitary, p.declared_unitary).real) / len(p.declared_unitary)
    if not abs(norm - 1.0) <= sv._NORM_TOL:
        raise InputError(f"declared map takes the probe to norm^2 {norm}, not 1")
    specs = [("spec", i) for i in range(len(p.inputs))]
    pair = sv.PureState(np.eye(2) / math.sqrt(2.0), ["input", "spectator"])  # checked once
    probe = functools.reduce(sv.tensor, [pair] * len(specs)).amps
    amps = (probe.flat[0] * p.declared_unitary).reshape(probe.shape)
    return sv._state(probe, sum(zip(p.inputs, specs), ())), sv._state(amps, (*p.outputs, *specs))
