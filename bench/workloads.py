"""The four benchmark workloads: one kind of op each, inputs drawn from a seed.

A workload exposes
- ``ops()``: a fresh, endless iterator of op inputs generated from the seed;
- ``run(op)``: the library calls of one op (the timed part);
- ``check(op, result)``: the benchmark's own verdict on the result;
- ``cycle``: ops per repeating unit of the input mix. Runs stop on a cycle
  boundary so every run, whatever its length, has the same mix of op kinds;
- ``units_per_op``: verified work units one op completes;
- ``trace_cycles``: whole cycles a traced run covers;
- ``reaches``: traced functions (see spans.LAYERS) one op must call;
- ``probe_reps``: size of the speed probe (see probe.py) run between ops,
  from about 5% of an op's time (encode, sweep) to about 30% (certify).

The library receives only the generated inputs; every expected answer comes
from ``oracle``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np

import oracle
from blindprep import cli, mbqc, steane
from blindprep import statevector as sv

SQ2 = oracle.SQ2
DATA_LABELS = [("d", i) for i in range(1, 8)]
PLUS_PI4 = np.array([SQ2, SQ2 * np.exp(1j * math.pi / 4)])

# The default verify-gates suite: five probe states for one-wire gates.
PROBES = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([SQ2, SQ2], dtype=complex),
    np.array([SQ2, -SQ2], dtype=complex),
    np.array([SQ2, 1j * SQ2], dtype=complex),
)
ROTATION_TRIPLES = (
    (math.pi / 4, math.pi / 2, -math.pi / 4),
    (math.pi / 8, -math.pi / 3, 3 * math.pi / 5),
    (1.1, 0.4, -0.9),
)
CNOT_SEPARATIONS = (1, 2, 3)

# The resources sweep and the digest of its CSV, recorded when the
# benchmark was added.
SWEEP_ARGS = ("resources", "--lmax", "200", "--step", "0.1")
SWEEP_ROWS = 2001
SWEEP_SHA256 = "9daef56fb822aa2e3def678758675ef4ac38f1677d4890df012fffd45cc9c1a9"


@dataclass
class _Job:
    """One (pattern, probe) pair of the suite; its branches are enumerated."""

    pattern: mbqc.MeasurementPattern
    inputs: object
    order: list  # labels of the corrected output, in the target's axis order
    target: np.ndarray

    @property
    def branches(self) -> int:
        return 2**self.pattern.measured_count


def _bell_pairs(inputs, spectators) -> sv.PureState:
    """Each input node maximally entangled with its spectator."""
    bell = np.eye(2, dtype=complex) * SQ2
    amps = bell
    for _ in inputs[1:]:
        amps = np.multiply.outer(amps, bell)
    labels = [lb for pair in zip(inputs, spectators) for lb in pair]
    return sv.PureState(amps, labels)


class Certify:
    """One op is one branch of the default verify-gates suite, corrected."""

    name = "certify"
    units_per_op = 1
    trace_cycles = 4
    probe_reps = 2
    reaches = (
        "statevector.apply_gate", "statevector.measure", "statevector.tensor",
        "mbqc.run_pattern", "mbqc.enumerate_branches", "mbqc.apply_byproducts",
    )

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.jobs = []
        one_wire = [(mbqc.HadamardGate(), oracle.H)] + [
            (mbqc.RotationGate(*t), oracle.rotation(*t)) for t in ROTATION_TRIPLES
        ]
        for gate, u in one_wire:
            p = mbqc.pattern_for_gate(gate)
            for vec in PROBES:
                self.jobs.append(_Job(p, {p.inputs[0]: vec}, [p.outputs[0]], u @ vec))
        for d in CNOT_SEPARATIONS:
            p = mbqc.pattern_for_gate(mbqc.CNOTGate(d))
            spec = [("spec", i) for i in range(d + 1)]
            target = oracle.choi(oracle.cnot(d + 1))
            self.jobs.append(_Job(p, _bell_pairs(p.inputs, spec), p.outputs + spec, target))
        # A pass enumerates every job once (8 576 branches). It is cut into
        # blocks that each take the same share of every job, so any whole
        # number of blocks has the pass's mix of small and large patterns.
        self.blocks = min(job.branches for job in self.jobs)
        self.block = [
            i for i, job in enumerate(self.jobs) for _ in range(job.branches // self.blocks)
        ]
        self.cycle = len(self.block)

    def ops(self):
        while True:
            live = [(mbqc.enumerate_branches(j.pattern, j.inputs), set()) for j in self.jobs]
            for _ in range(self.blocks):
                for i in self.rng.permutation(self.block):
                    yield (int(i),) + live[i]

    def run(self, op):
        _, branches, _ = op
        bits, _, state, _, frame = next(branches)
        return bits, mbqc.apply_byproducts(state, frame)

    def check(self, op, result) -> bool:
        i, _, seen = op
        bits, state = result
        job = self.jobs[i]
        word = tuple(bits)
        fresh = len(word) == job.pattern.measured_count and word not in seen
        seen.add(word)
        f = oracle.fidelity(state.amps, state.labels, job.order, job.target)
        return fresh and oracle.close_to_one(f, 1e-10)


class Encode:
    """One op is one |+_theta>_L preparation on the compiled encoder pattern."""

    name = "encode"
    units_per_op = 1
    cycle = 8
    trace_cycles = 12
    probe_reps = 10
    reaches = (
        "statevector.apply_gate", "statevector.measure", "statevector.tensor",
        "mbqc.run_pattern", "mbqc.apply_byproducts",
        "steane.compile_encoder", "steane.encoder_unitary", "steane.prepare_encoded_mbqc",
    )

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.targets = [oracle.logical(SQ2, SQ2 * np.exp(1j * k * math.pi / 4)) for k in range(8)]

    def ops(self):
        while True:
            for k in self.rng.permutation(8):
                yield int(k), int(self.rng.integers(2**32))

    def run(self, op):
        k, seed = op
        return steane.prepare_encoded_mbqc(k * math.pi / 4, sv.BornSampler(seed))

    def check(self, op, block) -> bool:
        entries = block.transcript.entries
        uniform = bool(entries) and all(abs(e.prob - 0.5) <= 1e-9 for e in entries)
        f = oracle.fidelity(block.state.amps, block.state.labels, DATA_LABELS, self.targets[op[0]])
        return uniform and oracle.close_to_one(f, 1e-9)


class Syndrome:
    """One op is one case of the 3 x 3 x 7 single-error correction matrix."""

    name = "syndrome"
    units_per_op = 1
    trace_cycles = 8
    probe_reps = 4
    reaches = (
        "statevector.apply_gate", "statevector.measure", "statevector.tensor",
        "steane.encode_circuit", "steane.extract_syndrome", "steane.apply_correction",
    )
    # (data qubit, clean encoded block) for |0>, |1> and |+_{pi/4}>
    STATES = (
        (np.array([1.0, 0.0], dtype=complex), oracle.LOGICAL_ZERO),
        (np.array([0.0, 1.0], dtype=complex), oracle.LOGICAL_ONE),
        (PLUS_PI4, oracle.logical(*PLUS_PI4)),
    )
    CASES = [(s, kind, pos) for s in range(3) for kind in "XYZ" for pos in range(1, 8)]
    cycle = len(CASES)

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def ops(self):
        while True:
            for i in self.rng.permutation(self.cycle):
                yield self.CASES[i] + (int(self.rng.integers(2**32)),)

    def run(self, op):
        s, kind, pos, seed = op
        clean = steane.encode_circuit(self.STATES[s][0])
        hit = steane.inject_error(clean, steane.PauliError(kind, pos))
        result, survived = steane.extract_syndrome(hit, sv.BornSampler(seed))
        return result.bit_position, result.phase_position, steane.apply_correction(survived, result)

    def check(self, op, result) -> bool:
        s, kind, pos, _ = op
        bit, phase, fixed = result
        expect = (pos if kind in "XY" else 0, pos if kind in "YZ" else 0)
        f = oracle.fidelity(fixed.amps, fixed.labels, DATA_LABELS, self.STATES[s][1])
        return (bit, phase) == expect and oracle.close_to_one(f, 1e-9)


class Sweep:
    """One op is the CLI resources sweep, 0-200 km in 0.1 km steps.

    The op has no random input, so the seed changes nothing here.
    """

    name = "sweep"
    units_per_op = SWEEP_ROWS
    cycle = 1
    trace_cycles = 60
    probe_reps = 10
    reaches = ("cli.main", "resources.sweep", "resources.estimate")

    def __init__(self, seed: int):
        pass

    def ops(self):
        while True:
            yield SWEEP_ARGS

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op))
        return code, out.getvalue()

    def check(self, op, result) -> bool:
        code, text = result
        return code == 0 and hashlib.sha256(text.encode()).hexdigest() == SWEEP_SHA256


WORKLOADS = {w.name: w for w in (Certify, Encode, Syndrome, Sweep)}
