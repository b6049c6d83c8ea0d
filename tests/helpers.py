"""Constructors only the tests use, written against the public API."""

from __future__ import annotations

import cmath
import math

import numpy as np

from blindprep import statevector as sv
from blindprep.errors import ContractViolation, DegenerateBranchError, InputError

I2 = sv.Gate("I", np.eye(2))
S = sv.Gate("S", np.array([[1, 0], [0, 1j]]))


def new_basis_state(n, bits=0, labels=None) -> sv.PureState:
    """|b_0 b_1 ... b_{n-1}> with labels 0..n-1 unless given explicitly."""
    if n < 1 or n > sv.QUBIT_CAP:
        raise InputError(f"qubit count {n} outside 1..{sv.QUBIT_CAP}")
    if isinstance(bits, int):
        bits = [(bits >> (n - 1 - i)) & 1 for i in range(n)]
    bits = [int(b) for b in bits]
    if len(bits) != n or any(b not in (0, 1) for b in bits):
        raise InputError("bits must be 0/1 of length n")
    amps = np.zeros((2,) * n, dtype=complex)
    amps[tuple(bits)] = 1.0
    return sv.PureState(amps, list(labels) if labels is not None else list(range(n)))


def build_cluster(p, inputs=None) -> sv.PureState:
    """The full cluster state of pattern p: |+> on every node except the
    supplied inputs, then CZ along every edge. The executor's reference."""
    inputs = dict(inputs or {})
    for node in inputs:
        if node not in p.nodes:
            raise InputError(f"input node {node} is not in the pattern")
    state = None
    for node in p.nodes:
        spec = inputs.get(node)
        q = sv.new_plus_theta(0.0, node) if spec is None else sv.qubit_state(spec, node)
        state = q if state is None else sv.tensor(state, q)
    for a, b in p.edges:
        state = sv.apply_gate(state, sv.CZ, [a, b])
    return state


def reference_tensor(a, b) -> sv.PureState:
    """sv.tensor as it was before its label list and width were computed
    once: the bit-for-bit reference of the trimmed kernel."""
    if not set(b.labels).isdisjoint(a.labels):
        raise InputError("tensor: overlapping qubit labels")
    if a.n + b.n > sv.QUBIT_CAP:
        raise InputError(f"tensor would exceed the {sv.QUBIT_CAP}-qubit cap")
    amps = np.dot(a.amps.reshape(-1, 1), b.amps.reshape(1, -1))
    return sv._derived(amps.reshape((2,) * (a.n + b.n)), a.labels + b.labels)


def reference_measure(s, q, delta, src, cz=()) -> tuple:
    """sv.measure frozen as a test-only reference, so that any trim of the
    kernel is checked against these bits."""
    if delta is not None and not math.isfinite(delta):
        raise InputError(f"basis angle must be finite, got {delta!r}")
    ax = s.axis(q)
    a0 = s.amps.take(0, axis=ax)
    a1 = s.amps.take(1, axis=ax)
    if cz and (q in cz or len(set(cz)) != len(cz)):
        raise InputError("duplicate target labels")
    for partner in cz:
        at = s.axis(partner)
        sv._scale(a1, [(at if at < ax else at - 1, 1)], sv._CZ_SIGN)
    if delta is None:
        b0, b1 = a0, a1
    else:
        a1 = cmath.exp(-1j * delta) * a1
        b0 = a0 + a1
        b0 *= sv._INV_SQRT2
        a0 -= a1
        a0 *= sv._INV_SQRT2
        b1 = a0
    p0 = float(np.vdot(b0, b0).real)
    p1 = float(np.vdot(b1, b1).real)
    if not abs(p0 + p1 - 1.0) <= sv._NORM_TOL:
        raise ContractViolation(f"branch probabilities sum to {p0 + p1}")
    outcome = src.choose(p0, p1)
    prob = p0 if outcome == 0 else p1
    if prob < sv._DEGENERATE_TOL:
        raise DegenerateBranchError(f"outcome {outcome} on {q!r} has probability {prob}")
    branch = b0 if outcome == 0 else b1
    branch *= 1.0 / math.sqrt(prob)
    return outcome, prob, sv._derived(branch, s.labels[:ax] + s.labels[ax + 1 :])
