"""Constructors only the tests use, written against the public API."""

from __future__ import annotations

import numpy as np

from blindprep import statevector as sv
from blindprep.errors import InputError

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
