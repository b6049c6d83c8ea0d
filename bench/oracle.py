"""Reference answers for the benchmark, built with numpy alone.

Nothing here calls blindprep: the targets are written down from the
definitions (gate matrices, the eight [[7,1,3]] codeword strings), so a
defect in the library cannot also hide in its own oracle.
"""

from __future__ import annotations

import math

import numpy as np

SQ2 = 1.0 / math.sqrt(2.0)

H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * SQ2

# |0>_L support, qubit 1 leftmost; |1>_L is the bitwise complement.
ZERO_STRINGS = (
    "0000000", "0001111", "0110011", "0111100",
    "1010101", "1011010", "1100110", "1101001",
)


def phase(phi: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * phi)])


def rotation(xi: float, eta: float, zeta: float) -> np.ndarray:
    """H P(zeta) H P(eta) H P(xi) H with P(phi) = diag(1, e^{i phi})."""
    return H @ phase(zeta) @ H @ phase(eta) @ H @ phase(xi) @ H


def cnot(wires: int) -> np.ndarray:
    """CNOT from wire 0 onto wire wires-1, identity on the wires between
    (wire 0 is the most significant bit of a basis index)."""
    dim = 2**wires
    u = np.zeros((dim, dim), dtype=complex)
    for x in range(dim):
        u[x ^ (x >> (wires - 1)), x] = 1.0
    return u


def choi(u: np.ndarray) -> np.ndarray:
    """(U (x) 1) applied to Bell pairs, amplitudes ordered (outputs, spectators)."""
    return u.reshape(-1) / math.sqrt(u.shape[0])


def _codeword(strings) -> np.ndarray:
    vec = np.zeros(128, dtype=complex)
    for s in strings:
        vec[int(s, 2)] = 1.0 / math.sqrt(len(strings))
    return vec


LOGICAL_ZERO = _codeword(ZERO_STRINGS)
LOGICAL_ONE = _codeword([s.translate(str.maketrans("01", "10")) for s in ZERO_STRINGS])


def logical(alpha: complex, beta: complex) -> np.ndarray:
    """alpha |0>_L + beta |1>_L on qubits 1..7."""
    return alpha * LOGICAL_ZERO + beta * LOGICAL_ONE


def fidelity(amps: np.ndarray, labels, order, target: np.ndarray) -> float:
    """|<target|state>|^2 with the state's axes permuted to ``order``.

    No normalization is applied, so a state of the wrong norm reads away
    from 1 instead of passing.
    """
    labels = list(labels)
    if sorted(map(repr, labels)) != sorted(map(repr, order)):
        return 0.0
    vec = np.transpose(amps, [labels.index(lb) for lb in order]).reshape(-1)
    return float(abs(np.vdot(target, vec)) ** 2)


def close_to_one(f: float, tol: float) -> bool:
    return abs(f - 1.0) <= tol
