"""Blind preparation of [[7,1,3]]-encoded qubits on cluster states.

Modules:
- statevector: dense labeled-qubit simulator with destructive measurement
- mbqc: measurement patterns (nodes, edges, steps, corrections), byproduct tracking, execution
- steane: [[7,1,3]] encoding, syndrome extraction, measurement-based preparation
- blindness: theta-independence checks for the delegated protocol
- resources: pulse-budget and efficiency estimates for the photonic link
- cli: command-line front end
"""

__version__ = "0.1.0"
