"""End-to-end acceptance suite.

Seven checks, one per headline guarantee of the package, each with a fixed
numeric tolerance and a wall-clock budget.  Every check prints one PASS/FAIL
line (visible with -s, or in the captured output on failure).  Oracle values
here are frozen literals computed independently of the library code.
"""

from __future__ import annotations

import math
import time

import mpmath as mp
import numpy as np
import pytest

import blindprep.blindness as bl
import blindprep.mbqc as mbqc
import blindprep.statevector as sv
import blindprep.steane as steane
from blindprep.cli import CSV_HEADER, main
from blindprep.resources import ExperimentParams, repetition_factor, sweep, transmittance
from helpers import labeled_tensor, min_cluster_residual


def _timed(n: int, name: str, budget_s: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {n} {name}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget_s else "FAIL (over budget)"
    print(f"ACCEPTANCE {n} {name}: {verdict} ({elapsed:.2f}s, budget {budget_s:g}s)")
    assert elapsed < budget_s


# 1 ------------------------------------------------------------------------


ZERO_SUPPORT = (
    "0000000", "0001111", "0110011", "0111100",
    "1010101", "1011010", "1100110", "1101001",
)
ONE_SUPPORT = tuple(
    "".join("1" if c == "0" else "0" for c in s) for s in ZERO_SUPPORT
)


def test_acceptance_1_logical_basis_exactness():
    """|0>_L and |1>_L carry amplitude 1/(2*sqrt(2)) on exactly eight strings."""

    def body():
        amp = 1.0 / (2.0 * math.sqrt(2.0))
        for state, support in ((steane.logical_zero(), ZERO_SUPPORT),
                               (steane.logical_one(), ONE_SUPPORT)):
            flat = state.amps.reshape(-1)
            for idx in range(128):
                bits = format(idx, "07b")
                expected = amp if bits in support else 0.0
                assert abs(flat[idx] - expected) <= 1e-10, bits

    _timed(1, "logical basis exactness", 1.0, body)


# 2 ------------------------------------------------------------------------


def test_acceptance_2_correction_matrix():
    """All 21 single-qubit Pauli errors on three logical states are fixed."""

    def body():
        states = (
            steane.encode_circuit(np.array([1.0, 0.0], dtype=complex)),
            steane.encode_circuit(np.array([0.0, 1.0], dtype=complex)),
            steane.encode_circuit(sv.new_plus_theta(math.pi / 4)),
        )
        case = 0
        for clean in states:
            for kind in ("X", "Y", "Z"):
                for pos in range(1, 8):
                    hit = steane.inject_error(clean, steane.PauliError(kind, pos))
                    result, survived = steane.extract_syndrome(
                        hit, sv.BornSampler(case)
                    )
                    expect_bit = pos if kind in ("X", "Y") else 0
                    expect_phase = pos if kind in ("Z", "Y") else 0
                    assert result.bit_position == expect_bit, (kind, pos)
                    assert result.phase_position == expect_phase, (kind, pos)
                    fixed = steane.apply_correction(survived, result)
                    assert sv.fidelity(fixed, clean) >= 1.0 - 1e-9, (kind, pos)
                    case += 1
        assert case == 63

    _timed(2, "correction matrix", 30.0, body)


# 3 ------------------------------------------------------------------------


_SQ2 = 1.0 / math.sqrt(2.0)
PROBE_STATES = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([_SQ2, _SQ2], dtype=complex),
    np.array([_SQ2, -_SQ2], dtype=complex),
    np.array([_SQ2, 1j * _SQ2], dtype=complex),
)
ROTATION_TRIPLES = (
    (math.pi / 4, math.pi / 2, -math.pi / 4),
    (math.pi / 8, -math.pi / 3, 3 * math.pi / 5),
    (1.1, 0.4, -0.9),
)


def _check_exhaustive(p: mbqc.MeasurementPattern, inputs, target) -> None:
    for _, _, state, _, frame in mbqc.enumerate_branches(p, inputs):
        got = mbqc.apply_byproducts(state, frame)
        assert sv.fidelity(got, target) >= 1.0 - 1e-10


def _check_products(p: mbqc.MeasurementPattern) -> None:
    """Every branch, every assignment of the five probe states to the wires."""
    n = len(p.inputs)
    for combo in np.ndindex(*(len(PROBE_STATES),) * n):
        vecs = [PROBE_STATES[c] for c in combo]
        psi = vecs[0]
        for v in vecs[1:]:
            psi = np.kron(psi, v)
        out = (p.declared_unitary @ psi).reshape((2,) * n)
        target = sv.PureState(out, list(p.outputs))
        _check_exhaustive(p, dict(zip(p.inputs, vecs)), target)


def _check_choi(p: mbqc.MeasurementPattern) -> None:
    """One exhaustive enumeration with inputs maximally entangled to
    spectators certifies the pattern on every input state at once."""
    probe = None
    for i, node in enumerate(p.inputs):
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, 0] = amps[1, 1] = _SQ2
        pair = sv.PureState(amps, [node, ("spec", i)])
        probe = pair if probe is None else labeled_tensor(probe, pair)
    gate = sv.Gate("declared", p.declared_unitary)
    moved = sv.apply_gate(probe, gate, list(p.inputs))
    relabel = dict(zip(p.inputs, p.outputs))
    target = sv.PureState(moved.amps, [relabel.get(lb, lb) for lb in moved.labels])
    _check_exhaustive(p, probe, target)


def test_acceptance_3_pattern_soundness():
    """Gate patterns reproduce their declared unitaries on every branch."""

    def body():
        _check_products(mbqc.pattern_for_gate(mbqc.HadamardGate()))
        for xi, eta, zeta in ROTATION_TRIPLES:
            _check_products(mbqc.pattern_for_gate(mbqc.RotationGate(xi, eta, zeta)))
        _check_products(mbqc.pattern_for_gate(mbqc.CNOTGate(1)))
        _check_choi(mbqc.pattern_for_gate(mbqc.CNOTGate(2)))
        _check_choi(mbqc.pattern_for_gate(mbqc.CNOTGate(3)))

    _timed(3, "pattern soundness", 300.0, body)


# 4 ------------------------------------------------------------------------


def test_acceptance_4_preparation_end_to_end():
    """Cluster-state preparation matches the circuit encoder for all phases."""

    def body():
        p = steane.compile_encoder()
        for k in range(8):
            theta = k * math.pi / 4
            target = steane.encode_circuit(sv.new_plus_theta(theta))
            zero = sv.ForcedBranch([0] * p.measured_count)
            block = steane.prepare_encoded_mbqc(theta, zero)
            assert sv.fidelity(block.state, target) >= 1.0 - 1e-9, (k, "zero")
            for seed in range(1, 51):
                block = steane.prepare_encoded_mbqc(theta, sv.BornSampler(seed))
                assert sv.fidelity(block.state, target) >= 1.0 - 1e-9, (k, seed)

    _timed(4, "preparation end to end", 300.0, body)


# 5 ------------------------------------------------------------------------


def test_acceptance_5_blindness():
    """Residual closed forms hold and transcripts carry no phase information."""

    def body():
        thetas = [k * math.pi / 4 for k in range(8)]
        for basis in ("x", "y", "z"):
            p = bl.min_cluster_pattern(basis)
            for theta in thetas:
                inputs = {(0, 0): sv.new_plus_theta(theta).amps.reshape(-1)}
                for outcome in (0, 1):
                    state, _, _ = mbqc.run_pattern(
                        p, inputs, sv.ForcedBranch([outcome])
                    )
                    want = min_cluster_residual(theta, basis, outcome)
                    assert sv.fidelity(state, want) >= 1.0 - 1e-12

            report = bl.min_cluster_blindness(basis)
            assert report.exact
            assert report.tv_max <= 1e-10

        sampled = bl.preparation_blindness(paths=6, seed=0)
        assert sampled.measured_count == 162
        assert sampled.tv_max <= 1e-10
        assert sampled.max_prob_deviation <= 1e-9

    _timed(5, "blindness", 300.0, body)


# 6 ------------------------------------------------------------------------

K_PIN = 54482.32993426837691671741  # independent 40-digit evaluation, frozen


def test_acceptance_6_resource_formulas():
    """Transmittance anchors, the repetition factor, and its defining identity."""

    def body():
        p = ExperimentParams()
        assert abs(transmittance(0.0, p) - 0.045) <= 1e-12
        assert abs(transmittance(50.0, p) - 0.0045) <= 1e-12

        k = repetition_factor(p)
        assert k == pytest.approx(K_PIN, rel=1e-9)
        mp.mp.dps = 40
        e, s = mp.mpf("0.01"), mp.mpf(1000)
        k_mp = mp.log(1 - (1 - e**2) ** s) / mp.log(1 - (1 - e) ** s)
        assert k == pytest.approx(float(k_mp), rel=1e-9)

        # defining property: k repetitions of a bare block reach the same
        # success probability as one coded block, across an (e, S) grid.
        # Exponentiation happens in 160-digit arithmetic: at e = 0.05,
        # S = 5000 the bare success probability sits within 1e-111 of 1, so
        # neither float64 pow nor 40-digit decimals can resolve the identity;
        # the check certifies the library's k, not the conditioning of pow.
        with mp.workdps(160):
            for err in (0.001, 0.005, 0.01, 0.05, 0.1):
                for s_count in (10, 100, 1000, 5000):
                    q = ExperimentParams(err_rate=err, successes=s_count)
                    k_es = repetition_factor(q)
                    e_mp = mp.mpf(str(err))
                    bare = 1 - (1 - e_mp) ** s_count
                    coded = 1 - (1 - e_mp**2) ** s_count
                    lhs = mp.power(bare, mp.mpf(k_es))
                    assert float(abs(lhs - coded) / coded) <= 1e-9, (err, s_count)

    _timed(6, "resource formulas", 1.0, body)


# 7 ------------------------------------------------------------------------


def test_acceptance_7_sweep_properties(tmp_path, capsys):
    """Monotone pulse counts, coded-below-bare ordering, and stable CSV bytes."""

    def body():
        p = ExperimentParams()
        lengths = [5.0 * i for i in range(41)]
        rows = sweep(lengths, p)
        assert len(rows) == 41
        assert all(row is not None for _, row, _ in rows)

        target = p.successes * p.rep_rate_hz
        previous = 0
        for _, row, _ in rows:
            assert row.n_coded > previous
            previous = row.n_coded
            assert row.n_asym <= row.n_coded < row.k_n_direct
            assert row.e_coded * row.n_coded == pytest.approx(target, rel=1e-12)
            assert row.e_direct_k * row.k_n_direct == pytest.approx(target, rel=1e-12)
            assert row.e_asym * row.n_asym == pytest.approx(target, rel=1e-12)

        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert main(["resources", "--out", str(first)]) == 0
        assert main(["resources", "--out", str(second)]) == 0
        text = first.read_text(encoding="utf-8")
        assert first.read_bytes() == second.read_bytes()
        assert text.splitlines()[0] == CSV_HEADER
        assert len(text.splitlines()) == 42

    _timed(7, "sweep properties", 10.0, body)
