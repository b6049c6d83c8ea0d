"""Tests of the benchmark itself: corrupted results count as failed ops,
the seed alone fixes the inputs, traced counts repeat exactly, and op
times are rescaled by the speed probe around them.

Run from the repository root: python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from blindprep import mbqc, resources, steane  # noqa: E402
from blindprep.errors import ContractViolation  # noqa: E402
from probe import REF_MS_PER_REP, Probe  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def one_cycle(name: str, seed: int = 1) -> tuple[int, int]:
    """(attempted, failed) over one cycle of the workload."""
    w = WORKLOADS[name](seed)
    loop = run.Runner(w).loop(0.0, w.cycle)
    return len(loop.op_ms), loop.failed


def traced_cycle(name: str, seed: int) -> dict:
    w = WORKLOADS[name](seed)
    tracer = Tracer()
    tracer.install()
    try:
        loop = run.Runner(w).loop(0.0, w.cycle, tracer)
    finally:
        tracer.uninstall()
    assert loop.failed == 0 and tracer.unaccounted_ops == 0
    return {k: v for k, (v, unit) in tracer.metrics(len(loop.op_ms)).items() if unit != "ms"}


def test_flipped_byproduct_bit_is_counted(monkeypatch):
    real = mbqc.apply_byproducts

    def flipped(state, frame):
        exps = dict(frame.exps)
        node = next(iter(exps))
        a, b = exps[node]
        exps[node] = (a ^ 1, b)
        return real(state, mbqc.ByproductFrame(exps))

    monkeypatch.setattr(mbqc, "apply_byproducts", flipped)
    w = WORKLOADS["certify"](1)
    attempted, failed = one_cycle("certify")
    # An extra X hides only on one-wire probes whose output is an X
    # eigenstate; on a Choi probe it is always orthogonal.
    choi = sum(job.branches // w.blocks for job in w.jobs if len(job.pattern.inputs) > 1)
    assert attempted == w.cycle
    assert choi <= failed < attempted


def test_wrong_syndrome_position_is_counted(monkeypatch):
    real = steane.extract_syndrome

    def shifted(state, src):
        result, survived = real(state, src)
        return dataclasses.replace(result, bit_position=result.bit_position % 7 + 1), survived

    monkeypatch.setattr(steane, "extract_syndrome", shifted)
    assert one_cycle("syndrome") == (63, 63)


def test_altered_csv_cell_is_counted(monkeypatch):
    real = resources.sweep

    def altered(lengths, p):
        rows = real(lengths, p)
        length, row, err = rows[100]
        rows[100] = (length, dataclasses.replace(row, n_coded=row.n_coded + 1), err)
        return rows

    monkeypatch.setattr(resources, "sweep", altered)
    assert one_cycle("sweep") == (1, 1)


def test_raising_op_is_counted_not_raised(monkeypatch):
    def broken(data):
        raise ContractViolation("injected")

    monkeypatch.setattr(steane, "encode_circuit", broken)
    assert one_cycle("syndrome") == (63, 63)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_second_seed_passes(name):
    attempted, failed = one_cycle(name, seed=2)
    assert attempted >= 1 and failed == 0


@pytest.mark.parametrize("name", ["certify", "encode", "syndrome"])
def test_seed_fixes_inputs(name):
    def inputs(seed):
        ops = itertools.islice(WORKLOADS[name](seed).ops(), 64)
        return [op[0] if name == "certify" else op for op in ops]

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def test_encode_counts_repeat():
    first, second = traced_cycle("encode", 3), traced_cycle("encode", 3)
    assert first == second
    assert first["steane.compile_encoder.calls"] == 1
    assert first["statevector.measure.calls"] == 162
    assert first["statevector.tensor.calls"] == 168
    # steane -> mbqc -> statevector calls were all intercepted
    assert first["mbqc.run_pattern.calls"] == 1
    assert first["mbqc.peak_live_qubits"] == 10


def test_certify_measures_per_branch():
    counts = traced_cycle("certify", 3)
    assert counts["mbqc.measures_per_branch"] == 99968 / 8576
    assert counts["mbqc.enumerate_branches.calls"] == 1


class FakeProbe:
    """Stands in for probe.Probe with scripted wall times."""

    ref_ms = 1.0

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_probe_rescales_op_times():
    # probes before op 1, after op 1 and after op 2; each op is scaled by
    # the mean of the probes around it
    w = WORKLOADS["sweep"](1)
    loop = run.Runner(w).loop(0.0, 2, probe=FakeProbe([1.0, 3.0, 2.0]))
    assert loop.failed == 0
    assert loop.probe_ms == [3.0, 2.0]
    assert loop.ref_ms == pytest.approx([loop.op_ms[0] / 2.0, loop.op_ms[1] / 2.5])
    assert loop.ref_rate() == pytest.approx(2 * w.units_per_op * 1e3 / sum(loop.ref_ms))


def test_probe_runs():
    probe = Probe(2)
    assert probe.ref_ms == 2 * REF_MS_PER_REP and probe() > 0
