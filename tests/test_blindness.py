"""Transcript statistics: closed forms, TV distance, and blindness reports."""

from __future__ import annotations

import math

import pytest

import blindprep.statevector as sv
from blindprep.blindness import (
    DEFAULT_THETAS,
    NOTE,
    BlindnessReport,
    blindness_over_thetas,
    min_cluster_blindness,
    min_cluster_pattern,
    preparation_blindness,
    transcript_distribution,
    tv_distance,
)
from blindprep.errors import InputError
from blindprep.mbqc import HadamardGate, RotationGate, pattern_for_gate, run_pattern
from helpers import min_cluster_residual


# -------------------------------------------------------- minimal cluster ----


@pytest.mark.parametrize("basis", ["x", "y", "z"])
@pytest.mark.parametrize("theta", [0.0, math.pi / 4, 1.7])
@pytest.mark.parametrize("outcome", [0, 1])
def test_min_cluster_closed_forms_match_simulation(basis, theta, outcome):
    p = min_cluster_pattern(basis)
    psi = sv.new_plus_theta(theta).amps.reshape(-1)
    state, transcript, _ = run_pattern(p, {(0, 0): psi}, sv.ForcedBranch([outcome]))
    assert transcript.entries[0].prob == pytest.approx(0.5, abs=1e-12)
    expect = min_cluster_residual(theta, basis, outcome)
    assert sv.fidelity(state, expect) == pytest.approx(1.0, abs=1e-12)


def test_min_cluster_rejects_unknown_basis():
    with pytest.raises(InputError):
        min_cluster_pattern("w")
    with pytest.raises(InputError):
        min_cluster_residual(0.0, "w", 0)


@pytest.mark.parametrize("basis", ["x", "y", "z"])
def test_min_cluster_blindness_is_exact_zero(basis):
    report = min_cluster_blindness(basis)
    assert report.exact
    assert report.measured_count == 1
    assert report.coverage == pytest.approx((1.0,) * len(DEFAULT_THETAS), abs=1e-12)
    assert report.tv_max <= 1e-12
    assert report.max_prob_deviation <= 1e-12
    assert report.passes()


# ------------------------------------------------------------ tv distance ----


def test_tv_distance_basics():
    a = {(0,): 0.5, (1,): 0.5}
    b = {(0,): 0.5, (1,): 0.5}
    c = {(0,): 1.0}
    d = {(1, 1): 1.0}
    assert tv_distance(a, b) == pytest.approx(0.0, abs=1e-15)
    assert tv_distance(a, c) == pytest.approx(0.5, abs=1e-15)
    assert tv_distance(c, d) == pytest.approx(1.0, abs=1e-15)
    assert tv_distance(a, c) == pytest.approx(tv_distance(c, a), abs=1e-15)


def test_tv_distance_triangle_inequality():
    a = {(0,): 0.7, (1,): 0.3}
    b = {(0,): 0.5, (1,): 0.5}
    c = {(0,): 0.1, (1,): 0.9}
    assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-15


# ----------------------------------------------------------- distributions ----


def test_exact_distribution_is_uniform_for_gate_patterns():
    p = pattern_for_gate(HadamardGate())
    psi = sv.new_plus_theta(0.9).amps.reshape(-1)
    dist, _ = transcript_distribution(p, {(1, 0): psi})
    assert len(dist) == 16
    for prob in dist.values():
        assert prob == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_exact_distribution_refuses_large_patterns():
    from blindprep.steane import compile_encoder

    with pytest.raises(InputError):
        transcript_distribution(compile_encoder(), None)


def test_distribution_rejects_negative_paths():
    p = pattern_for_gate(HadamardGate())
    with pytest.raises(InputError):
        transcript_distribution(p, None, paths=-1)


def test_sampled_transcripts_carry_exact_probabilities():
    p = pattern_for_gate(RotationGate(0.3, 0.5, 0.7))
    psi = sv.new_plus_theta(0.4).amps.reshape(-1)
    dist, max_dev = transcript_distribution(p, {(1, 0): psi}, paths=24, seed=1)
    assert max_dev <= 1e-12
    for prob in dist.values():
        assert prob == pytest.approx(1.0 / 16.0, abs=1e-12)


# ------------------------------------------------------------ full checks ----


def test_gate_pattern_blindness_exact_over_theta_grid():
    p = pattern_for_gate(RotationGate(0.3, 0.5, 0.7))
    report = blindness_over_thetas(p, (1, 0))
    assert report.exact
    assert report.tv_max <= 1e-12
    assert report.coverage == pytest.approx((1.0,) * 8, abs=1e-12)
    assert report.passes()


def test_preparation_blindness_sampled_runs():
    report = preparation_blindness(paths=4, seed=2)
    assert not report.exact
    assert report.sampled_paths == 4
    assert report.measured_count == 162
    assert report.max_prob_deviation <= 1e-9
    assert report.tv_max <= 1e-10
    # distinct runs visit distinct words, all carrying the same tiny mass
    assert report.coverage[0] == pytest.approx(4 * 0.5**162, rel=1e-9)
    assert report.passes()
    assert "transcript" in NOTE


def test_blindness_requires_valid_data_node_and_grid():
    p = pattern_for_gate(HadamardGate())
    with pytest.raises(InputError):
        blindness_over_thetas(p, (9, 9))


def test_report_blind_property_thresholds():
    base = dict(measured_count=3, sampled_paths=0, coverage=(1.0,) * 8)
    good = BlindnessReport(max_prob_deviation=0.0, tv_max=0.0, **base)
    leaky = BlindnessReport(max_prob_deviation=0.0, tv_max=0.3, **base)
    assert good.exact
    assert good.passes()
    assert not leaky.passes()
    # epsilon is the TV bound; the per-step bound stays 1e-9
    assert leaky.passes(epsilon=0.3)
    assert not BlindnessReport(max_prob_deviation=2e-9, tv_max=0.0, **base).passes(1.0)
    # the old property name is gone, not a bound method that is always truthy
    with pytest.raises(AttributeError):
        good.blind
