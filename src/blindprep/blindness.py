"""What the measurement record reveals about the hidden input phase: nothing.

The server's view of a preparation run is the classical transcript (which
node was measured, in which public basis, with what outcome). Because every
measured node is entangled to a fresh |+> neighbour before it is consumed,
each outcome is exactly 50/50 whatever state rides the wire, so the
transcript distribution is uniform over 2^M words for every input phase
theta and the total variation distance between any two phases vanishes.
There is no residual quantum side information either: after the run the
only unmeasured qubits are the outputs handed back, so the server's
environment is the transcript alone.

This module makes that argument executable two ways:
- exactly, by enumerating every branch of small patterns (the two-node
  minimal cluster, single-gate patterns) and computing the full TV distance;
- by sampling full preparation runs, where each sampled path carries its
  exact branch probability, every per-step probability is checked against
  1/2, and the TV is compared over the visited words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mbqc
from . import statevector as sv
from . import steane
from .errors import InputError

MAX_EXACT = 14  # enumerate at most 2^14 branches exactly

DEFAULT_THETAS = tuple(k * math.pi / 4 for k in range(8))


# ------------------------------------------------------- minimal cluster ----


def min_cluster_pattern(basis: str) -> mbqc.MeasurementPattern:
    """Two-node cluster: the input node (0, 0) is measured in the given
    basis ("x", "y", or "z"), node (1, 0) is handed back."""
    if basis not in mbqc.FIXED_BASES:
        raise InputError(f"basis must be one of {sorted(mbqc.FIXED_BASES)}, got {basis!r}")
    return mbqc.MeasurementPattern(
        inputs=[(0, 0)],
        outputs=[(1, 0)],
        steps=[((0, 0), mbqc.Role(basis))],
        edges=[((0, 0), (1, 0))],
        x_corr={(1, 0): frozenset()},
        z_corr={(1, 0): frozenset()},
    )


def min_cluster_residual(theta: float, basis: str, outcome: int) -> sv.PureState:
    """Closed-form post-measurement state of the unmeasured node.

    x: X^s H |+_theta>        (the teleport identity at delta = 0)
    y: X^s H Rz(-pi/2) |+_theta>
    z: Z^s |+>                (theta survives only as a global phase)
    """
    psi = sv.new_plus_theta(theta).amps.reshape(-1)
    if basis == "x":
        vec = sv.H.matrix @ psi
        if outcome:
            vec = sv.X.matrix @ vec
    elif basis == "y":
        vec = sv.H.matrix @ (sv.rz(-math.pi / 2).matrix @ psi)
        if outcome:
            vec = sv.X.matrix @ vec
    elif basis == "z":
        vec = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        if outcome:
            vec = sv.Z.matrix @ vec
    else:
        raise InputError(f"basis must be x, y, or z, got {basis!r}")
    return sv.PureState(vec, [(1, 0)])


# ----------------------------------------------------------- distributions ----


def transcript_distribution(p: mbqc.MeasurementPattern, inputs) -> dict:
    """Exact branch-word distribution {outcome tuple: probability}."""
    if p.measured_count > MAX_EXACT:
        raise InputError(
            f"pattern measures {p.measured_count} nodes; exact enumeration is "
            f"capped at {MAX_EXACT}"
        )
    dist = {}
    for bits, prob, _, _, _ in mbqc.enumerate_branches(p, inputs):
        dist[tuple(bits)] = prob
    return dist


def sampled_transcripts(
    p: mbqc.MeasurementPattern, inputs, paths: int, seed: int
) -> tuple[dict, float]:
    """Sample complete runs; each visited word keeps its exact probability.

    Returns ({word: exact branch probability}, max per-step deviation from
    1/2 seen anywhere). Repeat visits collapse onto one dictionary entry.
    """
    if paths < 1:
        raise InputError("need at least one sampled path")
    dist: dict = {}
    max_dev = 0.0
    for i in range(paths):
        _, transcript, _ = mbqc.run_pattern(p, inputs, sv.BornSampler(seed + i))
        for entry in transcript.entries:
            max_dev = max(max_dev, abs(entry.prob - 0.5))
        dist[tuple(transcript.branch_word())] = transcript.branch_prob
    return dist, max_dev


def tv_distance(d1: dict, d2: dict) -> float:
    """Total variation distance between two branch-word distributions,
    treating absent words as probability zero."""
    total = 0.0
    for word in set(d1) | set(d2):
        total += abs(d1.get(word, 0.0) - d2.get(word, 0.0))
    return 0.5 * total


# ------------------------------------------------------------ full checks ----


@dataclass(frozen=True)
class BlindnessReport:
    """Outcome of comparing transcript distributions across input phases."""

    thetas: tuple
    measured_count: int
    exact: bool
    sampled_paths: int  # 0 when exact
    coverage: tuple  # per theta, total probability mass of compared words
    max_prob_deviation: float  # worst |p - 1/2| per step (sampled) or
    #                            |p_word - 2^-M| per word (exact)
    tv_max: float  # largest pairwise TV distance over the theta grid
    note: str

    @property
    def blind(self) -> bool:
        return self.tv_max <= 1e-10 and self.max_prob_deviation <= 1e-9


_NOTE = (
    "no quantum side information remains with the server: every non-output "
    "node is consumed by measurement, so the server's view is the classical "
    "transcript compared here"
)


def blindness_over_thetas(
    p: mbqc.MeasurementPattern,
    data_node,
    thetas=DEFAULT_THETAS,
    paths: int = 0,
    seed: int = 0,
) -> BlindnessReport:
    """Compare transcript distributions when data_node carries |+_theta>.

    paths = 0 enumerates exactly (small patterns); otherwise each theta is
    sampled along `paths` seeded runs and the comparison uses the visited
    words' exact probabilities.
    """
    if data_node not in p.inputs:
        raise InputError(f"{data_node} is not an input node of the pattern")
    thetas = tuple(thetas)
    if len(thetas) < 2:
        raise InputError("need at least two phases to compare")

    dists = []
    coverage = []
    max_dev = 0.0
    exact = paths == 0
    for theta in thetas:
        inputs = {data_node: sv.new_plus_theta(theta).amps.reshape(-1)}
        if exact:
            dist = transcript_distribution(p, inputs)
            uniform = 0.5**p.measured_count
            for prob in dist.values():
                max_dev = max(max_dev, abs(prob - uniform))
        else:
            dist, dev = sampled_transcripts(p, inputs, paths, seed)
            max_dev = max(max_dev, dev)
        dists.append(dist)
        coverage.append(sum(dist.values()))

    tv_max = 0.0
    for i in range(len(dists)):
        for j in range(i + 1, len(dists)):
            tv_max = max(tv_max, tv_distance(dists[i], dists[j]))

    return BlindnessReport(
        thetas=thetas,
        measured_count=p.measured_count,
        exact=exact,
        sampled_paths=0 if exact else paths,
        coverage=tuple(coverage),
        max_prob_deviation=max_dev,
        tv_max=tv_max,
        note=_NOTE,
    )


def preparation_blindness(
    thetas=DEFAULT_THETAS, paths: int = 32, seed: int = 0
) -> BlindnessReport:
    """Blindness check over full encoded-preparation runs (162 measurements)."""
    p = steane.compile_encoder()
    return blindness_over_thetas(
        p, p.inputs[steane.DATA_WIRE - 1], thetas=thetas, paths=paths, seed=seed
    )


def min_cluster_blindness(basis: str, thetas=DEFAULT_THETAS) -> BlindnessReport:
    """Exact blindness statement for the two-node cluster."""
    return blindness_over_thetas(min_cluster_pattern(basis), (0, 0), thetas=thetas)
