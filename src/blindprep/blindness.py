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

Every check runs over the eight phases k*pi/4 of DEFAULT_THETAS, among which
the client hides theta. It is made executable two ways, through mbqc.runs:
- exactly, by enumerating every branch of small patterns (the two-node
  minimal cluster, single-gate patterns) and computing the full TV distance;
- by sampling full preparation runs. Every phase runs with the same seeds
  seed + i, and each outcome is 50/50, so every phase visits the same
  words: the sampled TV compares a distribution with itself and cannot
  fail, and only the per-step check below carries evidence.
In both modes every per-step probability is checked against 1/2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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
        steps=[((0, 0), mbqc.FIXED_BASES[basis], ())],
        edges=[((0, 0), (1, 0))],
        x_corr={(1, 0): frozenset()},
        z_corr={(1, 0): frozenset()},
    )


# ----------------------------------------------------------- distributions ----


def transcript_distribution(
    p: mbqc.MeasurementPattern, inputs, paths: int = 0, seed: int = 0
) -> tuple[dict, float]:
    """Branch-word distribution over every branch (paths 0) or over `paths`
    seeded runs: ({outcome tuple: exact branch probability}, worst per-step
    |p - 1/2| seen). Repeat visits of a sampled word collapse onto one entry."""
    if paths == 0 and p.measured_count > MAX_EXACT:
        raise InputError(
            f"pattern measures {p.measured_count} nodes; exact enumeration is "
            f"capped at {MAX_EXACT}"
        )
    dist: dict = {}
    max_dev = 0.0
    for _, transcript, _ in mbqc.runs(p, inputs, paths, seed):
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


NOTE = (
    "no quantum side information remains with the server: every non-output "
    "node is consumed by measurement, so the server's view is the classical "
    "transcript compared here"
)


@dataclass(frozen=True)
class BlindnessReport:
    """Transcript distributions compared over the eight phases k*pi/4;
    max_prob_deviation is the worst per-step |p - 1/2|, exact or sampled."""

    measured_count: int
    sampled_paths: int  # 0 when every branch was enumerated
    coverage: tuple  # per phase, total probability mass of compared words
    max_prob_deviation: float
    tv_max: float  # largest pairwise TV distance over the eight phases

    @property
    def exact(self) -> bool:
        return self.sampled_paths == 0

    def passes(self, epsilon: float = 1e-10) -> bool:
        """Pairwise TV within epsilon, and every step 50/50 within 1e-9."""
        return self.tv_max <= epsilon and self.max_prob_deviation <= 1e-9


def blindness_over_thetas(
    p: mbqc.MeasurementPattern, data_node, paths: int = 0, seed: int = 0
) -> BlindnessReport:
    """Compare transcript distributions when data_node carries |+_theta> for
    each theta k*pi/4, over every branch (paths 0) or `paths` seeded runs."""
    if data_node not in p.inputs:
        raise InputError(f"{data_node} is not an input node of the pattern")

    dists, coverage, max_dev = [], [], 0.0
    for theta in DEFAULT_THETAS:
        inputs = {data_node: sv.new_plus_theta(theta)}
        dist, dev = transcript_distribution(p, inputs, paths, seed)
        max_dev = max(max_dev, dev)
        dists.append(dist)
        coverage.append(sum(dist.values()))

    return BlindnessReport(
        measured_count=p.measured_count,
        sampled_paths=paths,
        coverage=tuple(coverage),
        max_prob_deviation=max_dev,
        tv_max=max(tv_distance(a, b) for a, b in itertools.combinations(dists, 2)),
    )


def preparation_blindness(paths: int, seed: int = 0) -> BlindnessReport:
    """Blindness check over full encoded-preparation runs (162 measurements).
    Its TV cannot fail, since every phase samples the same words; only
    max_prob_deviation, the per-step |p - 1/2|, carries evidence."""
    p = steane.compile_encoder()
    return blindness_over_thetas(p, p.inputs[steane.DATA_WIRE - 1], paths, seed)


def min_cluster_blindness(basis: str) -> BlindnessReport:
    """Exact blindness statement for the two-node cluster."""
    return blindness_over_thetas(min_cluster_pattern(basis), (0, 0))
