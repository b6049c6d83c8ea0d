"""Property tests of the one text boundary, config files, of the resource
estimate behind the config, of the steps a measurement pattern is built
from, of the live widths that each pattern is lowered with, and of the
states that chains of statevector kernels return. A config is drawn as text
and as raw bytes, which need not decode as UTF-8.

Hypothesis generates the inputs, with a fixed number of examples and a
derandomized search so that a run is repeatable. The only error each
function may raise is its documented one: InputError for a config, its
message led by the config's path, and for a pattern's steps; EstimationError
for an estimate.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from blindprep import statevector as sv
from blindprep.cli import CONFIG_KEYS, load_config
from blindprep.errors import DegenerateBranchError, EstimationError, InputError
from blindprep.mbqc import FIXED_BASES, MeasurementPattern, run_pattern
from blindprep.resources import ExperimentParams, ResourceRow, estimate
from helpers import (
    is_read_only_value,
    labeled_measure,
    labeled_tensor,
    random_state,
    random_unitary,
    reference_estimate,
    traced_widths,
)

BOUNDED = settings(max_examples=200, deadline=None, derandomize=True, database=None)

_TEXT = st.text(st.characters(codec="utf-8"), max_size=8)

_VALUE = st.one_of(
    st.integers(-10, 10**450).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e400", "0x10", "1_000", "0.6 0.7", "9" * 5000]),
    _TEXT,
)
_CONFIG_LINE = st.one_of(
    st.tuples(st.one_of(st.sampled_from(sorted(CONFIG_KEYS)), _TEXT), _VALUE).map(
        lambda kv: f"{kv[0]} = {kv[1]}"
    ),
    _TEXT,
)


def _load_or_refuse(data: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "params.cfg")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            params = load_config(path)
        except InputError as ex:
            # an ExperimentParams error that escapes unwrapped lacks the path
            assert str(ex).startswith(f"{path}:")
            return
    assert isinstance(params, ExperimentParams)


@BOUNDED
@given(st.lists(_CONFIG_LINE, max_size=5).map("\n".join))
@example("S = " + "9" * 400)
def test_load_config_returns_params_or_raises_usage_error(text):
    _load_or_refuse(text.encode("utf-8"))


# config lines with raw bytes among them, such as a Latin-1 file or a binary one
@BOUNDED
@given(
    st.lists(st.one_of(_CONFIG_LINE.map(str.encode), st.binary(max_size=8)), max_size=5).map(
        b"\n".join
    )
)
@example(b"alpha = 0.2\n\xff\xfe = 1\n")
def test_load_config_of_any_bytes_returns_params_or_raises_usage_error(data):
    _load_or_refuse(data)


# subnormals included: the failures this guards against were underflows
_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_POSITIVE = st.floats(0.0, 1e300, exclude_min=True)


@st.composite
def _valid_params(draw):
    mu = draw(st.floats(0.0, 1.0, exclude_min=True))
    p_nu1 = draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
    p_nu2 = draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
    try:
        return ExperimentParams(
            alpha_db_km=draw(st.floats(0.0, 1e300)),
            t_source=draw(st.floats(0.0, 1.0, exclude_min=True)),
            eta_det=draw(st.floats(0.0, 1.0, exclude_min=True)),
            mu=mu,
            nu1=mu * draw(_OPEN_UNIT),
            p_mu=1.0 - p_nu1 - p_nu2,
            p_nu1=p_nu1,
            p_nu2=p_nu2,
            successes=draw(st.integers(1, 10**300)),
            eps_fail=draw(_OPEN_UNIT),
            err_rate=draw(_OPEN_UNIT),
            block_overhead=draw(st.floats(0.0, 1e300)),
            rep_rate_hz=draw(_POSITIVE),
            y0_dark=draw(st.floats(0.0, 1.0, exclude_max=True)),
        )
    except InputError:  # nu1 or p_mu rounded onto a bound
        reject()


@BOUNDED
@given(_valid_params(), st.floats(0.0, 1e300))
@example(ExperimentParams(err_rate=1e-20), 0.0)
@example(ExperimentParams(err_rate=1e-200), 0.0)
@example(ExperimentParams(mu=1e-200, nu1=1e-201), 0.0)
@example(ExperimentParams(y0_dark=1e-7), 20000.0)
@example(ExperimentParams(eps_fail=1e-300, successes=10**30), 0.0)
def test_estimate_returns_a_row_or_raises_estimation_error(params, length):
    def outcome(compute):
        try:
            row = compute(length, params)
        except Exception as exc:  # the reference's type and message, whatever it raises
            return type(exc), str(exc)
        return [repr(value) for value in vars(row).values()]

    # the bits, the errors and their order of the reference
    assert outcome(estimate) == outcome(reference_estimate)
    try:
        row = estimate(length, params)
    except EstimationError:
        return
    assert isinstance(row, ResourceRow)


@st.composite
def _small_patterns(draw):
    """A valid pattern of at most 8 nodes: random inputs and edges, and x, y
    or z steps measured in a random order; the unmeasured nodes are outputs."""
    nodes = [(i % 3, i // 3) for i in range(draw(st.integers(1, 8)))]
    order = draw(st.permutations(nodes))
    measured = order[: draw(st.integers(0, len(nodes)))]
    pairs = list(itertools.combinations(nodes, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return MeasurementPattern(
        inputs=draw(st.lists(st.sampled_from(nodes), min_size=1, unique=True)),
        outputs=order[len(measured) :],
        steps=[(node, FIXED_BASES[draw(st.sampled_from("xyz"))], ()) for node in measured],
        edges=edges,
        x_corr={},
        z_corr={},
    )


# deltas of every kind a caller might pass: reals of each type, ints past a
# float's range, non-finite floats, numeric strings and complex numbers
_DELTA = st.one_of(
    st.sampled_from(list(FIXED_BASES.values())),
    st.floats(),
    st.integers(-(2**1100), 2**1100),
    st.fractions(),
    st.floats().map(np.float64),
    st.sampled_from(["1.5", "abc", "nan", ""]) | st.complex_numbers(max_magnitude=4.0),
)
_NON_PAIR = st.sampled_from([[0, 0], (0, 0.0), (0, "1"), (0, 0, 0), "ab", None, 0])


@st.composite
def _chain_steps(draw):
    """A chain of 2 to 6 nodes whose last is the output: each other node a
    step with a drawn delta, and deps drawn from every node, earlier, itself
    or later, and in half the chains from values that are not int pairs."""
    nodes = [(x, 0) for x in range(draw(st.integers(2, 6)))]
    dep = st.sampled_from(nodes) | _NON_PAIR if draw(st.booleans()) else st.sampled_from(nodes)
    return nodes, [(node, draw(_DELTA), draw(st.lists(dep, max_size=2))) for node in nodes[:-1]]


@BOUNDED
@given(_chain_steps())
@example(([(0, 0), (1, 0)], [((0, 0), "1.5", [])]))
@example(([(0, 0), (1, 0)], [((0, 0), 1 + 0j, [])]))
@example(([(0, 0), (1, 0)], [((0, 0), 2**1100, [])]))
@example(([(0, 0), (1, 0), (2, 0)], [((0, 0), None, []), ((1, 0), 3, [(0, 0)])]))
@example(([(0, 0), (1, 0), (2, 0)], [((0, 0), 0.0, []), ((1, 0), None, [(0, 0)])]))
def test_steps_build_a_pattern_or_raise_input_error(chain):
    # a built pattern holds each delta as None or a finite float and each
    # deps as a frozenset of nodes measured earlier, none on a Z step, and runs
    nodes, steps = chain
    try:
        p = MeasurementPattern(nodes[:1], nodes[-1:], steps, list(zip(nodes, nodes[1:])), {}, {})
    except InputError:
        return
    for i, (node, delta, deps) in enumerate(p.steps):
        assert node == nodes[i]
        assert delta is None and not deps or type(delta) is float and math.isfinite(delta)
        assert type(deps) is frozenset and deps <= set(nodes[:i])
    state, transcript, _ = run_pattern(p, {}, sv.BornSampler(0))
    assert state.labels == (nodes[-1],) and len(transcript.entries) == len(steps)


@BOUNDED
@given(_small_patterns())
def test_lowered_widths_are_the_largest_states_a_run_builds(p):
    # dict inputs create every node at its first use; a joint |+> product
    # holds every input from the start
    assert p.schedule[3] == traced_widths(p)


_SHARED_GATES = (sv.X, sv.Y, sv.Z, sv.H, sv.CZ, sv.CNOT, sv.rz(0.7))
_MAX_QUBITS = 8


def _step(data, rng, state, fresh):
    """One kernel on state, drawn: a product with a random state on fresh
    labels, a shared or random dense gate, a CNOT run, or a measurement in Z
    or M(delta) with CZ partners, its outcome Born-sampled or forced."""
    labels = list(state.labels)
    kinds = ["tensor"] * (state.n < _MAX_QUBITS) + ["gate", "measure"] * (state.n > 0)
    kind = data.draw(st.sampled_from(kinds + ["cnots"] * (state.n > 1)))
    if kind == "tensor":
        k = data.draw(st.integers(1, _MAX_QUBITS - state.n))
        return labeled_tensor(state, random_state(rng, k, [next(fresh) for _ in range(k)]))
    if kind == "gate":
        k = data.draw(st.integers(1, min(3, state.n)))
        gates = [g for g in _SHARED_GATES if g.arity == k] + [random_unitary(rng, k)]
        targets = data.draw(st.permutations(labels))[:k]
        return sv.apply_gate(state, data.draw(st.sampled_from(gates)), targets)
    if kind == "cnots":
        pair = st.permutations(range(state.n)).map(lambda p: tuple(p[:2]))
        axes = tuple(data.draw(st.lists(pair, min_size=1, max_size=4)))
        return sv._state(sv.apply_cnots(state, axes).amps, state.labels)
    q, *others = data.draw(st.permutations(labels))
    cz = others[: data.draw(st.integers(0, len(others)))]
    delta = data.draw(st.one_of(st.none(), st.floats(-4.0, 4.0)))
    outcome = data.draw(st.sampled_from([None, 0, 1]))
    born = sv.BornSampler(int(rng.integers(2**32)))
    src = born if outcome is None else sv.ForcedBranch([outcome])
    try:
        return labeled_measure(state, q, delta, src, cz)[2]
    except DegenerateBranchError:  # a forced outcome of ~zero probability
        return state


@BOUNDED
@given(st.data())
def test_kernel_chains_return_normalized_read_only_values(data):
    # states are checked once, when made from outside values; every kernel
    # output must stay normalized and immutable without a check of its own
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    fresh = itertools.count()
    n = data.draw(st.integers(1, _MAX_QUBITS))
    state = random_state(rng, n, [next(fresh) for _ in range(n)])
    for _ in range(data.draw(st.integers(1, 12))):
        state = _step(data, rng, state, fresh)
        norm = float(np.vdot(state.amps, state.amps).real)
        assert abs(norm - 1.0) <= sv._NORM_TOL
        assert is_read_only_value(state)
