"""Constructors only the tests use, written against the public API."""

from __future__ import annotations

import cmath
import math

import numpy as np

from blindprep import mbqc
from blindprep import resources as rs
from blindprep import statevector as sv
from blindprep import steane
from blindprep.errors import (
    ContractViolation,
    DegenerateBranchError,
    EstimationError,
    InputError,
)

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


def random_state(rng, n, labels=None) -> sv.PureState:
    """A state of n qubits with complex Gaussian amplitudes, labels 0..n-1
    unless given explicitly."""
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    v = (v / np.linalg.norm(v)).reshape((2,) * n)
    return sv.PureState(v, labels if labels is not None else list(range(n)))


def random_unitary(rng, k) -> sv.Gate:
    """A 2^k x 2^k unitary from the QR of a complex Gaussian matrix."""
    z = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
    q, r = np.linalg.qr(z)
    return sv.Gate(f"U{k}", q * (np.diag(r) / abs(np.diag(r))))


def vector(s, order=None) -> np.ndarray:
    """s's amplitudes as a flat vector, its axes put in ``order`` (default:
    s.labels) first; order must hold each of s's labels once."""
    order = s.labels if order is None else tuple(order)
    if len(order) != s.n or set(order) != set(s.labels):
        raise InputError("order must be a permutation of the state's labels")
    return np.transpose(s.amps, [s.labels.index(lb) for lb in order]).reshape(-1)


def labeled_tensor(a, b) -> sv.PureState:
    """sv.tensor of two labelled states, labelled a's labels then b's; like a
    kernel's output, it is made read-only and not checked again."""
    if not set(b.labels).isdisjoint(a.labels):
        raise InputError("tensor: overlapping qubit labels")
    return sv._state(sv.tensor(a, b).amps, a.labels + b.labels)


def labeled_measure(s, q, delta, src, cz=()) -> tuple:
    """sv.measure on labels: q and its partners cz mapped to axes, each partner
    numbered in the residual, and the residual labelled (read-only)."""
    rest = tuple(lb for lb in s.labels if lb != q)
    if len(rest) == s.n:
        raise InputError(f"qubit {q!r} is not part of this state")
    outcome, prob, out = sv.measure(s, s.labels.index(q), delta, src, [rest.index(p) for p in cz])
    return outcome, prob, sv._state(out.amps, rest)


def labeled_qubit(spec, label) -> sv.PureState:
    """sv.qubit_state of spec on label, sharing its read-only amplitudes."""
    return sv._state(sv.qubit_state(spec).amps, (label,))


def is_read_only_value(state) -> bool:
    """Whether state's amplitudes are read-only and its labels a tuple."""
    return not state.amps.flags.writeable and isinstance(state.labels, tuple)


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
        q = sv.new_plus_theta(0.0, node) if spec is None else labeled_qubit(spec, node)
        state = q if state is None else labeled_tensor(state, q)
    for a, b in p.edges:
        state = sv.apply_gate(state, sv.CZ, [a, b])
    return state


def min_cluster_residual(theta: float, basis: str, outcome: int) -> sv.PureState:
    """Closed-form post-measurement state of the unmeasured node of
    blindness.min_cluster_pattern(basis), the oracle of its simulation.

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


def reference_tensor(a, b) -> sv.PureState:
    """sv.tensor as it was before its label list and width were computed
    once: the bit-for-bit reference of the trimmed kernel."""
    if not set(b.labels).isdisjoint(a.labels):
        raise InputError("tensor: overlapping qubit labels")
    if a.n + b.n > sv.QUBIT_CAP:
        raise InputError(f"tensor would exceed the {sv.QUBIT_CAP}-qubit cap")
    amps = np.dot(a.amps.reshape(-1, 1), b.amps.reshape(1, -1))
    return sv._state(amps.reshape((2,) * (a.n + b.n)), a.labels + b.labels)


def reference_measure(s, q, delta, src, cz=()) -> tuple:
    """sv.measure frozen as a test-only reference, so that any trim of the
    kernel is checked against these bits."""
    if delta is not None and not math.isfinite(delta):
        raise InputError(f"basis angle must be finite, got {delta!r}")
    ax = s.labels.index(q)
    a0 = s.amps.take(0, axis=ax)
    a1 = s.amps.take(1, axis=ax)
    if cz and (q in cz or len(set(cz)) != len(cz)):
        raise InputError("duplicate target labels")
    for partner in cz:
        at = s.labels.index(partner)
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
    return outcome, prob, sv._state(branch, s.labels[:ax] + s.labels[ax + 1 :])


def reference_run(p, inputs, src) -> tuple:
    """mbqc.run_pattern as it ran before its steps were placed on integer axes:
    p's lowered label steps, each qubit found by its label, with
    reference_tensor and reference_measure. Returns (state, transcript as
    (node, delta, outcome, prob) tuples, frame): the executor's bit-for-bit
    reference."""
    steps, corr = p.schedule[:2]
    live = inputs if isinstance(inputs, sv.PureState) else None
    seeded = {} if live is not None else dict(inputs or {})
    held = () if live is None else set(p.inputs)
    entries, bits = [], 0
    for i, (node, delta, deps, new, cz) in enumerate(steps):
        for fresh in new:
            if fresh in held:
                continue
            spec = seeded.get(fresh)
            q = labeled_qubit(sv.PLUS if spec is None else spec, fresh)
            live = q if live is None else reference_tensor(live, q)
        if node is None:  # the last step: edges between two outputs
            for a, b in cz:
                live = sv.apply_gate(live, sv.CZ, [a, b])
            continue
        if (deps & bits).bit_count() & 1:
            delta = -delta
        outcome, prob, live = reference_measure(live, node, delta, src, cz)
        bits |= outcome << i
        entries.append((node, delta, outcome, prob))
    frame = {out: ((x & bits).bit_count() & 1, (z & bits).bit_count() & 1) for out, x, z in corr}
    return live, entries, frame


def reference_syndrome(state, src) -> tuple:
    """steane.extract_syndrome rebuilt on labels, without sv.apply_cnots or the
    module's ancillas: each round's |+>_L or |0>_L is built on labels of its own,
    tensored by reference_tensor, coupled by one apply_gate(CNOT) per qubit pair
    and read out by labeled_measure. Returns (bit word, phase word, survivor)."""
    joint, words = state, []
    rounds = ((steane.logical_plus_theta(0.0), False, None), (steane.logical_zero(), True, 0.0))
    for r, (ancilla, anc_controls, delta) in enumerate(rounds):
        anc = [("reference ancilla", r, i) for i in range(1, 8)]
        joint = reference_tensor(joint, sv.PureState(ancilla.amps, anc))
        for d, a in zip(steane.DATA_LABELS, anc):
            joint = sv.apply_gate(joint, sv.CNOT, [a, d] if anc_controls else [d, a])
        word = []
        for a in anc:
            outcome, _, joint = labeled_measure(joint, a, delta, src)
            word.append(outcome)
        words.append(tuple(word))
    return (*words, joint)


def traced_widths(p) -> tuple[int, int]:
    """The most qubits run_pattern holds at once on p, as the largest state it
    builds: with dict inputs, then with a joint |+> product over p's inputs.
    A dict run's first node is no tensor, so it counts as a 1-qubit state,
    and a joint run counts the input state it is given."""
    joint = None
    for node in p.inputs:
        q = sv.new_plus_theta(0.0, node)
        joint = q if joint is None else labeled_tensor(joint, q)
    sizes: list = []
    tensor = sv.tensor
    sv.tensor = lambda a, b: sizes.append(a.amps.ndim + b.amps.ndim) or tensor(a, b)
    try:
        mbqc.run_pattern(p, {}, sv.BornSampler(0))
        widths = [max(sizes, default=1)]
        sizes.clear()
        mbqc.run_pattern(p, joint, sv.BornSampler(0))
        widths.append(max(sizes + [joint.n]))
    finally:
        sv.tensor = tensor
    return widths[0], widths[1]


def reference_choi_target(p) -> sv.PureState:
    """mbqc.choi_probe's target as it was built before it scaled the
    declared unitary: a dense Gate applied to the probe's inputs, then
    relabelled onto the outputs. The bit-for-bit reference of the target."""
    probe = None
    for i, node in enumerate(p.inputs):
        pair = sv.PureState(np.eye(2) / math.sqrt(2.0), [node, ("spec", i)])
        probe = pair if probe is None else labeled_tensor(probe, pair)
    moved = sv.apply_gate(probe, sv.Gate("declared", p.declared_unitary), list(p.inputs))
    relabel = dict(zip(p.inputs, p.outputs))
    return sv.PureState(moved.amps, [relabel.get(lb, lb) for lb in moved.labels])


def reference_estimate(length_km, p) -> rs.ResourceRow:
    """rs.estimate as it was before the terms that depend on the parameters
    alone were computed once per parameter set: the bit-for-bit reference,
    error messages and their order included, of the priced-once chain."""
    if length_km < 0.0:
        raise InputError("fiber length cannot be negative")
    t = p.t_source * p.eta_det * 10.0 ** (-p.alpha_db_km * length_km / 10.0)

    def gain(intensity):
        return p.y0_dark - math.expm1(-intensity * t)

    def opaque_check(q_mu):
        if q_mu <= 0.0:
            raise EstimationError(
                f"no detected signal events at T = {t:.6g}: channel is opaque"
            )

    q_mu = gain(p.mu)
    opaque_check(q_mu)
    q_nu1 = gain(p.nu1)
    spread, mu_sq = p.mu * p.nu1 - p.nu1**2, p.mu**2
    if spread == 0.0 or mu_sq == 0.0:
        raise EstimationError(
            f"intensities mu = {p.mu:.6g}, nu1 = {p.nu1:.6g} underflow the decoy bound"
        )
    y1 = (p.mu / spread) * (
        q_nu1 * math.exp(p.nu1)
        - q_mu * math.exp(p.mu) * p.nu1**2 / mu_sq
        - (mu_sq - p.nu1**2) / mu_sq * p.y0_dark
    )
    p1 = y1 * p.mu * math.exp(-p.mu) / q_mu
    if not 0.0 < p1 < 1.0:
        raise EstimationError(
            f"single-photon bound left (0, 1): p1 = {p1:.6g} at T = {t:.6g}"
        )

    q_mu = gain(p.mu)
    opaque_check(q_mu)
    p1_inf = (p.y0_dark + t) * p.mu * math.exp(-p.mu) / q_mu
    if not 0.0 < p1_inf < 1.0:
        raise EstimationError(
            f"asymptotic single-photon fraction left (0, 1): p1 = {p1_inf:.6g}"
        )

    def pulses(p1, overhead):
        if t <= 0.0:
            raise EstimationError(f"transmittance is {t!r}: channel is opaque")
        ratio = p.eps_fail / p.successes
        log_ratio = math.log(ratio) if ratio else math.log(p.eps_fail) - math.log(p.successes)
        raw = (p.successes / t) * (
            log_ratio / (p.p_mu * p.mu * math.log1p(-p1)) + overhead
        )
        if not math.isfinite(raw) or raw <= 0.0:
            raise EstimationError(f"pulse count came out non-physical: {raw!r}")
        return math.ceil(raw)

    n_coded = pulses(p1, p.block_overhead)
    n_direct = pulses(p1, 0.0)
    n_asym = pulses(p1_inf, 0.0)

    def log_one_minus_exp(x):
        y = math.exp(x)
        return math.log1p(-y) if y < 1.0 else math.log(-math.expm1(x))

    if p.err_rate**2 == 0.0:
        raise EstimationError(f"error rate {p.err_rate:.6g} underflows when squared")
    coded = log_one_minus_exp(p.successes * math.log1p(-p.err_rate**2))
    bare = log_one_minus_exp(p.successes * math.log1p(-p.err_rate))
    k = coded / bare if bare else math.inf
    if not math.isfinite(k):
        raise EstimationError(f"repetition factor overflows at S = {p.successes}")
    k_n_direct = math.ceil(k) * n_direct

    def efficiency(n_pulses):
        if n_pulses <= 0:
            raise EstimationError("efficiency needs a positive pulse count")
        try:
            return p.successes * p.rep_rate_hz / n_pulses
        except OverflowError:
            raise EstimationError("pulse count is too large for a float") from None

    return rs.ResourceRow(
        length_km=length_km,
        t=t,
        p1_lower=p1,
        n_coded=n_coded,
        n_direct=n_direct,
        k=k,
        k_n_direct=k_n_direct,
        n_asym=n_asym,
        e_coded=efficiency(n_coded),
        e_direct_k=efficiency(k_n_direct),
        e_asym=efficiency(n_asym),
    )
