"""Command-line interface: verification commands and resource-sweep CSVs.

Five subcommands drive the library end to end:

  verify-gates   enumerate gate-pattern branches against declared unitaries
  prepare        one encoded-preparation run against |+theta>_L from the codewords
  correct        inject a Pauli error, extract the syndrome, undo it
  blindness      transcript-distribution comparison across phases
  resources      decoy-state pulse/efficiency sweep written as CSV

Exit codes: 0 success, 1 usage, config or input error, 2 verification
failure. A ContractViolation is a bug and keeps its traceback.
Every command is deterministic given its flags, config file, and seed, so
reports and CSVs are byte-identical across repeat runs.  The seed comes
from --seed when given, else the BLINDPREP_SEED environment variable,
else 0.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import blindness as bl
from . import mbqc
from . import resources as rs
from . import statevector as sv
from . import steane
from .errors import InputError

__all__ = ["main", "load_config", "CONFIG_KEYS", "CSV_HEADER"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2

GATE_THRESHOLD = 1e-10
PREPARE_THRESHOLD = 1e-9
MAX_SWEEP_ROWS = 1_000_000

CSV_HEADER = (
    "L_km,T,p1_lower,N_coded,N_d,k,kN_d,N_asym,E_coded,E_noncoded_k,E_asym"
)

# config keys exposed to users -> (ExperimentParams field, parser)
CONFIG_KEYS = {
    "alpha": ("alpha_db_km", float),
    "t_s": ("t_source", float),
    "eta_s": ("eta_det", float),
    "mu": ("mu", float),
    "v1": ("nu1", float),
    "v2": ("nu2", float),
    "p_mu": ("p_mu", float),
    "p_v1": ("p_nu1", float),
    "p_v2": ("p_nu2", float),
    "S": ("successes", int),
    "epsilon": ("eps_fail", float),
    "e": ("err_rate", float),
    "C": ("block_overhead", float),
    "f": ("rep_rate_hz", float),
    "Y0": ("y0_dark", float),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the documented contract
    # reserves 2 for verification failures, so route through InputError.
    def error(self, message):
        raise InputError(message)


# ---------------------------------------------------------------- config ----


def load_config(path: str) -> rs.ExperimentParams:
    """Parse a `key = value` file (# comments) into experiment parameters."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as ex:
        raise InputError(f"cannot read config {path}: {ex}")
    except UnicodeDecodeError as ex:
        raise InputError(f"{path}: {ex}")
    overrides: dict = {}
    first: dict = {}  # key -> the line that set it
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise InputError(f"{path}:{ln}: expected key = value, got {raw.strip()!r}")
        if key not in CONFIG_KEYS:
            known = ", ".join(sorted(CONFIG_KEYS))
            raise InputError(f"{path}:{ln}: unknown key {key!r} (known keys: {known})")
        if first.setdefault(key, ln) != ln:
            raise InputError(f"{path}:{ln}: key {key!r} is already set on line {first[key]}")
        field, cast = CONFIG_KEYS[key]
        try:
            overrides[field] = cast(value)
        except ValueError:
            raise InputError(f"{path}:{ln}: cannot parse {value!r} as {cast.__name__} for {key!r}")
    try:
        return rs.ExperimentParams(**overrides)
    except InputError as ex:
        raise InputError(f"{path}: {ex}")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        env = os.environ.get("BLINDPREP_SEED")
        if env is None:
            return 0
        try:
            seed, source = int(env), "BLINDPREP_SEED"
        except ValueError:
            raise InputError(f"BLINDPREP_SEED must be an integer, got {env!r}")
    if seed < 0:
        raise InputError(f"{source} must be a non-negative integer, got {seed}")
    return seed


# ---------------------------------------------------------- verify-gates ----

_SQ2 = 1.0 / math.sqrt(2.0)

_PROBE_STATES = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([_SQ2, _SQ2], dtype=complex),
    np.array([_SQ2, -_SQ2], dtype=complex),
    np.array([_SQ2, 1j * _SQ2], dtype=complex),
)

_ROTATION_TRIPLES = (
    (math.pi / 4, math.pi / 2, -math.pi / 4),
    (math.pi / 8, -math.pi / 3, 3 * math.pi / 5),
    (1.1, 0.4, -0.9),
)


def _pattern_probes(p: mbqc.MeasurementPattern) -> list:
    """(inputs, corrected-output target) pairs certifying the input space."""
    if len(p.inputs) == 1:
        probes = []
        for vec in _PROBE_STATES:
            target = sv.PureState(p.declared_unitary @ vec, [p.outputs[0]])
            probes.append(({p.inputs[0]: vec}, target))
        return probes
    return [mbqc.choi_probe(p)]


def _pattern_min_fidelity(
    p: mbqc.MeasurementPattern, paths: int, seed: int
) -> tuple[float, int]:
    """Worst corrected-output fidelity over every branch (paths 0) or over
    `paths` sampled runs per probe, plus the run count."""
    worst, count = math.inf, 0
    for inputs, target in _pattern_probes(p):
        for state, _, frame in mbqc.runs(p, inputs, paths, seed):
            worst = min(worst, sv.fidelity(mbqc.apply_byproducts(state, frame), target))
            count += 1
    return worst, count


def cmd_verify_gates(args) -> int:
    if args.sep < 1:
        raise InputError("--sep must be a positive integer")
    if args.paths < 1:
        raise InputError("--paths must be a positive integer")
    seed = _resolve_seed(args)

    gates: list = []
    if args.pattern in ("hadamard", "all"):
        gates.append(("hadamard", mbqc.HadamardGate()))
    if args.pattern in ("rotation", "all"):
        for i, (xi, eta, zeta) in enumerate(_ROTATION_TRIPLES, start=1):
            gates.append((f"rotation[{i}]", mbqc.RotationGate(xi, eta, zeta)))
    if args.pattern in ("cnot", "all"):
        seps = (1, 2, 3) if args.pattern == "all" else (args.sep,)
        for d in seps:
            gates.append((f"cnot[sep={d}]", mbqc.CNOTGate(d)))

    paths = args.paths if args.branches == "sample" else 0
    # each gate is laid once and counted on its layout, before a dense unitary is built
    layouts = [(name, gate, mbqc.gate_layout(gate)) for name, gate in gates]
    for _, _, p in layouts:
        if not paths:
            mbqc.check_enumerable(p)
        if len(p.inputs) > 1:  # certified on a Choi probe
            mbqc.check_choi_width(p)
    suite = [(name, p.declaring(mbqc.gate_unitary(gate))) for name, gate, p in layouts]
    all_ok = True
    for name, p in suite:
        worst, runs = _pattern_min_fidelity(p, paths, seed)
        ok = worst >= 1.0 - GATE_THRESHOLD
        all_ok = all_ok and ok
        verdict = "PASS" if ok else "FAIL"
        print(f"{name}: {runs} runs, min fidelity {worst!r}: {verdict}")
    print(f"verify-gates: {'PASS' if all_ok else 'FAIL'} (threshold 1 - 1e-10)")
    return EXIT_OK if all_ok else EXIT_FAIL


# --------------------------------------------------------------- prepare ----


def _branch_hex(word) -> str:
    bits = "".join(str(b) for b in word)
    width = (len(bits) + 3) // 4
    return f"0x{int(bits, 2):0{width}x}"


def cmd_prepare(args) -> int:
    if not 0 <= args.theta <= 7:
        raise InputError("--theta must be an integer in 0..7")
    seed = _resolve_seed(args)
    theta = args.theta * math.pi / 4

    p = steane.compile_encoder()
    if args.branches == "zero":
        src: sv.OutcomeSource = sv.ForcedBranch([0] * p.measured_count)
    else:
        src = sv.BornSampler(seed)
    block = steane.prepare_encoded_mbqc(theta, src)
    # built from the codeword strings; the report's "circuit encoding" label is kept
    target = steane.logical_plus_theta(theta)
    fid = sv.fidelity(block.state, target)

    entries = block.transcript.entries
    all_half = all(e.prob == 0.5 for e in entries)
    prob_text = f"2^-{len(entries)}" if all_half else repr(block.transcript.branch_prob)
    frame_text = " ".join(
        f"d{i}:X{block.frame.exps[('d', i)][0]}Z{block.frame.exps[('d', i)][1]}"
        for i in range(1, 8)
    )

    columns, rows = p.bounding_grid()
    print(f"prepare: theta index {args.theta} (theta = {args.theta}*pi/4)")
    print(f"cluster: {columns} x {rows} grid, {len(p.nodes)} nodes, {p.measured_count} measured")
    print(f"branch word: {_branch_hex(block.transcript.branch_word())}")
    print(f"branch probability: {prob_text}")
    print(f"byproduct frame: {frame_text}")
    print(f"fidelity vs circuit encoding: {fid!r}")
    ok = fid >= 1.0 - PREPARE_THRESHOLD
    print(f"prepare: {'PASS' if ok else 'FAIL'} (threshold 1 - 1e-9)")
    return EXIT_OK if ok else EXIT_FAIL


# --------------------------------------------------------------- correct ----


def cmd_correct(args) -> int:
    if not 1 <= args.pos <= 7:
        raise InputError("--pos must be an integer in 1..7")
    if not 0 <= args.theta <= 7:
        raise InputError("--theta must be an integer in 0..7")
    seed = _resolve_seed(args)
    theta = args.theta * math.pi / 4

    clean = steane.encode_circuit(sv.new_plus_theta(theta))
    injected = steane.inject_error(clean, steane.PauliError(args.pauli, args.pos))
    result, survived = steane.extract_syndrome(injected, sv.BornSampler(seed))
    corrected = steane.apply_correction(survived, result)
    fid = sv.fidelity(corrected, clean)

    bit_note = "no bit flip" if not result.bit_position else f"X at {result.bit_position}"
    phase_note = (
        "no phase flip" if not result.phase_position else f"Z at {result.phase_position}"
    )
    print(
        f"correct: injected {args.pauli} at position {args.pos} "
        f"on the encoding of |+_{args.theta}*pi/4>"
    )
    print(f"bit syndrome: {result.bit_position:03b} ({bit_note})")
    print(f"phase syndrome: {result.phase_position:03b} ({phase_note})")
    print(f"fidelity after correction: {fid!r}")
    ok = fid >= 1.0 - PREPARE_THRESHOLD
    print(f"correct: {'PASS' if ok else 'FAIL'} (threshold 1 - 1e-9)")
    return EXIT_OK if ok else EXIT_FAIL


# ------------------------------------------------------------- blindness ----


def _report_line(tag: str, rep: bl.BlindnessReport) -> str:
    kind = "exact enumeration" if rep.exact else f"{rep.sampled_paths} sampled paths"
    return (
        f"{tag}: {kind} over {rep.measured_count} measurements; "
        f"coverage {min(rep.coverage)!r}; "
        f"max TV {rep.tv_max!r}; max |p - 1/2| {rep.max_prob_deviation!r}"
    )


def cmd_blindness(args) -> int:
    if not (math.isfinite(args.epsilon) and args.epsilon > 0.0):
        raise InputError(f"--epsilon must be a positive finite number, got {args.epsilon!r}")
    if args.paths < 1:
        raise InputError("--paths must be a positive integer")
    seed = _resolve_seed(args)

    print(f"blindness: {args.protocol} protocol, 8 phases k*pi/4")
    if args.protocol == "min-cluster":
        tagged = [(f"basis {b}", bl.min_cluster_blindness(b)) for b in ("x", "y", "z")]
    else:
        tagged = [("prepare", bl.preparation_blindness(paths=args.paths, seed=seed))]
        print("note: sampled TV cannot fail; only max |p - 1/2| carries evidence", file=sys.stderr)
    for tag, rep in tagged:
        print(_report_line(tag, rep))
    print(f"note: {bl.NOTE}")

    ok = all(rep.passes(args.epsilon) for _, rep in tagged)
    print(f"blindness: {'PASS' if ok else 'FAIL'} (epsilon {args.epsilon!r})")
    return EXIT_OK if ok else EXIT_FAIL


# ------------------------------------------------------------- resources ----


def cmd_resources(args) -> int:
    for flag in ("lmin", "lmax", "step"):
        if not math.isfinite(getattr(args, flag)):
            raise InputError(f"--{flag} must be a finite number")
    if args.step <= 0.0:
        raise InputError("--step must be positive")
    if args.lmin < 0.0:
        raise InputError("--lmin cannot be negative")
    if args.lmax < args.lmin:
        raise InputError("--lmax must be at least --lmin")
    span = (args.lmax - args.lmin) / args.step + 1e-9
    if span >= MAX_SWEEP_ROWS:
        raise InputError(f"the sweep would exceed {MAX_SWEEP_ROWS} rows")
    params = load_config(args.config) if args.config else rs.ExperimentParams()

    count = int(math.floor(span)) + 1
    lengths = [args.lmin + i * args.step for i in range(count)]

    lines = [CSV_HEADER]
    k = k_cell = None  # the last row's k and its cell
    for length, row, err in rs.sweep(lengths, params):
        if row is None:
            print(f"warning: L = {length} km: {err}", file=sys.stderr)
            lines.append(",".join([repr(length)] + ["NA"] * CSV_HEADER.count(",")))
            continue
        # every field is a Python int or float, whose repr is its cell; k is the
        # one float every row of a sweep shares, rendered again only for another
        if row.k is not k:
            k, k_cell = row.k, repr(row.k)
        lines.append(
            f"{row.length_km!r},{row.t!r},{row.p1_lower!r},{row.n_coded!r},{row.n_direct!r},"
            f"{k_cell},{row.k_n_direct!r},{row.n_asym!r},{row.e_coded!r},{row.e_direct_k!r},"
            f"{row.e_asym!r}"
        )
    text = "\n".join(lines) + "\n"

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as ex:
            raise InputError(f"cannot write {args.out}: {ex}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ------------------------------------------------------------ entry point ----


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blindprep",
        description="Verify cluster-state preparation of encoded qubits "
        "and estimate the photonic resources it needs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    vg = sub.add_parser("verify-gates", help="check gate patterns against unitaries")
    vg.add_argument(
        "--pattern",
        choices=("hadamard", "rotation", "cnot", "all"),
        default="all",
        help="which gate family to check (default: all)",
    )
    vg.add_argument("--sep", type=int, default=1, help="CNOT wire separation")
    vg.add_argument(
        "--branches",
        choices=("exhaustive", "sample"),
        default="exhaustive",
        help="enumerate every branch or sample seeded runs",
    )
    vg.add_argument("--paths", type=int, default=200, help="runs in sample mode")
    vg.add_argument("--seed", type=int, default=None)
    vg.set_defaults(func=cmd_verify_gates)

    pr = sub.add_parser("prepare", help="run one encoded preparation end to end")
    pr.add_argument(
        "--theta", type=int, default=0, help="phase index k, for theta = k*pi/4"
    )
    pr.add_argument(
        "--branches",
        choices=("sample", "zero"),
        default="sample",
        help="sample outcomes or force the all-zero branch",
    )
    pr.add_argument("--seed", type=int, default=None)
    pr.set_defaults(func=cmd_prepare)

    co = sub.add_parser("correct", help="inject one Pauli error and undo it")
    co.add_argument("--pauli", choices=("X", "Y", "Z"), required=True)
    co.add_argument("--pos", type=int, required=True, help="error position 1..7")
    co.add_argument(
        "--theta", type=int, default=0, help="phase index k of the encoded state"
    )
    co.add_argument("--seed", type=int, default=None)
    co.set_defaults(func=cmd_correct)

    bd = sub.add_parser("blindness", help="compare transcripts across phases")
    bd.add_argument(
        "--protocol",
        choices=("min-cluster", "prepare"),
        default="min-cluster",
    )
    bd.add_argument("--epsilon", type=float, default=1e-10)
    bd.add_argument(
        "--paths", type=int, default=32, help="sampled paths per phase (prepare)"
    )
    bd.add_argument("--seed", type=int, default=None)
    bd.set_defaults(func=cmd_blindness)

    re = sub.add_parser("resources", help="sweep fiber lengths and write CSV")
    re.add_argument("--config", default=None, help="key = value parameter file")
    re.add_argument("--lmin", type=float, default=0.0)
    re.add_argument("--lmax", type=float, default=200.0)
    re.add_argument("--step", type=float, default=5.0)
    re.add_argument("--out", default=None, help="CSV path (default: stdout)")
    re.set_defaults(func=cmd_resources)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
