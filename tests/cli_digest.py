"""One sha256 over the CLI's stdout and exit codes for a fixed list of 83 runs.

Run as `python3 tests/cli_digest.py` from the repository root. Two checkouts
whose CLI behaves byte for byte the same print the same digest, so the digest
checks far more output than the golden records alone. Each invocation
contributes its argv, its stdout and its exit code; stderr is not hashed.
Every command runs in-process through `cli.main` with BLINDPREP_SEED unset.
The script prints the digest and exits 0 when it equals the value recorded
in `tests/cli_digest.sha256`; otherwise it prints both values and exits 1.
That value is re-recorded under the same rule as the golden records.
An exception raised in a finalizer, such as the ResourceWarning that
`python3 -X dev -W error` makes of a file left unclosed, also exits 1:
Python itself only prints such an exception and goes on.

The file name does not match pytest's test patterns, so it is not collected.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from blindprep.cli import main  # noqa: E402

GOLDEN = [
    ["prepare", "--theta", "3", "--seed", "5"],
    ["prepare", "--branches", "zero"],
    ["verify-gates", "--pattern", "hadamard"],
    ["verify-gates", "--pattern", "cnot", "--sep", "1"],
    ["correct", "--pauli", "Y", "--pos", "4"],
    ["blindness"],
    ["verify-gates", "--pattern", "rotation"],
    ["prepare", "--theta", "6", "--seed", "9"],
    ["verify-gates", "--pattern", "rotation", "--branches", "sample", "--paths", "20",
     "--seed", "7"],
    ["blindness", "--protocol", "prepare", "--paths", "4", "--seed", "1"],
]

PREPARE = [
    ["prepare", "--theta", str(t), *branch]
    for t in range(8)
    for branch in (["--seed", "0"], ["--seed", "1"], ["--seed", "2"], ["--branches", "zero"])
]

CORRECT = [
    ["correct", "--pauli", pauli, "--pos", str(pos)] for pauli in "XYZ" for pos in range(1, 8)
]

# the default suite: every pattern, the CNOTs at sep 2 and 3 exhaustively
EXHAUSTIVE_GATES = [["verify-gates"]]

SAMPLED_GATES = [
    ["verify-gates", "--pattern", "hadamard", "--branches", "sample", "--paths", "5"],
    ["verify-gates", "--pattern", "rotation", "--branches", "sample", "--paths", "20",
     "--seed", "3"],
] + [
    ["verify-gates", "--pattern", "cnot", "--sep", str(d), "--branches", "sample",
     "--paths", "10", "--seed", "3"]
    for d in (1, 2, 3)
]

BLINDNESS = [
    ["blindness", "--protocol", "min-cluster"],
    ["blindness", "--protocol", "prepare"],
    ["blindness", "--epsilon", "1e-300"],  # exits 2
]

# the default sweep, and one read from a config file whose rows past 10 000 km
# are NA; the file's path is relative to the repository root
RESOURCES = [
    ["resources"],
    ["resources", "--config", "tests/sweep.cfg", "--lmax", "20000", "--step", "2500"],
]

USAGE_ERRORS = [
    ["verify-gates", "--paths", "0", "--branches", "sample"],
    ["prepare", "--theta", "9"],
    ["correct", "--pauli", "X", "--pos", "8"],
    ["blindness", "--paths", "0"],
    ["resources", "--step", "0"],
    # a config key that is not in CONFIG_KEYS
    ["resources", "--config", "tests/unknown_key.cfg"],
]

# CNOTs too wide to certify, each refused with exit 1 and no stdout: the
# sampled Choi runs at sep 10 and 11 would pass the 24-qubit cap, and sep 12
# is refused before it is laid, its unitary wider than half that cap
WIDE_CNOTS = [
    ["verify-gates", "--pattern", "cnot", "--sep", str(d), "--branches", "sample",
     "--paths", "1"]
    for d in (10, 11)
] + [["verify-gates", "--pattern", "cnot", "--sep", "12"]]

INVOCATIONS = (
    GOLDEN + PREPARE + CORRECT + EXHAUSTIVE_GATES + SAMPLED_GATES + BLINDNESS + RESOURCES
    + USAGE_ERRORS + WIDE_CNOTS
)


def digest() -> str:
    os.environ.pop("BLINDPREP_SEED", None)
    h = hashlib.sha256()
    for argv in INVOCATIONS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        h.update(f"### {' '.join(argv)}\n{out.getvalue()}exit={code}\n".encode())
    return h.hexdigest()


RECORDED = Path(__file__).with_name("cli_digest.sha256")

if __name__ == "__main__":
    unraisable: list = []
    sys.unraisablehook = unraisable.append
    got, want = digest(), RECORDED.read_text(encoding="utf-8").strip()
    print(f"sha256 over {len(INVOCATIONS)} invocations: {got}")
    for hook in unraisable:
        print(f"raised in a finalizer: {hook.exc_type.__name__}: {hook.exc_value}")
    if got != want:
        print(f"recorded in {RECORDED.name}: {want}")
    if got != want or unraisable:
        sys.exit(1)
