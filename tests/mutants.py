"""Mutation checks: each entry breaks one check of src/ in a copy, and the
tests it names must then fail.

Run as `python3 tests/mutants.py` from the repository root. For each entry
the script copies src/ to a temporary directory and replaces the entry's
old text, which must occur exactly once in its file, with the new text.
It then runs the entry's tests on that copy with `pytest -x -p
no:cacheprovider`, one entry after another, and prints the test that
killed the mutant and the time the run took. It exits 1 if a mutant
survives, if its old text is missing or repeated, or if its run ends in
anything but a test failure (a collection error, say). No bytecode or
pytest cache is written.

A mutant that survives needs a test that kills it, never its removal. A
change that deletes the code a mutant targets deletes the mutant with it.
The file name does not match pytest's test patterns, so it is not collected.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (file under src/blindprep, old text, new text, test selector, why it must fail)
MUTANTS = [
    (
        "mbqc.py",
        "if (width := widths[live is not None]) > LIVE_CAP:",
        "if (width := widths[0]) > LIVE_CAP:",
        "tests/test_mbqc.py::test_live_width_cap_reads_the_width_of_the_input_form",
        "a joint run must be capped at its joint width, not its dict width",
    ),
    (
        "mbqc.py",
        "if (width := widths[live is not None]) > LIVE_CAP:",
        "if (width := widths[1]) > LIVE_CAP:",
        "tests/test_mbqc.py::test_live_width_cap_reads_the_width_of_the_input_form",
        "a dict run must be capped at its dict width, not its joint width",
    ),
    (
        "mbqc.py",
        "if not (isinstance(delta, numbers.Real) and abs(delta) <= sys.float_info.max):",
        "if not math.isfinite(float(delta)):",
        "tests/test_mbqc.py::test_step_validation",
        "a delta such as '1.5' or 1+0j must be refused, not converted",
    ),
    (
        "statevector.py",
        "if c == t or not 0 <= c < n or not 0 <= t < n:",
        "if not 0 <= c < n or not 0 <= t < n:",
        "tests/test_statevector.py",
        "a CNOT whose control is its target must be refused",
    ),
    (
        "mbqc.py",
        """            del order[ax]
            cz = tuple(order.index(b) for b in cz)""",
        """            cz = tuple(order.index(b) for b in cz)
            del order[ax]""",
        "tests/test_mbqc.py",
        "CZ partners must be numbered on the axes left after the measured one",
    ),
    (
        "blindness.py",
        "return self.tv_max <= epsilon and self.max_prob_deviation <= 1e-9",
        "return self.tv_max <= epsilon",
        "tests/test_blindness.py",
        "a step that is not 50/50 must fail a blindness report",
    ),
    (
        "resources.py",
        "if q_mu <= 0.0:",
        "if False:",
        "tests/test_resources.py::test_opaque_channel_raises",
        "an opaque channel must be refused before the bound divides by Q_mu",
    ),
    (
        "resources.py",
        "if not c.decoy_ok:",
        "if False:",
        "tests/test_resources.py::test_estimate_keeps_the_reference_bits",
        "intensities that underflow the decoy bound must be refused",
    ),
    (
        "resources.py",
        "if not 0.0 < p1 < 1.0:",
        "if False:",
        "tests/test_resources.py::test_estimate_keeps_the_reference_bits",
        "a single-photon bound outside (0, 1) must be refused",
    ),
    (
        "resources.py",
        "if not 0.0 < p1_inf < 1.0:",
        "if False:",
        "tests/test_resources.py::test_estimate_keeps_the_reference_bits",
        "an asymptotic fraction outside (0, 1) must be refused",
    ),
    (
        "resources.py",
        "if t <= 0.0:",
        "if False:",
        "tests/test_resources.py::test_dark_counts_alone_still_give_a_bound",
        "T = 0 must be refused after both bounds pass on dark counts alone",
    ),
    (
        "resources.py",
        "if not math.isfinite(raw) or raw <= 0.0:",
        "if False:",
        "tests/test_resources.py::test_pulses_needed_rejects_nonsense",
        "a pulse count that is not finite and positive must be refused",
    ),
    (
        "mbqc.py",
        "if not isinstance(row, (list, tuple)) or len(row) != size:",
        "if False:",
        "tests/test_mbqc.py::test_pattern_built_in_code_reports_the_parsers_fault",
        "a step or an edge of the wrong length must be one InputError",
    ),
    (
        "mbqc.py",
        "if key not in self._wires:",
        "if False:",
        "tests/test_mbqc.py::test_an_unregistered_wire_is_one_input_error",
        "a wire key never registered must be one InputError",
    ),
    (
        "cli.py",
        "if row.k is not k:",
        "if k is None:",
        "tests/test_cli.py::test_each_line_prints_its_own_rows_k",
        "a row whose k is another float must print its own k, not the first row's",
    ),
    (
        "cli.py",
        "{row.n_asym!r},{row.e_coded!r}",
        "{row.e_coded!r},{row.n_asym!r}",
        "tests/test_cli.py::test_each_line_is_the_repr_of_each_field_of_its_row",
        "each cell must be its field's repr, in CSV_HEADER order",
    ),
    (
        "steane.py",
        "(_PLUS_L, zip(data, anc), None)",
        "(_PLUS_L, zip(anc, data), None)",
        "tests/test_steane.py",
        "the bit round's CNOTs run from the data onto the |+>_L ancilla, not back",
    ),
    (
        "mbqc.py",
        'x_corr={w["carrier"]: w["a"] for w in wires},',
        'x_corr={w["carrier"]: w["a"] ^ {w["input"]} for w in wires},',
        "tests/test_mbqc.py::test_hadamard_pattern_all_branches",
        "a built pattern's X correction must follow its wire's frame",
    ),
    (
        "statevector.py",
        "branch *= 1.0 / math.sqrt(prob)",
        "pass",
        "tests/test_properties.py::test_kernel_chains_return_normalized_read_only_values",
        "a measurement must renormalize its residual",
    ),
    (
        "statevector.py",
        """    amps.setflags(write=False)
    out = PureState.__new__(PureState)""",
        "    out = PureState.__new__(PureState)",
        "tests/test_properties.py::test_kernel_chains_return_normalized_read_only_values",
        "a kernel's output state must be read-only",
    ),
    (
        "statevector.py",
        'd["labels"] = labels',
        'd["labels"] = list(labels)',
        "tests/test_properties.py::test_kernel_chains_return_normalized_read_only_values",
        "a kernel's output state must keep its labels as a tuple",
    ),
    (
        "statevector.py",
        "idx = _contract(CNOT, idx, [c, t])",
        "idx = _contract(CNOT, idx, [t, c])",
        "tests/test_statevector.py::test_apply_cnots_matches_sequential_cnot_gates_bit_for_bit",
        "a CNOT run's gather index must move amplitudes as the CNOT gates do",
    ),
    (
        "blindness.py",
        "return 0.5 * total",
        "return 0.0",
        "tests/test_blindness.py::test_tv_distance_basics",
        "the TV distance between two different distributions is not 0",
    ),
    (
        "blindness.py",
        "coverage.append(sum(dist.values()))",
        "coverage.append(1.0)",
        "tests/test_blindness.py::test_preparation_blindness_sampled_runs",
        "a sampled report's coverage is the mass of the words it saw, not 1",
    ),
    (
        "mbqc.py",
        "if (deps & bits).bit_count() & 1:",
        "if False:",
        "tests/test_mbqc.py::test_rot_basis_sign_follows_parity",
        "a rot angle must be negated when its deps have odd parity",
    ),
    (
        "mbqc.py",
        "word = ((word >> (m - 1 - dead)) + 1) << (m - 1 - dead)",
        "word += 1",
        "tests/test_mbqc.py::test_enumerate_skips_every_word_below_an_impossible_bit",
        "the walk must skip every word below an impossible bit",
    ),
    (
        "statevector.py",
        "if prob < _DEGENERATE_TOL:",
        "if False:",
        "tests/test_mbqc.py::test_enumerate_prunes_deterministic_branches",
        "a forced outcome of zero probability must be pruned, not renormalized",
    ),
]


def _killer(output: str) -> str:
    """The first failed test that pytest's short summary names."""
    for line in output.splitlines():
        if line.startswith("FAILED "):
            return line[len("FAILED "):].split(" - ")[0]
    return "?"


def main() -> int:
    failures = 0
    start = time.perf_counter()
    for name, old, new, selector, why in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(ROOT / "src", Path(tmp) / "src")
            path = Path(tmp) / "src" / "blindprep" / name
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"STALE {name}: old text occurs {text.count(old)} times: {old!r}")
                failures += 1
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
            t0 = time.perf_counter()
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
                 selector],
                cwd=ROOT, env=env, capture_output=True, text=True,
            )
            seconds = time.perf_counter() - t0
        if run.returncode == 1:
            print(f"killed   {seconds:5.1f} s  {name}: {why}\n         by {_killer(run.stdout)}")
        else:
            verdict = "SURVIVED" if run.returncode == 0 else f"ERROR {run.returncode}"
            print(f"{verdict} {seconds:5.1f} s  {name}: {why}\n         {old!r} -> {new!r}")
            print(run.stdout[-2000:] + run.stderr[-2000:])
            failures += 1
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
