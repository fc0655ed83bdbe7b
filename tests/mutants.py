"""Boundary mutants: each moves one named bound, and its boundary tests must fail.

    python tests/mutants.py

Each mutant replaces one source line in a temporary copy of ``src/`` and runs only the tests
that pin that bound from both sides, with the copy first on the import path. A mutant is killed
when those tests fail; the script exits 1 if any mutant survives, and 2 if the unmutated copy
fails its own boundary tests or a mutant's line is not found exactly once. The file name keeps
pytest from collecting it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # file under src/bellkit
    line: str  # the exact source line, found once
    replacement: str
    tests: tuple[str, ...]  # pytest node ids


CHSH_BOUNDS = ("tests/test_cli.py::TestChshBounds::test_chsh_verdict",
               "tests/test_cli.py::TestChshBounds::test_fine_criterion")
QUAD_BOUND = ("tests/test_cli.py::TestChshBounds::test_quad_verdict",)
HV_COMMUTATION = ("tests/test_cli.py::TestCommutationBounds::test_hidden_variable_family",
                  "tests/test_cli.py::TestCommutationBounds::test_all_commuting_of_a_scenario")
LOGIC_COMMUTATION = ("tests/test_cli.py::TestCommutationBounds::test_proposition_pair",)
ENTROPY_BOUND = ("tests/test_cli.py::TestEntropyBound::test_entropy_verdict",)
LINEAR_ENTROPY_BOUND = ("tests/test_cli.py::TestEntropyBound::test_linear_entropy_verdict",)
TRACE_BOUND = ("tests/test_cli.py::TestHv::test_state_trace_bound",)

CLASSICAL_BOUND = "    return abs(v) <= 2.0 + CHSH_TOL\n"
QUAD_VERDICT = ("    return QuadReport(holds=slack >= -SLACK_TOL, slack=slack, worst_permutation=worst, "
                "per_permutation=per)\n")
HV_COMMUTE = "        if norm > COMMUTE_TOL:\n"
LOGIC_COMMUTE = "    if norm > COMMUTE_TOL:\n"
ENTROPY_EXIT = '    return _report("entropy", config, results), EXIT_VIOLATION if gap < -SLACK_TOL else EXIT_OK\n'
ENTROPY_VERDICT = "            condition_holds=rep.s12 >= max(rep.s1, rep.s2) - SLACK_TOL,\n"
LINEAR_HOLDS = "        holds=lhs >= rhs - SLACK_TOL,\n"
BETA_BOUND_IMPLIED = "        beta_bound_implied=-excess >= -SLACK_TOL,\n"
TRACE_CHECK = "        if abs(tr - 1.0) > DEFAULT_TOL:\n"

MUTANTS = (
    Mutant("classical bound 2x looser", "scenario.py", CLASSICAL_BOUND,
           "    return abs(v) <= 2.0 + 2 * CHSH_TOL\n", CHSH_BOUNDS),
    Mutant("classical bound 2x tighter", "scenario.py", CLASSICAL_BOUND,
           "    return abs(v) <= 2.0 + CHSH_TOL / 2\n", CHSH_BOUNDS),
    Mutant("quad slack bound 2x looser", "logic.py", QUAD_VERDICT,
           QUAD_VERDICT.replace("-SLACK_TOL", "-2 * SLACK_TOL"), QUAD_BOUND),
    Mutant("quad slack bound 2x tighter", "logic.py", QUAD_VERDICT,
           QUAD_VERDICT.replace("-SLACK_TOL", "-SLACK_TOL / 2"), QUAD_BOUND),
    Mutant("hidden-variable commutation 100x looser", "hidden_vars.py", HV_COMMUTE,
           "        if norm > 100 * COMMUTE_TOL:\n", HV_COMMUTATION),
    Mutant("hidden-variable commutation 100x tighter", "hidden_vars.py", HV_COMMUTE,
           "        if norm > COMMUTE_TOL / 100:\n", HV_COMMUTATION),
    Mutant("proposition commutation 100x looser", "logic.py", LOGIC_COMMUTE,
           "    if norm > 100 * COMMUTE_TOL:\n", LOGIC_COMMUTATION),
    Mutant("proposition commutation 100x tighter", "logic.py", LOGIC_COMMUTE,
           "    if norm > COMMUTE_TOL / 100:\n", LOGIC_COMMUTATION),
    Mutant("entropy exit bound 2x looser", "cli.py", ENTROPY_EXIT,
           ENTROPY_EXIT.replace("-SLACK_TOL", "-2 * SLACK_TOL"), ENTROPY_BOUND),
    Mutant("entropy exit bound 2x tighter", "cli.py", ENTROPY_EXIT,
           ENTROPY_EXIT.replace("-SLACK_TOL", "-SLACK_TOL / 2"), ENTROPY_BOUND),
    Mutant("entropic condition bound 2x looser", "entropy.py", ENTROPY_VERDICT,
           ENTROPY_VERDICT.replace("- SLACK_TOL", "- 2 * SLACK_TOL"), ENTROPY_BOUND),
    Mutant("entropic condition bound 2x tighter", "entropy.py", ENTROPY_VERDICT,
           ENTROPY_VERDICT.replace("- SLACK_TOL", "- SLACK_TOL / 2"), ENTROPY_BOUND),
    Mutant("linear-entropy condition bound 2x looser", "entropy.py", LINEAR_HOLDS,
           LINEAR_HOLDS.replace("- SLACK_TOL", "- 2 * SLACK_TOL"), LINEAR_ENTROPY_BOUND),
    Mutant("linear-entropy condition bound 2x tighter", "entropy.py", LINEAR_HOLDS,
           LINEAR_HOLDS.replace("- SLACK_TOL", "- SLACK_TOL / 2"), LINEAR_ENTROPY_BOUND),
    Mutant("purity bound implication 2x looser", "entropy.py", BETA_BOUND_IMPLIED,
           BETA_BOUND_IMPLIED.replace("-SLACK_TOL", "-2 * SLACK_TOL"), LINEAR_ENTROPY_BOUND),
    Mutant("purity bound implication 2x tighter", "entropy.py", BETA_BOUND_IMPLIED,
           BETA_BOUND_IMPLIED.replace("-SLACK_TOL", "-SLACK_TOL / 2"), LINEAR_ENTROPY_BOUND),
    Mutant("density operator trace check 2x looser", "linalg.py", TRACE_CHECK,
           "        if abs(tr - 1.0) > 2 * DEFAULT_TOL:\n", TRACE_BOUND),
    Mutant("density operator trace check 2x tighter", "linalg.py", TRACE_CHECK,
           "        if abs(tr - 1.0) > DEFAULT_TOL / 2:\n", TRACE_BOUND),
)


def run_tests(src: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit code for ``tests`` with ``src`` first on the import path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
               PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run([sys.executable, "-c", "import bellkit; print(bellkit.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout.strip()
    if not Path(where).is_relative_to(src):
        raise RuntimeError(f"bellkit imports from {where}, not from the copy under {src}")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="bellkit-mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        every_test = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        if run_tests(src, every_test) != 0:
            print("the boundary tests fail on the unmutated source", file=sys.stderr)
            return 2
        survivors = []
        for mutant in MUTANTS:
            path = src / "bellkit" / mutant.module
            original = path.read_text()
            if original.count(mutant.line) != 1:
                print(f"{mutant.name}: line not found exactly once in {mutant.module}", file=sys.stderr)
                return 2
            path.write_text(original.replace(mutant.line, mutant.replacement))
            try:
                code = run_tests(src, mutant.tests)
            finally:
                path.write_text(original)
            killed = code == 1  # 1: tests ran and failed; any other code is not a kill
            print(f"{'killed' if killed else 'SURVIVED'} (pytest exit {code}): {mutant.name}")
            if not killed:
                survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
