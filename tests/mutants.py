"""Mutation battery: each mutant must be killed by the test files it lists.

Run from the repository root (pytest does not collect this file)::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants only

Each mutant replaces one exact piece of text in one source file.  For each,
in turn, ``src/``, ``tests/`` and ``pyproject.toml`` are copied to a
temporary directory, the replacement is applied there, and ``pytest -x -q``
runs the listed test files.  A failing run kills the mutant.  The unmutated
copy runs the same files first, so that a broken tree cannot pass for a
strong suite.

The script exits non-zero when a mutant survives, when a run ends neither
passed nor failed (a usage or collection error), or when a mutant's old
text no longer occurs exactly once, so the table cannot rot silently.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]
    why: str


MUTANTS = [
    # the residual-chain sampler
    Mutant(
        "sampler_start_ones", "src/tricklesim/residual.py",
        "window = [0.0] * spec.m", "window = [1.0] * spec.m",
        ("tests/test_residual.py",),
        "the chain starts from the empty history, a state of every chain",
    ),
    Mutant(
        "sampler_u_from_zero", "src/tricklesim/residual.py",
        "(1.0 - rng.random())", "rng.random()",
        ("tests/test_residual.py",),
        "u lies in (0, 1], so p > 0 even where F(sigma) = 0",
    ),
    Mutant(
        "sampler_drops_newest", "src/tricklesim/residual.py",
        "window.pop(0)", "window.pop()",
        ("tests/test_residual.py",),
        "the window slides: the oldest value leaves, not the newest",
    ),
    Mutant(
        "sampler_no_overshoot", "src/tricklesim/residual.py",
        "x = dist.inverse_cdf(p) - sigma", "x = dist.inverse_cdf(p)",
        ("tests/test_residual.py",),
        "the chain moves by the residual Y - sigma, not by Y",
    ),
    Mutant(
        "sampler_no_p_cap", "src/tricklesim/residual.py",
        "        if p >= 1.0:\n", "        if False:\n",
        ("tests/test_residual.py",),
        "where F(sigma) rounds to 1, p = 1 is outside the domain of inverse_cdf",
    ),
    Mutant(
        "sampler_no_clamp", "src/tricklesim/residual.py",
        "        if x < 0.0:\n", "        if False:\n",
        ("tests/test_residual.py",),
        "a rounded step can undershoot sigma; a chain value is never negative",
    ),
    # the engine
    Mutant(
        "time_order_no_tie_repair", "src/tricklesim/engine.py",
        "    if tied.any():\n", "    if False:\n",
        ("tests/test_engine.py",),
        "ties (synchronized skew, eta = 1) are ordered by node, as the oracle does",
    ),
    Mutant(
        "cell_sweep_strict_node_tie", "src/tricklesim/engine.py",
        "node.item(p) >= (", "node.item(p) > (",
        ("tests/test_engine.py",),
        "a fire at exactly its interval start is preceded by a node id no larger",
    ),
    Mutant(
        "carry_one_column", "src/tricklesim/engine.py",
        "fires[:, -2:].copy(), j[-2:]", "fires[:, -1:].copy(), j[-1:]",
        ("tests/test_engine.py",),
        "the last two columns of a chunk can hold fires past its bound",
    ),
    Mutant(
        "windows_by_division", "src/tricklesim/engine.py",
        'idx = np.searchsorted(edges, tx_times, side="right") - 1',
        "idx = np.floor(tx_times / tau).astype(np.intp) - w0",
        ("tests/test_engine.py",),
        "window edges are the products w*tau_h; division rounds differently",
    ),
    Mutant(
        "pooled_std_ddof0", "src/tricklesim/engine.py",
        "self.counts.std(ddof=1)", "self.counts.std(ddof=0)",
        ("tests/test_engine.py",),
        "the reported spread is the sample standard deviation",
    ),
    Mutant(
        "replicate_master_seed", "src/tricklesim/engine.py",
        "st = run(replace(config, seed=s))", "st = run(config)",
        ("tests/test_engine.py",),
        "replications are independent runs, not one run repeated",
    ),
    # CSV output and spec validation
    Mutant(
        "gaps_csv_16_digits", "src/tricklesim/csvio.py",
        '"%.17g\\r\\n"', '"%.16g\\r\\n"',
        ("tests/test_cli.py",),
        "17 significant digits round-trip every double in the gaps CSV",
    ),
    Mutant(
        "spec_no_whole_window_check", "src/tricklesim/cli.py",
        "if math.floor(self.duration) - math.ceil(self.warmup) < 1:", "if False:",
        ("tests/test_cli.py",),
        "a spec with no whole window is refused before any work (exit 2)",
    ),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, tests) -> tuple[int, str]:
    """pytest's exit code and the id of the first failing test, if any."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", *tests]
    res = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in res.stdout.splitlines() if line.startswith("FAILED ")]
    return res.returncode, failed[0] if failed else ""


def _apply(tree: Path, mutant: Mutant) -> bool:
    """Apply the mutant in `tree`; False if its old text is not there exactly once."""
    path = tree / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new))
    return True


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "base"
        _copy_tree(tree)
        files = sorted({f for m in chosen for f in m.tests})
        t0 = time.perf_counter()
        code, first = _pytest(tree, files)
        print(f"{'baseline':28s} {'passed' if code == 0 else f'FAILED (exit {code})':22s} "
              f"{time.perf_counter() - t0:6.1f} s  {first or ' '.join(files)}")
        if code != 0:
            return 1
        for i, mutant in enumerate(chosen):
            tree = Path(tmp) / f"m{i}"
            _copy_tree(tree)
            t0 = time.perf_counter()
            first = ""
            if not _apply(tree, mutant):
                verdict = "STALE (old text not found once)"
            else:
                code, first = _pytest(tree, mutant.tests)
                verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (exit {code})")
            shutil.rmtree(tree)
            bad += verdict != "killed"
            print(f"{mutant.name:28s} {verdict:22s} {time.perf_counter() - t0:6.1f} s  "
                  f"{mutant.path}: {mutant.why}")
            if first:
                print(f"{'':28s} by {first}")
    print(f"{len(chosen)} mutants, {len(chosen) - bad} killed, {bad} not")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
