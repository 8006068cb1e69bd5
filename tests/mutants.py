"""Mutation check: each listed one-line fault in src/ must fail some named test.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

For each mutant the tree (src/, tests/ and pyproject.toml) is copied to a
temporary directory, the old text is replaced there, and the named test
files run with ``pytest -x``.  A mutant is killed when pytest exits
nonzero.  The script exits 1 if any mutant survives, or if any old text,
equivalent mutants' included, does not occur exactly once in its file,
which is checked for every mutant before any test runs.  The file name
does not match pytest's ``test_*.py``, so the suite never collects it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file, old text, new text, test files that must fail).
MUTANTS = [
    ("check_tallies skips the last stratum", "src/twobridge/formulas.py",
     "            for l in range(k)\n", "            for l in range(k - 1)\n",
     ["tests/test_formulas.py"]),
    ("weighted_sum_check skips the second sum", "src/twobridge/identities.py",
     "            if 27 * second != ", "            if False and 27 * second != ",
     ["tests/test_identities.py"]),
    ("class stream drops the palindromic filter", "src/twobridge/enumeration.py",
     "yield from (compress(keys, first) if mirror is own else keys)", "yield from keys",
     ["tests/test_enumeration.py"]),
    ("by_genus keeps the last unit only", "src/twobridge/enumeration.py",
     "a[2][m] = a[2].get(m, 0) + n", "a[2][m] = n",
     ["tests/test_enumeration.py"]),
    ("collapsed count skips the reversal test", "src/twobridge/enumeration.py",
     "collapsed += sum(map(and_, below_rn[half:], map(le, seqs[half:], r)))",
     "collapsed += below_rn[half:].count(True)",
     ["tests/test_enumeration.py"]),
    ("blocks skip palindromes", "src/twobridge/enumeration.py",
     "        if rb < b:\n", "        if rb <= b:\n",
     ["tests/test_enumeration.py"]),
    ("_average skips its integer test", "src/twobridge/formulas.py",
     "    if tg * 12 * q != ", "    if False and tg * 12 * q != ",
     ["tests/test_formulas.py"]),
    ("table1 always exits 0", "src/twobridge/cli.py",
     "    if not all(totals_ok.values()):\n", "    if False:\n",
     ["tests/test_cli.py"]),
    ("verify drops the strata bit", "src/twobridge/cli.py",
     '(4, f"stratum closed forms', '(0, f"stratum closed forms',
     ["tests/test_cli.py"]),
    ("--threads read from the environment again", "src/twobridge/cli.py",
     '    default="1",\n', '    default="1",\n    envvar="TWOBRIDGE_THREADS",\n',
     ["tests/test_cli.py"]),
    ("tallies folds in task order", "src/twobridge/enumeration.py",
     "    for (ell, m), group in groups.items():\n        for c, counts in zip(group, done[ell, m]):\n",
     "    for ell, m in order:\n        for c, counts in zip(groups[ell, m], done[ell, m]):\n",
     ["tests/test_enumeration.py"]),
    ("every pool worker takes the first CPU", "src/twobridge/enumeration.py",
     "os.sched_setaffinity(worker.pid, {cpu})", "os.sched_setaffinity(worker.pid, {_cpus()[0]})",
     ["tests/test_enumeration.py"]),
    ("pins every live child", "src/twobridge/enumeration.py",
     "set(children()) - others", "set(children())",
     ["tests/test_enumeration.py"]),
    ("tallies counts a repeated crossing number again", "src/twobridge/enumeration.py",
     "cs = list(dict.fromkeys(cs))", "cs = list(cs)",
     ["tests/test_enumeration.py"]),
    ("x2_specialization_check skips beta", "src/twobridge/identities.py",
     "            if beta_sum(n, 2) != ", "            if False and beta_sum(n, 2) != ",
     ["tests/test_identities.py"]),
]

# (name, file, old text, new text, why no test can kill it).
EQUIVALENT = [
    ("wellknown_check stops the product loop before c = b", "src/twobridge/identities.py",
     "                for c in range(b + 1):\n", "                for c in range(b):\n",
     "the cells it drops compare C(a,b)·C(b,b) with C(a,b)·C(a-b,0), "
     "which are equal whatever comb returns there"),
]


def _check_texts() -> bool:
    ok = True
    for name, file, old, *_ in MUTANTS + EQUIVALENT:
        found = (ROOT / file).read_text(encoding="utf-8").count(old)
        if found != 1:
            print(f"{name}: old text occurs {found} times in {file}, not once")
            ok = False
    return ok


def _killed(file: str, old: str, new: str, tests: list) -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = Path(tmp, file)
        target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src"))}
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              *tests], cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
        return run.returncode != 0


def main() -> int:
    if not _check_texts():
        return 1
    for name, *_, reason in EQUIVALENT:
        print(f"equivalent, not run: {name}: {reason}")
    survivors = []
    for name, file, old, new, tests in MUTANTS:
        start = time.perf_counter()
        killed = _killed(file, old, new, tests)
        print(f"{'killed' if killed else 'SURVIVED'} in {time.perf_counter() - start:.1f} s: {name}")
        if not killed:
            survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
