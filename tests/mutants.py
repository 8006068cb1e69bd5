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
     "        for l in range(k):\n", "        for l in range(k - 1):\n",
     ["tests/test_formulas.py"]),
    ("check_tallies drops the collapsed strata", "src/twobridge/formulas.py",
     "strata_ok = strata_ok and distinct_ok and collapsed_ok", "strata_ok = strata_ok and distinct_ok",
     ["tests/test_formulas.py"]),
    ("weighted_sum_check skips the second sum", "src/twobridge/identities.py",
     "            if 27 * second != ", "            if False and 27 * second != ",
     ["tests/test_identities.py"]),
    ("class stream drops the palindromic filter", "src/twobridge/enumeration.py",
     "yield from (dict.fromkeys(keys) if rb == b else keys)", "yield from keys",
     ["tests/test_enumeration.py"]),
    ("reverse-negation read without the negation shift", "src/twobridge/enumeration.py",
     "rev[half:] + rev[:half]", "rev",
     ["tests/test_enumeration.py"]),
    ("by_genus keeps the last unit only", "src/twobridge/enumeration.py",
     "a[2][m] = a[2].get(m, 0) + n", "a[2][m] = n",
     ["tests/test_enumeration.py"]),
    ("collapsed count skips the reversal test", "src/twobridge/enumeration.py",
     "collapsed += (packed >> shift & packed & negative_first).bit_count()",
     "collapsed += (packed & negative_first).bit_count()",
     ["tests/test_enumeration.py"]),
    ("partner codes skip the mirrored position", "src/twobridge/enumeration.py",
     "own, mirrored = 1 << bits * (digits - 1 - j), 1 << bits * j",
     "own, mirrored = 1 << bits * (digits - 1 - j), 1 << bits * (digits - 1 - j)",
     ["tests/test_enumeration.py"]),
    ("fields leave no room for the guard bit", "src/twobridge/enumeration.py",
     "size = bits * digits // 8 + 1", "size = (bits * digits + 7) // 8",
     ["tests/test_enumeration.py"]),
    ("digits one bit too narrow for the largest part", "src/twobridge/enumeration.py",
     "bits = (2 * ((c + ell) // 2 - digits + 1)).bit_length()",
     "bits = ((c + ell) // 2 - digits + 1).bit_length()",
     ["tests/test_enumeration.py"]),
    ("negative-first fields keep the positive signs", "src/twobridge/enumeration.py",
     "(sign - (sign << shift))", "(sign + (sign << shift))",
     ["tests/test_enumeration.py"]),
    ("delta sum never updates previous", "src/twobridge/enumeration.py",
     "            previous = cuts\n", "",
     ["tests/test_enumeration.py"]),
    ("sign columns skip the negation", "src/twobridge/enumeration.py",
     ".translate(_NEGATE)", "",
     ["tests/test_enumeration.py"]),
    ("class stream skips palindromic compositions", "src/twobridge/enumeration.py",
     "        if rb < b:\n", "        if rb <= b:\n",
     ["tests/test_enumeration.py"]),
    ("_average skips its integer test", "src/twobridge/formulas.py",
     "    if tg * 12 * q != ", "    if False and tg * 12 * q != ",
     ["tests/test_formulas.py"]),
    ("_average returns tk/tg", "src/twobridge/formulas.py",
     "    return Fraction(tg, tk)", "    return Fraction(tk, tg)",
     ["tests/test_acceptance.py", "tests/test_formulas.py"]),
    ("tk_mirror_closed's c = 3 (mod 4) branch is off by one", "src/twobridge/formulas.py",
     "(1 << ((c - 3) // 2)) + 1, 3)", "(1 << ((c - 3) // 2)) + 4, 3)",
     ["tests/test_acceptance.py", "tests/test_formulas.py"]),
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
    ("every pool child pins the first CPU", "src/twobridge/enumeration.py",
     "os.sched_setaffinity(0, {self._cpus[k]})", "os.sched_setaffinity(0, {self._cpus[0]})",
     ["tests/test_enumeration.py"]),
    ("clamp ignores the affinity set", "src/twobridge/enumeration.py",
     "len(cpus) or os.cpu_count() or 1", "os.cpu_count() or 1",
     ["tests/test_enumeration.py"]),
    ("the parent ignores a child's exit status", "src/twobridge/enumeration.py",
     "            if code:\n", "            if False:\n",
     ["tests/test_enumeration.py"]),
    ("a failed fork leaves its pipe open", "src/twobridge/enumeration.py",
     "                os.close(r)\n                os.close(w)\n                raise\n",
     "                raise\n",
     ["tests/test_enumeration.py"]),
    ("the deal puts every group in share 0", "src/twobridge/enumeration.py",
     "k = loads.index(min(loads))", "k = 0",
     ["tests/test_enumeration.py"]),
    ("Schubert oracle: collapsed count skips the reversal test", "src/twobridge/enumeration.py",
     "collapsed += (packed >> shift & packed & negative_first).bit_count()",
     "collapsed += (packed & negative_first).bit_count()",
     ["tests/test_schubert.py"]),
    ("tallies counts a repeated crossing number again", "src/twobridge/enumeration.py",
     "cs = list(dict.fromkeys(cs))", "cs = list(cs)",
     ["tests/test_enumeration.py"]),
    ("x2_specialization_check skips beta", "src/twobridge/identities.py",
     "            if beta_sum(n, 2) != ", "            if False and beta_sum(n, 2) != ",
     ["tests/test_identities.py"]),
    ("wellknown_check skips the row sums", "src/twobridge/identities.py",
     "            if sum(row) != 2**n:\n", "            if False:\n",
     ["tests/test_identities.py"]),
    ("even_expansion records each quotient negated", "src/twobridge/contfrac.py",
     "        entries.append(e)\n", "        entries.append(-e)\n",
     ["tests/test_acceptance.py", "tests/test_contfrac.py"]),
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
