"""Run the Tier-1 suite against each mutant in ``mutants.py``.

    python tests/run_mutants.py [results.json]

One mutant at a time: copy the tree to a temporary directory, apply the
mutant there, run Tier-1 with ``-x`` but without the catalogue's own check,
and record ``killed`` (with the first failing test), ``survived`` or
``timeout``.  The working tree is only read.  The results are written as a
JSON list, to the path given or to stdout.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out",
    ".bench_build")
# the catalogue's own check fails on every applied mutant
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
TIMEOUT_S = 600  # a mutant that loops forever counts as caught, not as hung


def run_one(mutant):
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        target = tree / mutant.file
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.file}: snippet must occur once: {mutant.old!r}")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                                  capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", None, time.perf_counter() - start
        seconds = time.perf_counter() - start
    failed = [line.split(" - ")[0].split(" ", 1)[1]
              for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode == 0:
        return "survived", None, seconds
    return "killed", failed[0] if failed else f"exit {proc.returncode}", seconds


def main(argv):
    results = []
    for i, mutant in enumerate(MUTANTS):
        outcome, test, seconds = run_one(mutant)
        results.append({"index": i, "file": mutant.file, "why": mutant.why,
                        "equivalent": mutant.equivalent, "outcome": outcome,
                        "killed_by": test, "seconds": round(seconds, 1)})
        print(f"{i}: {outcome} {test or ''} ({seconds:.1f} s)", file=sys.stderr)
    text = json.dumps(results, indent=2) + "\n"
    if argv:
        Path(argv[0]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main(sys.argv[1:])
