from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "mutant", MUTANTS, ids=[f"{Path(m.file).stem}-{i}" for i, m in enumerate(MUTANTS)])
def test_each_mutant_snippet_occurs_once(mutant):
    # a rewritten line turns its entry stale here, not silently in the runner
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
