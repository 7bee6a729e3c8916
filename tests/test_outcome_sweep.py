import json

from outcome_sweep import OUTCOMES, cases, line


def test_outcome_file_is_sorted_json_lines():
    text = OUTCOMES.read_text(encoding="utf-8")
    assert len(text.encode()) < 1_000_000
    for raw in text.splitlines():
        assert json.dumps(json.loads(raw), sort_keys=True, ensure_ascii=False) == raw


def test_every_case_keeps_its_recorded_outcome():
    # regenerate the file with outcome_sweep.py, and name each changed case
    recorded = OUTCOMES.read_text(encoding="utf-8").splitlines()
    expected = [line(case) for case in cases()]
    assert len(recorded) == len(expected)
    changed = [json.loads(new)["id"] for old, new in zip(recorded, expected) if old != new]
    assert changed == []
