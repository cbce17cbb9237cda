"""The golden corpus (tests/golden/): every recorded `qmpoly` command,
run in process through `cli.main`, gives its recorded exit code, stdout
and stderr, and a `gen` command writes its recorded file.

`tests/golden/record.py` says how the corpus is recorded and what it
holds.  The whole corpus runs in a few seconds.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_record",
                                               GOLDEN / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

CASES = json.loads((GOLDEN / "expected.json").read_text(encoding="utf-8"))


def test_the_corpus_holds_every_recorded_case():
    assert [c["name"] for c in CASES] == [name for name, _, _ in record.CASES]
    assert all(c["argv"] == argv and c["env"] == env
               for c, (_, argv, env) in zip(CASES, record.CASES))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_case(case, tmp_path):
    result = record.run_case(case["argv"], case["env"], tmp_path)
    written = record.out_file(case["argv"])
    if written is not None:
        expected = (GOLDEN / "inputs" / written).read_text(encoding="utf-8")
        assert result.pop("written") == expected
    assert result == {k: case[k] for k in ("exit", "stdout", "stderr")}
