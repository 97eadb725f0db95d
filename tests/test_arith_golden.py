"""The arithmetic's exact results equal those recorded in
`tests/golden/arith-outputs.json` (see `tests/golden/arith_outputs.py`)."""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"


def test_arithmetic_matches_the_golden_file():
    spec = importlib.util.spec_from_file_location("arith_outputs", GOLDEN / "arith_outputs.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    want = json.loads((GOLDEN / "arith-outputs.json").read_text())
    got = generator.results()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, f"{w['op']} at order {w['order']}, precision {w['precision']}"
