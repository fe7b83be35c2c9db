"""Byte-compare the CLI against the committed golden outputs.

On a mismatch the failure message carries the per-column diff of
`golden.column_diffs`; regenerate with `PYTHONPATH=src python tests/golden.py`
only when the change moves bits on purpose, and quote that diff.
"""

import pytest

from golden import CASES, GOLDEN_DIR, column_diffs, render, versions


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden_bytes(case):
    want = (GOLDEN_DIR / f"{case}.out").read_bytes()
    got = render(case)
    if got != want:
        report = "\n".join(column_diffs(want.decode(), got.decode()))
        recorded = (GOLDEN_DIR / "VERSIONS").read_text(encoding="utf-8")
        pytest.fail(f"{case} differs from its golden output:\n{report}\n"
                    f"recorded with:\n{recorded}running:\n{versions()}")
