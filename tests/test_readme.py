"""README quotes the solver's and the Monte Carlo's tuning constants; each
quote must be the code's value, so a retuned constant cannot leave its
documentation behind."""

import re
from pathlib import Path

import pytest

from oilopt import simulate, solver

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module, name, value", [
    (solver, "SWEEP_BLOCK_BYTES", 337_680),
    (solver, "_JUMP_BAND_ROWS", 32),
    (simulate, "BATCH_PATHS", 10_000),
    (simulate, "SPLIT_MIN_PATH_STEPS", 200_000),
    (simulate, "NORMAL_BLOCK", 512),
])
def test_readme_quotes_the_code_constant(module, name, value):
    """Every `module.NAME` (number ...) in README carries the code's value."""
    qualified = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
    quoted = re.findall(rf"`{re.escape(qualified)}`\s+\(([\d,]+)", README.read_text())
    assert quoted, f"README quotes no value for {qualified}"
    assert {int(q.replace(",", "")) for q in quoted} == {getattr(module, name)} == {value}
