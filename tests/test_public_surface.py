"""The package's public surface matches what it documents: every exported
name resolves, and README's library example runs as written."""
from __future__ import annotations

import math
import re
from pathlib import Path

import fairsample

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert len(set(fairsample.__all__)) == len(fairsample.__all__)
    missing = [name for name in fairsample.__all__ if not hasattr(fairsample, name)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    printed = capsys.readouterr().out.split()
    # mcc, di_ratio and combined_loss; each a float or None when undefined
    assert len(printed) == 3
    for value in printed:
        assert value == "None" or math.isfinite(float(value))
