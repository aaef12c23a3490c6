"""The demos run to the end against the current API.

Demo 06 is left out: it trains for 200 steps, which takes 7-8 s on two
cores of a Xeon against about 0.5 s for demos 01-05 together, most of which
is importing physkit. CI's numpy-only job runs it.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0[1-5]_*.py"))


def test_demos_one_to_five_are_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs_to_the_end(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
