"""``tools/grid_per_n.py`` on a short decode: both routes timed, rows equal."""

import sys
from pathlib import Path

from chmmtrade import inference

_TOOLS = str(Path(__file__).resolve().parent.parent / "tools")
sys.path.insert(0, _TOOLS)
try:
    import grid_per_n
finally:
    sys.path.remove(_TOOLS)


def test_both_routes_are_timed_on_one_fitted_decode():
    loop_s, grid_s, share = grid_per_n.time_routes(2, 42, 1_500, 1)  # raises if the rows differ
    assert loop_s > 0.0 and grid_s > 0.0 and 0.5 < share <= 1.0


def test_ungated_runs_time_the_grid_route_past_the_gate(monkeypatch, capsys):
    monkeypatch.setattr(inference, "_GRID_MAX_STATES", inference._GRID_MAX_STATES)
    grid_per_n.main(["--states", "10", "--seeds", "1", "--steps", "400", "--rounds", "1", "--ungated"])
    assert inference._GRID_MAX_STATES == 10
    line = capsys.readouterr().out
    assert line.startswith("N=10 seed=  1") and float(line.split("on grid")[1]) > 0.0
