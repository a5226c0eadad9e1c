"""Property tests: the link carry-over equals the all-pairs link rule, and a
malformed scenario is refused with exit 2, never a traceback."""

import itertools
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from commplan.cli import main
from commplan.radio import CommParams, linked, update_links
from commplan.workspace import Position, load_grid

DATA = Path(__file__).parent / "data"
GRIDS = {name: load_grid(DATA / name) for name in ("desk.map", "subt.map")}


@st.composite
def moving_agents(draw):
    """A map, start positions, and steps that each move a random subset of agents."""
    grid = GRIDS[draw(st.sampled_from(sorted(GRIDS)))]
    point = st.builds(Position,
                      st.floats(0.0, grid.width_m, exclude_max=True),
                      st.floats(0.0, grid.height_m, exclude_max=True))
    n = draw(st.integers(2, 6))
    start = dict(enumerate(draw(st.lists(point, min_size=n, max_size=n))))
    steps = draw(st.lists(st.dictionaries(st.integers(0, n - 1), point, max_size=n),
                          min_size=1, max_size=6))
    return grid, start, steps


@settings(max_examples=60, deadline=None)
@given(moving_agents(), st.sampled_from([-40.0, -45.0]))
def test_update_links_equals_all_pairs_links(case, threshold):
    grid, pos, steps = case
    params = CommParams(threshold=threshold)
    links, prev_pos = set(), {}
    for moves in [{}] + steps:
        pos = {**pos, **moves}
        links = update_links(links, prev_pos, pos, grid, params)
        prev_pos = pos
        assert links == {(a, b) for a, b in itertools.combinations(sorted(pos), 2)
                         if linked(pos[a], pos[b], grid, params)}


DESK = json.loads((DATA / "desk_scenario.json").read_text())
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(10 ** 300, 10 ** 400)
    | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(DESK)), JSON_VALUES)
def test_malformed_top_level_field_is_refused_not_raised(tmp_path_factory, field, value):
    raw = {**DESK, "map": str(DATA / "desk.map"), field: value}
    path = tmp_path_factory.mktemp("malformed") / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) in (0, 2)
