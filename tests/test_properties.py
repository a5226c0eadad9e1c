"""Property tests: the link carry-over equals the all-pairs link rule, and a
malformed scenario is refused with exit 2, never a traceback; one that
validates runs without raising."""

import copy
import functools
import itertools
import json
import operator
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
    links = set()
    for moves in [pos] + steps:  # first, every agent moves to its start
        pos = {**pos, **moves}
        links = update_links(links, sorted(moves), pos, grid, params)
        assert links == {(a, b) for a, b in itertools.combinations(sorted(pos), 2)
                         if linked(pos[a], pos[b], grid, params)}


DESK = {**json.loads((DATA / "desk_scenario.json").read_text()),
        "map": str(DATA / "desk.map"), "horizon": 20.0}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(10 ** 300, 10 ** 400)
    | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)


def _paths(value, path=()):
    """(values, objects): the paths to every value below the root of a JSON
    document (leaves, objects and lists alike), and to every object in it."""
    values, objects = [], [path] if isinstance(value, dict) else []
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        child_values, child_objects = _paths(child, path + (key,))
        values += [path + (key,)] + child_values
        objects += child_objects
    return values, objects


DESK_VALUES, DESK_OBJECTS = _paths(DESK)


@st.composite
def corrupted_desk(draw):
    """The desk document with one value at any depth (a whole section, a list
    item or a leaf) replaced by any JSON value, or with one unknown key added
    to one of its objects; and whether the key was added."""
    doc = copy.deepcopy(DESK)
    unknown = draw(st.integers(0, 3)) == 0
    if unknown:
        target = functools.reduce(operator.getitem, draw(st.sampled_from(DESK_OBJECTS)), doc)
        key = "~" + draw(st.text(max_size=7))  # no section knows a key that starts with ~
    else:
        *outer, key = draw(st.sampled_from(DESK_VALUES))
        target = functools.reduce(operator.getitem, outer, doc)
    # Plausible numbers as well, so that some corrupted documents validate and run.
    target[key] = draw(JSON_VALUES | st.floats(-5.0, 100.0) | st.integers(-2, 100))
    return doc, unknown


@settings(max_examples=60, deadline=None)
@given(corrupted_desk())
def test_malformed_field_is_refused_not_raised(tmp_path_factory, case):
    doc, unknown = case
    path = tmp_path_factory.mktemp("malformed") / "scenario.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", str(path)])
    assert code == 2 if unknown else code in (0, 2)
    if code == 0:  # it runs without raising, on 20 s even if the horizon was replaced
        path.write_text(json.dumps({**doc, "horizon": 20.0}))
        assert main(["run", str(path)]) in (0, 3)
