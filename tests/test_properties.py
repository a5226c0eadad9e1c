"""Property tests: the link carry-over equals the all-pairs link rule, the
link rule's shortcut (the reach test) changes no answer, and a malformed scenario is refused with exit 2, never a traceback; one that
validates runs without raising."""

import copy
import functools
import itertools
import json
import math
import operator
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commplan.cli import main
from commplan.radio import CommParams, linked, quality, update_links
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


def closed_form_reach(params: CommParams) -> float:
    """Distance at which free-space quality falls to the threshold (inf on overflow)."""
    try:
        return params.ref_dist * 10.0 ** ((params.tx_power - params.pl_ref - params.threshold)
                                          / (10.0 * params.path_exponent))
    except OverflowError:
        return math.inf


@st.composite
def radio_params(draw):
    """Valid radio parameters; the threshold is drawn directly or put where the
    reach falls inside the maps. Tiny attenuations, tiny path exponents and
    reaches that overflow are drawn on purpose."""
    tiny = st.sampled_from([5e-324, 1e-300, 1e-12])
    path_exponent = draw(tiny | st.floats(0.05, 6.0))
    attenuation = draw(st.just(0.0) | tiny | st.floats(0.0, 40.0))
    ref_dist = draw(st.sampled_from([1e-3, 0.1, 1.0]) | st.floats(1e-3, 20.0))
    tx_power, pl_ref = draw(st.floats(-50.0, 50.0)), draw(st.floats(0.0, 80.0))
    if draw(st.booleans()):
        threshold = draw(st.floats(-200.0, 50.0))
    else:
        reach = draw(st.floats(0.01, 40.0))
        threshold = (tx_power - pl_ref
                     - 10.0 * path_exponent * math.log10(max(reach, ref_dist / 10) / ref_dist))
    return CommParams(tx_power, pl_ref, ref_dist, path_exponent, attenuation, threshold)


def map_point(grid):
    return st.builds(Position, st.floats(0.0, grid.width_m, exclude_max=True),
                     st.floats(0.0, grid.height_m, exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(GRIDS)), radio_params(), st.data())
def test_linked_is_quality_above_the_threshold(name, params, data):
    grid = GRIDS[name]
    a, b = data.draw(map_point(grid)), data.draw(map_point(grid))
    assert linked(a, b, grid, params) == (quality(a, b, grid, params) > params.threshold)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(GRIDS)), radio_params(), st.data(),
       st.floats(0.0, 2 * math.pi), st.sampled_from([1 - 1e-12, 1.0, 1 + 1e-12]))
def test_linked_at_the_reach(name, params, data, angle, scale):
    """Pairs a hair inside, at and a hair beyond the free-space reach."""
    grid = GRIDS[name]
    a = data.draw(map_point(grid))
    dist = closed_form_reach(params) * scale
    b = Position(a.x + dist * math.cos(angle), a.y + dist * math.sin(angle))
    assume(grid.contains(b))
    assert linked(a, b, grid, params) == (quality(a, b, grid, params) > params.threshold)


def test_an_overflowing_reach_refuses_nothing():
    params = CommParams(path_exponent=1e-300)
    assert closed_form_reach(params) == math.inf and params._reach_sq == math.inf
    grid = GRIDS["subt.map"]
    a, b = Position(0.5, 0.5), Position(grid.width_m - 0.5, grid.height_m - 0.5)
    assert linked(a, b, grid, params) == (quality(a, b, grid, params) > params.threshold)


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
