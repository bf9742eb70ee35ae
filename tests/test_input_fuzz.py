"""Arbitrary input files end in a typed error, never in a traceback."""
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paces import (ConfigError, ModelError, load_config,
                   load_event_script, load_historical_load_csv,
                   load_price_csv, serialize)
from paces.cli import _load_scenario_file, main

# the two error classes the command line maps to exit 2
EXIT_2_ERRORS = (ConfigError, ModelError)
FUZZ = settings(max_examples=60, deadline=None)


def motivating_raw():
    raw = serialize(load_config("motivating-example"))
    raw["solver"] = {"state_cap": 5000}
    return raw


VALID = {
    "config": json.dumps(motivating_raw()).encode(),
    "script": b'{"events": [{"appliance_id": "beta", "slot": 2}]}',
    "scenarios": b"[[2], [3], [null]]",
    "price": b"slot,price\n1,0.05\n2,0.05\n3,0.04\n4,0.03\n",
    "history": b"timestamp,load_w\nt0,30000\nt1,40000\n",
}


@st.composite
def mutated(draw, data):
    """``data`` cut short or with a few bytes overwritten."""
    data = bytearray(data)
    if draw(st.booleans()):
        return bytes(data[:draw(st.integers(0, len(data)))])
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data) - 1))
        data[at] = draw(st.integers(0, 255))
    return bytes(data)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


def documents(kind):
    return st.one_of(st.binary(max_size=300),
                     json_values.map(lambda v: json.dumps(v).encode()),
                     mutated(VALID[kind]))


def fuzzed_file(data, name):
    tmp = tempfile.TemporaryDirectory()
    path = Path(tmp.name) / name
    path.write_bytes(data)
    return tmp, path


READERS = {
    "config": load_config,
    "script": load_event_script,
    "scenarios": lambda path: _load_scenario_file(
        path, load_config("motivating-example").instance.ns_appliances),
    "price": lambda path: load_price_csv(path, 4),
    "history": load_historical_load_csv,
}


@pytest.mark.parametrize("kind", sorted(READERS))
def test_valid_inputs_parse(kind):
    tmp, path = fuzzed_file(VALID[kind], f"{kind}.in")
    with tmp:
        READERS[kind](path)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_arbitrary_bytes_parse_or_raise_a_config_error(kind):
    @FUZZ
    @given(data=documents(kind))
    def check(data):
        tmp, path = fuzzed_file(data, f"{kind}.in")
        with tmp:
            try:
                READERS[kind](path)
            except EXIT_2_ERRORS:
                pass

    check()


def motivating_dump() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        assert main(["build-table", "--config", "motivating-example",
                     "--out", str(path)]) == 0
        return path.read_bytes()


@FUZZ
@given(data=st.one_of(st.binary(max_size=300),
                      json_values.map(lambda v: json.dumps(v).encode()),
                      st.deferred(lambda: mutated(motivating_dump()))))
def test_arbitrary_table_dumps_replay_or_exit_4(data):
    tmp, path = fuzzed_file(data, "table.json")
    with tmp:
        code = main(["simulate", "--table", str(path),
                     "--config", "motivating-example"])
    assert code in (0, 4)


def numeric_paths(node, prefix=()):
    """Paths to every int or float leaf of a JSON-like mapping."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from numeric_paths(value, prefix + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield prefix + (key,)


NUMERIC_PATHS = list(numeric_paths(motivating_raw()))
EXTREME_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 1e308,
                                  -1e308, 0.0, 1e-300])


@settings(FUZZ, deadline=10_000)
@given(where=st.sampled_from(NUMERIC_PATHS),
       value=st.one_of(EXTREME_FLOATS,
                       st.floats(-1e6, 1e6, allow_nan=False)))
def test_one_wild_number_exits_0_2_or_3(where, value):
    raw = motivating_raw()
    node = raw
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "wild.json"
        config.write_text(json.dumps(raw))
        code = main(["solve", "--config", str(config),
                     "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
