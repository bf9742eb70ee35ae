"""End-to-end command-line behavior and exit codes."""
import base64
import csv
import functools
import hashlib
import json
import pickle
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paces import (IntegrityError, backward_recursion, load_config,
                   open_table, serialize)
from paces.cli import main

# a dump's arrays in body-hash order, and the motivating example's shape:
# 4 slots x 12 remaining-work vectors x 3 battery levels
DUMP_DTYPES = {"values": "<f8", "dec_mask": "<i4", "dec_step": "<i4"}
MOTIVATING_SHAPE = (4, 12, 3)


def decode_arrays(payload):
    return {name: np.frombuffer(base64.b64decode(payload[name]), dtype)
            .reshape(MOTIVATING_SHAPE).copy()
            for name, dtype in DUMP_DTYPES.items()}


def encode_arrays(payload, arrays):
    for name, dtype in DUMP_DTYPES.items():
        raw = arrays[name].astype(dtype).tobytes()
        payload[name] = base64.b64encode(raw).decode("ascii")


def resigned(edit):
    """A dump edit that changes the decoded arrays and then writes them
    back with a matching ``body_sha256``, so only the checks after the
    body hash can refuse it."""
    def apply(payload):
        arrays = decode_arrays(payload)
        edit(arrays)
        encode_arrays(payload, arrays)
        body = b"".join(base64.b64decode(payload[name])
                        for name in DUMP_DTYPES)
        payload["body_sha256"] = hashlib.sha256(body).hexdigest()
    return apply


# in-range edits of a motivating-example dump that only the replay sees
def never_start(arrays):
    arrays["dec_mask"][:] = 0
    arrays["dec_step"][:] = 0


def drain_in_the_last_slot(arrays):
    arrays["dec_step"][-1] = -1


def always_start_the_first(arrays):
    mask = arrays["dec_mask"]
    mask[mask >= 0] = 1


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPresetsCommand:
    def test_lists_every_preset(self, capsys):
        code, out, err = run(capsys, "presets")
        assert code == 0
        for name in ("section-iv-a", "motivating-example", "table-ii"):
            assert name in out
        assert err == ""


class TestSolveCommand:
    def test_writes_the_three_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, out, _ = run(capsys, "solve", "--config", "motivating-example",
                           "--out", str(out_dir))
        assert code == 0
        assert "solved in 2 table builds" in out
        solution = json.loads((out_dir / "solution.json").read_text())
        assert solution["config_name"] == "motivating-example"
        assert solution["controllable_cost"] == pytest.approx(8.5, abs=1e-9)
        assert solution["expected_total_cost"] == pytest.approx(9.25,
                                                                abs=1e-9)
        assert solution["omega"] == [[3]]
        assert solution["appliance_starts"] == {"alpha1": 3, "alpha2": 2}
        assert len(solution["slots"]) == 4
        trace = json.loads((out_dir / "trace.json").read_text())
        assert len(trace["records"]) == 2
        assert trace["final_scenario"] == [3]
        assert trace["capped"] is False
        report = (out_dir / "report.csv").read_text().splitlines()
        assert report[0].startswith("slot,price_per_wh,")
        assert len(report) == 5

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "solve", "--config", "motivating-example",
                   "--out", str(first))[0] == 0
        assert run(capsys, "solve", "--config", "motivating-example",
                   "--out", str(second))[0] == 0
        for name in ("solution.json", "trace.json", "report.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_optional_table_dump(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        table = tmp_path / "final.table"
        code, _, _ = run(capsys, "solve", "--config", "motivating-example",
                         "--out", str(out_dir), "--table", str(table))
        assert code == 0
        assert table.exists()
        code, out, _ = run(capsys, "simulate", "--table", str(table),
                           "--config", "motivating-example")
        assert code == 0
        assert "breaches 0" in out

    # SHA-256 of each preset's `solve --table` dump, of its `solve` report
    # and of a sampled replay of the dump. The dump digest shows a change
    # to the backward pass that moves a single value, decision or tie;
    # the replay digest pins the non-schedulable load path of the replay
    DIGESTS = {
        "motivating-example": (
            "16f54178471b22051f8ada0fedfb4947354bfa33bf2fae77ad0a4cf0ce4a2f6e",
            "89111a09c462eeb773d74f4e3e2d27fb8231512dd4744de1231ba28622e85d27",
            "405590138b8b22eeb429d32d7406c700281cfd0b9dd98aff58ea5dfb96e1ac7a"),
        "table-ii": (
            "6763bafca8a30f3fd83a119436b13f1b6445522e9b00114186d0a45fc39141dc",
            "a5c787633fbdd718c98c1763f9d7fd08a57ff81c5e55754298577b11c404730b",
            "5990bd4a0311ac4009c88d0490d1b98e59f4924139af11b82300ca0ee0220453"),
        "section-iv-a": (
            "17d85a7412a90422899b8494bf323b3a45e7158ce2a5e695fc1d1c668911987c",
            "96737fe1cd89c1ad4c1725140a04e532994141e39b9eeeaa4de1b633647e498b",
            "bd86d6b3282905cf855a4b604cff1709137ba65205fa1c9dace88216bab005c9"),
    }

    @pytest.mark.parametrize("preset", sorted(DIGESTS))
    def test_table_dumps_keep_their_bytes(self, tmp_path, capsys, preset):
        table = tmp_path / "final.table"
        code, _, _ = run(capsys, "solve", "--config", preset,
                         "--out", str(tmp_path / "run"), "--table", str(table))
        assert code == 0
        dump_digest, report_digest, replay_digest = self.DIGESTS[preset]
        assert hashlib.sha256(table.read_bytes()).hexdigest() == dump_digest
        replay = tmp_path / "replay.csv"
        code, _, _ = run(capsys, "simulate", "--table", str(table),
                         "--config", preset, "--sample-seed", "0",
                         "--out", str(replay))
        assert code == 0
        report = tmp_path / "run" / "report.csv"
        assert hashlib.sha256(report.read_bytes()).hexdigest() == report_digest
        assert hashlib.sha256(replay.read_bytes()).hexdigest() == replay_digest

    def test_unknown_configs_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "solve", "--config", "no-such-thing",
                           "--out", str(tmp_path / "x"))
        assert code == 2
        assert "neither a file nor a preset" in err

    def test_infeasible_bounds_exit_3(self, tmp_path, capsys):
        raw = serialize(load_config("motivating-example"))
        raw["privacy"]["lambda"] = 1000.0
        cfg = tmp_path / "tight.json"
        cfg.write_text(json.dumps(raw))
        code, _, err = run(capsys, "solve", "--config", str(cfg),
                           "--out", str(tmp_path / "x"))
        assert code == 3
        assert "privacy bound unattainable" in err


class TestBuildAndSimulate:
    def build(self, capsys, tmp_path, *extra):
        table = tmp_path / "table.json"
        code, out, err = run(capsys, "build-table", "--config",
                             "motivating-example", "--out", str(table),
                             *extra)
        assert code == 0, err
        return table, out

    def test_build_reports_the_grid_size(self, tmp_path, capsys):
        table, out = self.build(capsys, tmp_path)
        assert "table written to" in out
        assert "x 4 slots" in out
        assert "|omega|=1" in out
        assert table.read_text().startswith("{")

    def test_quiet_replay_of_a_built_table(self, tmp_path, capsys):
        table, _ = self.build(capsys, tmp_path)
        code, out, _ = run(capsys, "simulate", "--table", str(table),
                           "--config", "motivating-example")
        assert code == 0
        assert "events: none" in out
        assert "breaches 0" in out

    def test_scripted_replay_writes_a_report(self, tmp_path, capsys):
        scenarios = tmp_path / "omega.json"
        scenarios.write_text(json.dumps([[None], [2], [3]]))
        table, _ = self.build(capsys, tmp_path, "--scenarios",
                              str(scenarios))
        script = tmp_path / "script.json"
        script.write_text(json.dumps(
            {"events": [{"appliance_id": "beta", "slot": 3}]}))
        report = tmp_path / "report.csv"
        code, out, _ = run(capsys, "simulate", "--table", str(table),
                           "--config", "motivating-example",
                           "--script", str(script), "--out", str(report))
        assert code == 0
        assert "beta@3" in out
        assert "breaches 0" in out
        lines = report.read_text().splitlines()
        assert lines[0].startswith("slot,")
        assert len(lines) == 5

    def test_sampled_replay_is_deterministic(self, tmp_path, capsys):
        table, _ = self.build(capsys, tmp_path)
        first = run(capsys, "simulate", "--table", str(table),
                    "--config", "motivating-example", "--sample-seed", "5")
        second = run(capsys, "simulate", "--table", str(table),
                     "--config", "motivating-example", "--sample-seed", "5")
        assert first == second
        assert first[0] == 0

    def test_missing_tables_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--table",
                           str(tmp_path / "nope.json"),
                           "--config", "motivating-example")
        assert code == 2
        assert "table file not found" in err

    def test_simulate_decodes_the_dump_once(self, tmp_path, capsys,
                                            monkeypatch):
        table, _ = self.build(capsys, tmp_path)
        text = table.read_text()
        loads, decoded = json.loads, []

        def counting_loads(s, *args, **kwargs):
            if s == text:
                decoded.append(s)
            return loads(s, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        code, _, err = run(capsys, "simulate", "--table", str(table),
                           "--config", "motivating-example")
        assert code == 0, err
        assert len(decoded) == 1

    # each header field the dump is bound under, made unusable for the
    # motivating example (one usage appliance, a one-row base set)
    @pytest.mark.parametrize("field, value", [
        ("omega", 5),
        ("omega", [[None, None]]),
        ("weights", [0.5, 0.5]),
        ("objective_mode", "cheapest"),
    ], ids=["omega-not-a-list", "omega-row-too-long", "weights-too-many",
            "unknown-objective"])
    def test_headers_that_do_not_fit_the_model_exit_4(self, tmp_path, capsys,
                                                       field, value):
        code, _, err = self.simulate_corrupted(
            capsys, tmp_path, lambda payload: payload.update({field: value}))
        assert code == 4
        assert "table header does not fit this model" in err
        with pytest.raises(IntegrityError,
                           match="table header does not fit this model"):
            open_table(str(tmp_path / "table.json"),
                       load_config("motivating-example").instance)

    def test_tampered_tables_exit_4(self, tmp_path, capsys):
        table, _ = self.build(capsys, tmp_path)
        payload = json.loads(table.read_text())
        payload["model_hash"] = "0" * 64
        table.write_text(json.dumps(payload))
        code, _, err = run(capsys, "simulate", "--table", str(table),
                           "--config", "motivating-example")
        assert code == 4
        assert "different model" in err

    def simulate_corrupted(self, capsys, tmp_path, corrupt):
        table, _ = self.build(capsys, tmp_path)
        payload = json.loads(table.read_text())
        corrupt(payload)
        table.write_text(json.dumps(payload))
        return run(capsys, "simulate", "--table", str(table),
                   "--config", "motivating-example")

    def test_truncated_tables_exit_4(self, tmp_path, capsys):
        def cut_last_slot(payload):
            for key in DUMP_DTYPES:
                raw = base64.b64decode(payload[key])
                payload[key] = base64.b64encode(raw[:len(raw) * 3 // 4]).decode()

        code, _, err = self.simulate_corrupted(capsys, tmp_path,
                                               cut_last_slot)
        assert code == 4
        assert "expected shape (4, 12, 3)" in err

    def test_ragged_tables_exit_4(self, tmp_path, capsys):
        def drop_one_cell(payload):
            raw = base64.b64decode(payload["dec_step"])
            payload["dec_step"] = base64.b64encode(raw[:-4]).decode()

        code, _, err = self.simulate_corrupted(capsys, tmp_path,
                                               drop_one_cell)
        assert code == 4
        assert "dec_step holds 572 bytes, expected shape (4, 12, 3)" in err

    def test_non_base64_arrays_exit_4(self, tmp_path, capsys):
        def spoil(payload):
            payload["dec_mask"] = payload["dec_mask"][:-4] + "!!!!"

        code, _, err = self.simulate_corrupted(capsys, tmp_path, spoil)
        assert code == 4
        assert "dec_mask is not base64" in err

    def test_version_1_dumps_exit_4(self, tmp_path, capsys):
        def downgrade(payload):
            payload["version"] = 1

        code, _, err = self.simulate_corrupted(capsys, tmp_path, downgrade)
        assert code == 4
        assert "table version 1 unsupported, expected 2" in err

    def test_edited_bodies_exit_4(self, tmp_path, capsys):
        # start both appliances and charge at slot 1: every cell stays in
        # range and the walk completes, so only the body hash sees it
        def breach_at_slot_1(arrays):
            arrays["dec_mask"][0, 11, 0] = 3
            arrays["dec_step"][0, 11, 0] = 1

        def unsigned(payload):
            arrays = decode_arrays(payload)
            breach_at_slot_1(arrays)
            encode_arrays(payload, arrays)

        code, _, err = self.simulate_corrupted(capsys, tmp_path, unsigned)
        assert code == 4
        assert "does not match its body_sha256" in err
        # the hash detects edits, it does not authenticate them: the same
        # edit with a recomputed hash replays, breach and all
        code, out, _ = self.simulate_corrupted(capsys, tmp_path,
                                               resigned(breach_at_slot_1))
        assert code == 0
        assert "max |gap| 45000.0 W, breaches 1" in out

    # the replay itself must refuse a decision it cannot apply or a
    # schedule it cannot finish, even in a dump whose body hash matches
    @pytest.mark.parametrize("corrupt, message", [
        (never_start, "unfinished work"),
        (drain_in_the_last_slot, "slot 4 moves the battery to -10000.0 Wh"),
        (always_start_the_first,
         "cannot start an appliance with 1 of 2 slots remaining"),
    ], ids=["never-start", "drain-below-empty", "restart"])
    def test_unreplayable_dumps_exit_4(self, tmp_path, capsys, corrupt,
                                       message):
        code, _, err = self.simulate_corrupted(capsys, tmp_path,
                                               resigned(corrupt))
        assert code == 4
        assert "integrity error" in err
        assert message in err

    def test_crafted_pickles_exit_4_without_being_unpickled(self, tmp_path,
                                                            capsys):
        class Exploit:
            def __init__(self, marker):
                self.marker = marker

            def __reduce__(self):
                return open, (str(self.marker), "w")

        probe = tmp_path / "probe"
        pickle.loads(pickle.dumps(Exploit(probe))).close()
        assert probe.exists()  # the payload runs when unpickled

        marker = tmp_path / "marker"
        table = tmp_path / "table.bin"
        table.write_bytes(pickle.dumps(Exploit(marker)))
        code, _, err = run(capsys, "simulate", "--table", str(table),
                           "--config", "motivating-example")
        assert code == 4
        assert "not a schedule-table dump" in err
        assert not marker.exists()

    def test_malformed_scenario_files_exit_2(self, tmp_path, capsys):
        scenarios = tmp_path / "omega.json"
        scenarios.write_text(json.dumps([[2, 7]]))
        code, _, err = run(capsys, "build-table", "--config",
                           "motivating-example", "--out",
                           str(tmp_path / "t.json"),
                           "--scenarios", str(scenarios))
        assert code == 2
        assert "must hold 1 start slots" in err

    # beta runs one slot in zone [2, 3], so it can start at 2 or 3
    @pytest.mark.parametrize("rows, code", [
        ([[99]], 2), ([[0]], 2), ([[True]], 2), ([[3]], 0), ([[None]], 0),
    ], ids=["past-the-zone", "before-the-zone", "bool", "in-zone", "inactive"])
    def test_scenario_starts_must_fit_the_zone(self, tmp_path, capsys, rows,
                                               code):
        scenarios = tmp_path / "omega.json"
        scenarios.write_text(json.dumps(rows))
        got, _, err = run(capsys, "build-table", "--config",
                          "motivating-example", "--out",
                          str(tmp_path / "t.json"),
                          "--scenarios", str(scenarios))
        assert got == code
        if code == 2:
            assert "row 0 must hold 1 start slots" in err


    def test_deeply_nested_dumps_exit_4(self, tmp_path, capsys):
        table = tmp_path / "deep.json"
        table.write_text("[" * 200_000)
        code, _, err = run(capsys, "simulate", "--table", str(table),
                           "--config", "motivating-example")
        assert code == 4
        assert "not a schedule-table dump" in err


@functools.cache
def motivating_dump() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        assert main(["build-table", "--config", "motivating-example",
                     "--out", str(path)]) == 0
        return path.read_text()


# the loader's ranges for the motivating example: two appliances, and
# battery moves of at most one 10,000 Wh step
IN_RANGE = {"values": st.floats(allow_nan=False),
            "dec_mask": st.integers(-1, 3), "dec_step": st.integers(-1, 1)}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_one_cell_in_range_edit_exits_4(data):
    name = data.draw(st.sampled_from(sorted(DUMP_DTYPES)))
    cell = tuple(data.draw(st.integers(0, n - 1)) for n in MOTIVATING_SHAPE)
    payload = json.loads(motivating_dump())
    arrays = decode_arrays(payload)
    old = arrays[name][cell].tobytes()
    arrays[name][cell] = data.draw(IN_RANGE[name])
    assume(arrays[name][cell].tobytes() != old)
    encode_arrays(payload, arrays)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        path.write_text(json.dumps(payload))
        code = main(["simulate", "--table", str(path),
                     "--config", "motivating-example"])
    assert code == 4


def test_the_documented_dump_is_what_build_table_writes(tmp_path, capsys):
    docs = (Path(__file__).parent.parent / "docs" / "formats.md").read_text(
        encoding="utf-8")
    section = docs.split("## Schedule table dump\n")[1].split("\n## ")[0]
    dump, config = [block.split("\n```")[0]
                    for block in section.split("```json\n")[1:3]]
    (tmp_path / "config.json").write_text(config)
    code, _, err = run(capsys, "build-table", "--config",
                       str(tmp_path / "config.json"),
                       "--out", str(tmp_path / "table.json"))
    assert code == 0, err
    assert (tmp_path / "table.json").read_bytes() == (dump + "\n").encode()


NOT_UTF8 = b"\xff\xfe{"
DEEP = b"[" * 200_000


def config_file(tmp_path, data):
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    return ["solve", "--config", str(path), "--out", str(tmp_path / "o")]


def event_script(tmp_path, data):
    table = tmp_path / "t.json"
    assert main(["build-table", "--config", "motivating-example",
                 "--out", str(table)]) == 0
    script = tmp_path / "script.json"
    script.write_bytes(data)
    return ["simulate", "--table", str(table), "--config",
            "motivating-example", "--script", str(script)]


def scenario_file(tmp_path, data):
    path = tmp_path / "omega.json"
    path.write_bytes(data)
    return ["build-table", "--config", "motivating-example",
            "--out", str(tmp_path / "t.json"), "--scenarios", str(path)]


def csv_config(tmp_path, section, key, name, data):
    (tmp_path / name).write_bytes(data)
    raw = serialize(load_config("motivating-example"))
    if section == "price":
        raw["price"] = {key: name}
    else:
        raw["privacy"] = {"lambda": 40000, key: name}
    return config_file(tmp_path, json.dumps(raw).encode())


def history_csv(tmp_path, data):
    return csv_config(tmp_path, "privacy", "reference_csv", "history.csv",
                      data)


def price_csv(tmp_path, data):
    return csv_config(tmp_path, "price", "csv", "price.csv", data)


class TestUnreadableInputs:
    @pytest.mark.parametrize("make_argv, data", [
        (config_file, NOT_UTF8),
        (config_file, DEEP),
        (event_script, NOT_UTF8),
        (event_script, DEEP),
        (scenario_file, NOT_UTF8),
        (history_csv, b"timestamp,load_w\n1,\xff\n"),
        (price_csv, b'slot,price\n1,"' + b"0" * 200_000 + b'"\n'),
    ], ids=["config-not-utf8", "config-deep", "script-not-utf8",
            "script-deep", "scenarios-not-utf8", "history-not-utf8",
            "price-huge-field"])
    def test_exit_2(self, tmp_path, capsys, make_argv, data):
        code, _, err = run(capsys, *make_argv(tmp_path, data))
        assert code == 2
        assert err.startswith("config error: ")

    @pytest.mark.parametrize("section, key", [("battery", "capacity"),
                                              ("privacy", "lambda")])
    def test_infinite_model_values_exit_2(self, tmp_path, capsys, section,
                                          key):
        raw = serialize(load_config("section-iv-a"))
        raw[section][key] = float("inf")
        argv = config_file(tmp_path, json.dumps(raw).encode())
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "must be finite" in err
        assert not (tmp_path / "o" / "trace.json").exists()


class TestHugeNumbers:
    @pytest.mark.parametrize("edit, code", [
        (lambda raw: raw["price"]["values"].__setitem__(1, 1e308), 2),
        (lambda raw: raw["grid"].__setitem__("slot_hours", 1e308), 2),
        (lambda raw: raw["price"]["values"].__setitem__(1, 1e300), 0),
    ], ids=["price-1e308", "slot-hours-1e308", "price-1e300"])
    def test_overflowing_configs_exit_2(self, tmp_path, capsys, edit, code):
        raw = serialize(load_config("motivating-example"))
        edit(raw)
        got, out, err = run(capsys, *config_file(
            tmp_path, json.dumps(raw).encode()))
        assert got == code
        if code:
            assert err.startswith("config error: ")
            assert "overflows" in err
        else:
            assert "controllable cost 3.0000000000000003e+304" in out

    # the lambda probe then nears 1e308, where the band's bounds overflow
    # to inf; that is exact, so it must not warn, and the build count is
    # the bisection's own
    @pytest.mark.parametrize("section, builds", [
        ("ns_appliances", 6), ("appliances", 5),
    ])
    def test_a_1e308_power_exits_3_without_warnings(self, tmp_path, capsys,
                                                     monkeypatch, section,
                                                     builds):
        raw = serialize(load_config("motivating-example"))
        raw[section][0]["power"] = 1e308
        calls = []
        monkeypatch.setattr(
            "paces.scenarios.backward_recursion",
            lambda config: calls.append(1) or backward_recursion(config))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(capsys, *config_file(
                tmp_path, json.dumps(raw).encode()))
        assert code == 3
        assert err == (
            "infeasible: privacy bound unattainable: lambda=40000.0 W is "
            "infeasible for the current scenario set, smallest feasible is "
            "about 1e+308 W\n")
        assert len(calls) == builds


class TestSweepCommand:
    def read(self, path):
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    def test_writes_the_capacity_curve(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, text, _ = run(capsys, "sweep", "--config", "motivating-example",
                            "--capacities", "10000,20000,30000",
                            "--out", str(out))
        assert code == 0
        assert "sweep written to" in text
        with open(out) as fh:
            assert fh.readline().rstrip("\n") == (
                "capacity_wh,feasible,controllable_cost,"
                "expected_total_cost,solves,message")
        rows = self.read(out)
        assert [r["capacity_wh"] for r in rows] == ["10000.0", "20000.0",
                                                    "30000.0"]
        assert all(r["feasible"] == "1" for r in rows)
        totals = [float(r["expected_total_cost"]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))

    def test_usage_free_curve_never_costs_more(self, tmp_path, capsys):
        with_ns = tmp_path / "with.csv"
        without = tmp_path / "without.csv"
        run(capsys, "sweep", "--config", "motivating-example",
            "--capacities", "10000,20000", "--out", str(with_ns))
        run(capsys, "sweep", "--config", "motivating-example",
            "--capacities", "10000,20000", "--out", str(without), "--no-ns")
        paired = zip(self.read(with_ns), self.read(without))
        for full_row, bare_row in paired:
            assert (float(bare_row["expected_total_cost"])
                    <= float(full_row["expected_total_cost"]) + 1e-12)

    def test_malformed_capacity_lists_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "sweep", "--config", "motivating-example",
                           "--capacities", "10000,abc",
                           "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "comma-separated numbers" in err

    @pytest.mark.parametrize("capacities", ["0,nan", "0,inf"])
    def test_non_finite_capacities_exit_2(self, tmp_path, capsys, capacities):
        code, _, err = run(capsys, "sweep", "--config", "section-iv-a",
                           "--capacities", capacities,
                           "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "is not a finite number" in err


class TestVerifyCommand:
    def test_solver_matches_the_oracle(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "7", "--count", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "MATCH"
        assert all("MATCH" in line for line in lines[:-1])


class TestUsageErrors:
    def test_unknown_subcommands_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["nonsense"])
        assert err.value.code == 2

    def test_a_subcommand_is_required(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
