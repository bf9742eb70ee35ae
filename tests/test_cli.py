"""End-to-end command-line behavior and exit codes."""
import base64
import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import paces
from paces import (EventScript, IntegrityError, ScenarioSet, ScriptedStart,
                   SimulationReport, SlotRecord, SolveConfig,
                   backward_recursion, load_config, load_table, open_table,
                   parse_config, serialize, simulate)
from paces.cli import main
from paces.config import PRESETS

# a dump's arrays in body-hash order, and the motivating example's shape:
# 4 slots x 12 remaining-work vectors x 3 battery levels. Its masks span
# -1..3 (two appliances) and its moves -1..1 step, so both are one byte
DUMP_DTYPES = {"dec_mask": "<i1", "dec_step": "<i1"}
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


def kill_slot_2(arrays):
    # slot 2, remaining (2, 3) is vector 11, at level 0: where slot 1 idles
    arrays["dec_mask"][1, 11, 0] = -1


def revive_a_doomed_cell(arrays):
    # at slot 4 nothing started with (2, 3) to go can finish
    arrays["dec_mask"][3, 11, 0] = 0


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_rows_fit_the_header(path):
    """Every row of a CSV the CLI wrote has its header's column count."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert rows
    assert all(len(row) == len(header) for row in rows), path.name


def usage_error(capsys, *argv):
    """Exit code and stderr of a command line that argparse refuses."""
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    return err.value.code, capsys.readouterr().err


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

    def test_a_dump_replays_under_a_reference_csv_of_the_same_mean(
            self, tmp_path, capsys):
        # the dump is built with the constant l_bar = 35 kW; the history's
        # mean is the same l_bar, so the household is the same model
        table = tmp_path / "final.table"
        code, _, err = run(capsys, "solve", "--config", "motivating-example",
                           "--out", str(tmp_path / "run"),
                           "--table", str(table))
        assert code == 0, err
        (tmp_path / "history.csv").write_text(
            "timestamp,load_w\nt0,30000\nt1,40000\n")
        raw = json.loads(json.dumps(PRESETS["motivating-example"]))
        raw["privacy"] = {"lambda": 40, "reference_csv": "history.csv"}
        cfg = tmp_path / "history.json"
        cfg.write_text(json.dumps(raw))
        reports = []
        for config in ("motivating-example", str(cfg)):
            report = tmp_path / f"replay-{len(reports)}.csv"
            code, out, err = run(capsys, "simulate", "--table", str(table),
                                 "--config", config, "--sample-seed", "0",
                                 "--out", str(report))
            assert code == 0, err
            reports.append((report.read_bytes(), out.splitlines()[1:]))
        assert reports[0] == reports[1]

    # SHA-256 of each preset's `solve --table` dump, of its `solve` report
    # and of a sampled replay of the dump. The dump digest shows a change
    # to the backward pass that moves a single value, decision or tie;
    # the replay digest pins the non-schedulable load path of the replay
    DIGESTS = {
        "motivating-example": (
            "a07bc96e73fa137fcbfec0970534910f15a838338e26b2466f10210077b69248",
            "89111a09c462eeb773d74f4e3e2d27fb8231512dd4744de1231ba28622e85d27",
            "405590138b8b22eeb429d32d7406c700281cfd0b9dd98aff58ea5dfb96e1ac7a"),
        "table-ii": (
            "11e8c5c7e4bdce1337da0b38626bd8e7ab192517e3091cd470e93f6d26882d30",
            "a5c787633fbdd718c98c1763f9d7fd08a57ff81c5e55754298577b11c404730b",
            "5990bd4a0311ac4009c88d0490d1b98e59f4924139af11b82300ca0ee0220453"),
        "section-iv-a": (
            "e5b1d4991c86eb5d1b008876eddce7e51a410d2d574970db5f9404e0eb9f7e58",
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
        sweep = tmp_path / "sweep.csv"
        battery = load_config(preset).instance.battery
        code, _, _ = run(capsys, "sweep", "--config", preset, "--capacities",
                         f"0,{battery.grid_step_wh},{battery.b_max_wh}",
                         "--out", str(sweep))
        assert code == 0
        for path in (report, replay, sweep):
            assert_rows_fit_the_header(path)

    # SHA-256 of `solution.json` then `trace.json` from `solve` on
    # section-iv-a at lambda = 140 W plus three and four 10 W, 2-slot usage
    # appliances in zone [1, 12]: 47,916 and 527,076 placements. The pick
    # among those placements, ties included, is in both files
    USAGE_DIGESTS = {
        5: "1021060d565507625f8b1394759797067f1acea5e4509a0a9d3a6fbad50aca32",
        6: "dc927ea84f769891d392b38678695db28f80697a90b31222b4de527497217cb1",
    }

    @pytest.mark.parametrize("ns_count", sorted(USAGE_DIGESTS),
                             ids=lambda n: f"ns{n}")
    def test_usage_heavy_solves_keep_their_digest(self, tmp_path, capsys,
                                                  ns_count):
        raw = serialize(load_config("section-iv-a"))
        raw["privacy"]["lambda"] = 140.0
        for i in range(3, ns_count + 1):
            raw["ns_appliances"].append({"id": f"ns{i}", "power": 10.0,
                                         "runtime_slots": 2, "zone": [1, 12]})
        cfg = tmp_path / "usage.json"
        cfg.write_text(json.dumps(raw))
        code, _, err = run(capsys, "solve", "--config", str(cfg),
                           "--out", str(tmp_path / "run"))
        assert code == 0, err
        digest = hashlib.sha256()
        for name in ("solution.json", "trace.json"):
            digest.update((tmp_path / "run" / name).read_bytes())
        assert digest.hexdigest() == self.USAGE_DIGESTS[ns_count]

    def test_unknown_configs_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "solve", "--config", "no-such-thing",
                           "--out", str(tmp_path / "x"))
        assert code == 2
        assert "neither a file nor a preset" in err

    def test_a_config_that_repeats_a_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "twice.json"
        cfg.write_text(json.dumps(serialize(load_config("motivating-example")))
                       .replace('"lambda": ', '"lambda": 10.0, "lambda": ', 1))
        code, _, err = run(capsys, "solve", "--config", str(cfg),
                           "--out", str(tmp_path / "x"))
        assert code == 2
        assert "duplicate key 'lambda'" in err

    @pytest.mark.parametrize("field", ["state_cap"])
    def test_integral_float_fields_exit_2(self, tmp_path, capsys, field):
        raw = serialize(load_config("motivating-example"))
        raw["solver"][field] = 3.0
        cfg = tmp_path / "floats.json"
        cfg.write_text(json.dumps(raw))
        code, out, err = run(capsys, "solve", "--config", str(cfg),
                             "--out", str(tmp_path / "x"))
        assert (code, out) == (2, "")
        assert f"/{field}: expected integer, got 3.0" in err

    # keys that older configs carried and that changed no result
    @pytest.mark.parametrize("key, section", [("seed", None),
                                              ("reference_source", "privacy"),
                                              ("metric", "solver")],
                             ids=["seed", "reference_source", "metric"])
    def test_dropped_config_keys_exit_2(self, tmp_path, capsys, key,
                                        section):
        raw = serialize(load_config("motivating-example"))
        (raw[section] if section else raw)[key] = 0
        cfg = tmp_path / "dropped.json"
        cfg.write_text(json.dumps(raw))
        code, out, err = run(capsys, "solve", "--config", str(cfg),
                             "--out", str(tmp_path / "x"))
        assert (code, out) == (2, "")
        assert f"/{section or ''}: unexpected key {key!r}" in err

    # report.csv joins the ids started in a slot with ";" into one
    # unquoted field
    @pytest.mark.parametrize("section", ["appliances", "ns_appliances"])
    @pytest.mark.parametrize("char", [",", ";", '"', "\r", "\n"],
                             ids=["comma", "semicolon", "quote", "cr", "lf"])
    def test_ids_that_would_split_a_report_row_exit_2(self, tmp_path, capsys,
                                                      section, char):
        raw = serialize(load_config("motivating-example"))
        raw[section][0]["id"] = f"alpha{char}1"
        cfg = tmp_path / "ids.json"
        cfg.write_text(json.dumps(raw))
        code, out, err = run(capsys, "solve", "--config", str(cfg),
                             "--out", str(tmp_path / "x"))
        assert (code, out) == (2, "")
        assert f"appliance id {f'alpha{char}1'!r} holds a comma" in err
        assert not (tmp_path / "x").exists()

    def test_infeasible_bounds_exit_3(self, tmp_path, capsys):
        raw = serialize(load_config("motivating-example"))
        raw["privacy"]["lambda"] = 1000.0
        cfg = tmp_path / "tight.json"
        cfg.write_text(json.dumps(raw))
        code, _, err = run(capsys, "solve", "--config", str(cfg),
                           "--out", str(tmp_path / "x"))
        assert code == 3
        assert "privacy bound unattainable" in err


# A 1000 W appliance against a 10 W usage appliance that may or may not
# run in slot 1, under a band just under 6 W wide: every admissible
# battery move sits within a fraction of a micro-watt of the band edge
BAND_EDGE = {
    "name": "band-edge",
    "grid": {"tau": 1, "slot_hours": 1.0},
    "appliances": [{"id": "a", "power": 1000.0, "workload": 1000.0,
                    "duration_slots": 1}],
    "ns_appliances": [{"id": "n", "power": 10.0, "runtime_slots": 1,
                       "zone": [1, 1]}],
    "battery": {"capacity": 1016.0, "initial": 1016.0,
                "discharge_max": 1016.0, "charge_max": 1016.0,
                "grid_step": 1.0},
    "price": {"values": [0.0]},
    "privacy": {"lambda": 5.9999995, "reference": 0.0},
    "solver": {"include_inactive": True},
}


class TestBandEdge:
    """The solver admits a move by the same band test that the refinement
    loop's stop and the replay's breach apply."""

    def config(self, tmp_path, mode):
        raw = json.loads(json.dumps(BAND_EDGE))
        raw["solver"]["mode"] = mode
        cfg = tmp_path / f"{mode}.json"
        cfg.write_text(json.dumps(raw))
        return cfg

    def test_guaranteed_mode_solves(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "guaranteed")
        code, out, err = run(capsys, "solve", "--config", str(cfg),
                             "--out", str(tmp_path / "run"))
        assert (code, err) == (0, "")
        assert "solved in 2 table builds" in out

    def test_repeat_stop_tables_replay_without_breach(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "repeat-stop")
        table = tmp_path / "table.json"
        code, _, err = run(capsys, "solve", "--config", str(cfg),
                           "--out", str(tmp_path / "run"),
                           "--table", str(table))
        assert (code, err) == (0, "")
        inst = parse_config(json.loads(cfg.read_text())).instance
        loaded = open_table(str(table), inst)
        script = EventScript.scripted((ScriptedStart("n", 1),))
        report = simulate(loaded, script, loaded.config)
        assert report.breach_count == 0


# A 1e-9 W usage appliance against a 1 W band: the worst placement
# scores 1.000000082740371e-09 W past lambda, under the 1e-9 W slack of
# the band's bound_w, so it is inside the band
TOLERANCE_EDGE = {
    "grid": {"tau": 2},
    "appliances": [{"id": "a", "power": 1.0, "workload": 1.0}],
    "ns_appliances": [{"id": "n", "power": 1e-9, "runtime_slots": 1,
                       "zone": [1, 2]}],
    "battery": {"capacity": 0, "initial": 0, "discharge_max": 0,
                "charge_max": 0, "grid_step": 1},
    "price": {"values": [1.0, 2.0]},
    "privacy": {"lambda": 1.0, "reference": 0.0},
}


class TestToleranceEdge:
    """The loop stops on the band test the replay applies.  ``guaranteed``
    mode stops after the first build, whose worst placement is inside the
    band by that test, though only by 8.3e-17 W.  ``repeat-stop`` mode
    adds that placement and stops when the rebuilt table proposes it
    again: a rebuild would reproduce the same table."""

    def config(self, tmp_path, **edits):
        raw = json.loads(json.dumps(TOLERANCE_EDGE))
        raw.update(edits)
        cfg = tmp_path / "edge.json"
        cfg.write_text(json.dumps(raw))
        return cfg

    def solve_and_replay(self, tmp_path, capsys, cfg, builds):
        table = tmp_path / "table.json"
        code, out, err = run(capsys, "solve", "--config", str(cfg),
                             "--out", str(tmp_path / "run"),
                             "--table", str(table))
        assert (code, err) == (0, "")
        assert f"solved in {builds} table builds" in out
        trace = json.loads((tmp_path / "run" / "trace.json").read_text())
        assert len(trace["records"]) == builds
        assert trace["capped"] is False
        assert trace["final_scenario"] == [1]
        assert trace["final_violation_w"] == 1.000000082740371e-09
        script = tmp_path / "script.json"
        script.write_text(json.dumps(
            {"events": [{"appliance_id": "n", "slot": 1}]}))
        code, out, err = run(capsys, "simulate", "--table", str(table),
                             "--config", str(cfg), "--script", str(script))
        assert (code, err) == (0, "")
        assert "n@1" in out
        assert "breaches 0" in out

    def test_guaranteed_mode_stops_inside_the_band(self, tmp_path, capsys):
        self.solve_and_replay(tmp_path, capsys, self.config(tmp_path), 1)

    def test_the_solve_stops_on_the_repeated_placement(self, tmp_path,
                                                       capsys):
        cfg = self.config(tmp_path, solver={"mode": "repeat-stop"})
        self.solve_and_replay(tmp_path, capsys, cfg, 2)

    def test_the_sweep_solves_every_capacity(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        out = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--config", str(cfg),
                           "--capacities", "0,250,500", "--out", str(out))
        assert (code, err) == (0, "")
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["feasible"], r["solves"]) for r in rows] == [("1", "1")] * 3

    def test_one_slot_is_not_capped(self, tmp_path, capsys):
        # the product holds one placement, inside the band after the
        # first build; no max_solves is set, so the loop was not capped
        cfg = self.config(
            tmp_path, grid={"tau": 1}, price={"values": [1.0]},
            ns_appliances=[{"id": "n", "power": 1e-9, "runtime_slots": 1,
                            "zone": [1, 1]}])
        code, _, err = run(capsys, "solve", "--config", str(cfg),
                           "--out", str(tmp_path / "run"))
        assert (code, err) == (0, "")
        trace = json.loads((tmp_path / "run" / "trace.json").read_text())
        assert len(trace["records"]) == 1
        assert trace["capped"] is False


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

    def test_negative_sample_seeds_exit_2(self, tmp_path, capsys):
        table, _ = self.build(capsys, tmp_path)
        code, err = usage_error(capsys, "simulate", "--table", str(table),
                                "--config", "motivating-example",
                                "--sample-seed", "-1")
        assert code == 2
        assert "--sample-seed: must be at least 0, got -1" in err

    @pytest.mark.parametrize("seed, message", [
        (-5, "event script schema violation"),
        (5.0, "at /sample_seed: expected integer, got 5.0"),
    ], ids=["negative", "float"])
    def test_scripts_with_bad_sample_seeds_exit_2(self, tmp_path, capsys,
                                                  seed, message):
        table, _ = self.build(capsys, tmp_path)
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"sample_seed": seed}))
        code, _, err = run(capsys, "simulate", "--table", str(table),
                           "--config", "motivating-example",
                           "--script", str(script))
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("slot, message", [
        (2.0, "event script schema violation at /events/0/slot: "
              "expected integer, got 2.0"),
        (True, "event script schema violation at /events/0/slot"),
    ], ids=["float", "bool"])
    def test_scripts_with_non_integer_slots_exit_2(self, tmp_path, capsys,
                                                   slot, message):
        table, _ = self.build(capsys, tmp_path)
        script = tmp_path / "script.json"
        script.write_text(json.dumps(
            {"events": [{"appliance_id": "beta", "slot": slot}]}))
        code, out, err = run(capsys, "simulate", "--table", str(table),
                             "--config", "motivating-example",
                             "--script", str(script))
        assert code == 2
        assert out == ""
        assert message in err

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
        ("weights", [math.nan]),
        ("objective_mode", "cheapest"),
    ], ids=["omega-not-a-list", "omega-row-too-long", "weights-too-many",
            "weights-nan", "unknown-objective"])
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
            payload["dec_step"] = base64.b64encode(raw[:-1]).decode()

        code, _, err = self.simulate_corrupted(capsys, tmp_path,
                                               drop_one_cell)
        assert code == 4
        assert "dec_step holds 143 bytes, expected shape (4, 12, 3) of <i1 " \
            "(144 bytes)" in err

    def test_non_base64_arrays_exit_4(self, tmp_path, capsys):
        def spoil(payload):
            payload["dec_mask"] = payload["dec_mask"][:-4] + "!!!!"

        code, _, err = self.simulate_corrupted(capsys, tmp_path, spoil)
        assert code == 4
        assert "dec_mask is not base64" in err

    def simulate_version(self, capsys, tmp_path, version):
        def downgrade(payload):
            payload["version"] = version

        code, _, err = self.simulate_corrupted(capsys, tmp_path, downgrade)
        assert code == 4
        assert f"table version {version} unsupported, expected 5" in err
        return err

    def test_version_1_dumps_exit_4(self, tmp_path, capsys):
        self.simulate_version(capsys, tmp_path, 1)

    def test_version_2_dumps_exit_4(self, tmp_path, capsys):
        # a version-2 model_hash also covered the weights and the
        # objective, so the version is refused before any hash is compared
        err = self.simulate_version(capsys, tmp_path, 2)
        assert "different model" not in err

    def test_version_3_dumps_exit_4(self, tmp_path, capsys):
        # a version-3 body also held the values, and its decisions were
        # int32, so it is refused before its arrays are decoded
        err = self.simulate_version(capsys, tmp_path, 3)
        assert "is not base64" not in err and "holds" not in err

    def test_version_4_dumps_exit_4(self, tmp_path, capsys):
        # a version-4 model_hash also covered where the reference load
        # came from, so the version is refused before any hash is compared
        err = self.simulate_version(capsys, tmp_path, 4)
        assert "different model" not in err

    # beta runs one slot in zone [2, 3]: each row breaks the rule that a
    # --scenarios file is held to, and the dump is re-signed for it
    @pytest.mark.parametrize("rows", [[[99]], [[0]], [[1.5]], [["x"]],
                                      [[True]]],
                             ids=["past-the-zone", "before-the-zone",
                                  "float", "string", "bool"])
    def test_header_placements_that_do_not_fit_exit_4(self, tmp_path, capsys,
                                                      rows):
        inst = load_config("motivating-example").instance

        def replace_omega(payload):
            payload["omega"] = rows
            blob = json.dumps({"instance": dataclasses.asdict(inst),
                               "omega": rows},
                              sort_keys=True, separators=(",", ":"))
            payload["model_hash"] = hashlib.sha256(blob.encode()).hexdigest()

        code, out, err = self.simulate_corrupted(capsys, tmp_path,
                                                 replace_omega)
        assert (code, out) == (4, "")
        assert "table header does not fit this model" in err
        assert f"appliance beta: start {rows[0][0]!r} does not fit zone " \
            f"(2, 3) with runtime 1" in err
        scenarios = tmp_path / "omega.json"
        scenarios.write_text(json.dumps(rows))
        code, _, err = run(capsys, "build-table", "--config",
                           "motivating-example", "--out",
                           str(tmp_path / "t.json"),
                           "--scenarios", str(scenarios))
        assert code == 2
        assert "row 0: appliance beta: start" in err

    def test_a_dump_binds_whatever_objective_it_was_built_under(
            self, tmp_path, capsys):
        raw = serialize(load_config("motivating-example"))
        raw["solver"]["objective"] = "worst-case-cost"
        cfg = tmp_path / "worst.json"
        cfg.write_text(json.dumps(raw))
        table = tmp_path / "table.json"
        code, _, err = run(capsys, "build-table", "--config", str(cfg),
                           "--out", str(table))
        assert code == 0, err
        assert json.loads(table.read_text())["objective_mode"] == \
            "worst-case-cost"
        inst = load_config("motivating-example").instance
        expected = SolveConfig(instance=inst, scenarios=ScenarioSet.base(1),
                               objective_mode="expected")
        loaded = load_table(str(table), expected)
        assert loaded.config is expected
        assert loaded.model_hash == backward_recursion(expected).model_hash

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

    # a load rebuilds the values, and so refuses a decision it cannot
    # apply, a step into a dead cell or a schedule it cannot finish, even
    # in a dump whose body hash matches; it meets each fault at the last
    # slot, first vector first
    @pytest.mark.parametrize("corrupt, message", [
        (never_start, "slot 4 for SystemState(battery_wh=0.0, "
         "remaining=(0, 2)) leaves unfinished work (0, 1) past the horizon"),
        (drain_in_the_last_slot, "slot 4 for SystemState(battery_wh=0.0, "
         "remaining=(0, 0)) moves the battery to -10000.0 Wh, outside "
         "[0, 20000.0]"),
        (always_start_the_first,
         "cannot be applied: cannot start an appliance with 0 of 2 slots "
         "remaining"),
        (kill_slot_2, "table decision at slot 1 for SystemState("
         "battery_wh=0.0, remaining=(2, 3)) leads to SystemState("
         "battery_wh=0.0, remaining=(2, 3)), which has no feasible decision "
         "at slot 2"),
        (revive_a_doomed_cell, "table decision at slot 4 for SystemState("
         "battery_wh=0.0, remaining=(2, 3)) leaves unfinished work past the "
         "horizon: an unstarted appliance can no longer finish by slot 4"),
    ], ids=["never-start", "drain-below-empty", "restart", "dead-successor",
            "doomed-vector"])
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
        assert "row 0: scenario places 2 appliances, instance has 1" in err

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
            assert f"row 0: appliance beta: start {rows[0][0]!r} does not " \
                f"fit zone (2, 3) with runtime 1" in err


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
IN_RANGE = {"dec_mask": st.integers(-1, 3), "dec_step": st.integers(-1, 1)}


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


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_resigned_one_cell_edit_loads_a_whole_table_or_exits_4(data):
    # the body hash matches, so only the load's rebuild can refuse it
    name = data.draw(st.sampled_from(sorted(DUMP_DTYPES)))
    cell = tuple(data.draw(st.integers(0, n - 1)) for n in MOTIVATING_SHAPE)
    value = data.draw(IN_RANGE[name])

    def edit(arrays):
        arrays[name][cell] = value

    payload = json.loads(motivating_dump())
    resigned(edit)(payload)
    inst = load_config("motivating-example").instance
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        path.write_text(json.dumps(payload))
        try:
            table = open_table(str(path), inst)
        except IntegrityError:
            assert main(["simulate", "--table", str(path),
                         "--config", "motivating-example"]) == 4
            return
    live = table.dec_mask >= 0
    assert np.isfinite(table.values[live]).all()
    assert np.isposinf(table.values[~live]).all()


def documented_blocks(heading, lang):
    """The ``lang`` code blocks of one ``docs/formats.md`` section, in order."""
    docs = (Path(__file__).parent.parent / "docs" / "formats.md").read_text(
        encoding="utf-8")
    section = docs.split(f"## {heading}\n")[1].split("\n## ")[0]
    return [block.split("\n```")[0]
            for block in section.split(f"```{lang}\n")[1:]]


def test_the_documented_dump_is_what_build_table_writes(tmp_path, capsys):
    dump, config = documented_blocks("Schedule table dump", "json")[:2]
    (tmp_path / "config.json").write_text(config)
    code, _, err = run(capsys, "build-table", "--config",
                       str(tmp_path / "config.json"),
                       "--out", str(tmp_path / "table.json"))
    assert code == 0, err
    assert (tmp_path / "table.json").read_bytes() == (dump + "\n").encode()


def test_the_documented_hash_text_is_what_the_model_hash_covers():
    dump, config, hashed = documented_blocks("Schedule table dump", "json")
    inst = parse_config(json.loads(config)).instance
    assert hashed == json.dumps(
        {"instance": dataclasses.asdict(inst), "omega": [[]]},
        sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(hashed.encode("utf-8")).hexdigest() == \
        json.loads(dump)["model_hash"]


def test_the_documented_scenario_file_builds(tmp_path, capsys):
    (example,) = documented_blocks("Scenario file (JSON, input)", "json")
    (tmp_path / "omega.json").write_text(example)
    code, out, err = run(capsys, "build-table", "--config",
                         "motivating-example", "--out",
                         str(tmp_path / "t.json"),
                         "--scenarios", str(tmp_path / "omega.json"))
    assert code == 0, err
    assert "|omega|=3" in out


def test_the_documented_report_header_is_the_row_fields():
    example = documented_blocks("Simulation report (CSV, output)", "csv")[0]
    assert example.split("\n")[0] == SimulationReport.CSV_HEADER \
        == ",".join(SlotRecord._fields)


@pytest.mark.parametrize("heading, lang, artifact", [
    ("Solution (JSON, output)", "json", "solution.json"),
    ("Refinement trace (JSON, output)", "json", "trace.json"),
    ("Simulation report (CSV, output)", "csv", "report.csv"),
])
def test_the_documented_artifacts_are_what_solve_writes(tmp_path, capsys,
                                                        heading, lang,
                                                        artifact):
    example = documented_blocks(heading, lang)[0]
    code, _, err = run(capsys, "solve", "--config", "motivating-example",
                       "--out", str(tmp_path))
    assert code == 0, err
    assert (tmp_path / artifact).read_bytes() == (example + "\n").encode()


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
            lambda *args: calls.append(1) or backward_recursion(*args))
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

    @pytest.mark.parametrize("argv, message", [
        (("--seed", "-1"), "--seed: must be at least 0, got -1"),
        (("--count", "0"), "--count: must be at least 1, got 0"),
        (("--count", "-3"), "--count: must be at least 1, got -3"),
    ], ids=["negative-seed", "zero-count", "negative-count"])
    def test_seeds_and_counts_that_check_nothing_exit_2(self, capsys, argv,
                                                        message):
        code, err = usage_error(capsys, "verify", *argv)
        assert code == 2
        assert message in err


class TestUsageErrors:
    def test_unknown_subcommands_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["nonsense"])
        assert err.value.code == 2

    def test_a_subcommand_is_required(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestNonFiniteArtifacts:
    """A non-finite number has no JSON form: the artifact is refused."""

    def test_a_nan_in_the_solution_exits_4(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setattr(paces.cli, "expected_total_cost",
                            lambda config, cost: math.nan)
        out_dir = tmp_path / "run"
        code, _, err = run(capsys, "solve", "--config", "motivating-example",
                           "--out", str(out_dir))
        assert code == 4
        assert "refusing to write a non-finite number as JSON" in err
        assert not (out_dir / "solution.json").exists()

    def test_a_nan_in_a_dump_header_exits_4(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setattr(SolveConfig, "resolved_weights",
                            lambda self: (math.nan,))
        dump = tmp_path / "t.table"
        code, _, err = run(capsys, "build-table", "--config",
                           "motivating-example", "--out", str(dump))
        assert code == 4
        assert "refusing to write a non-finite number as JSON" in err
        assert not dump.exists()


def test_python_dash_m_runs_the_command_line():
    src = os.path.dirname(os.path.dirname(paces.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "paces", "presets"],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("motivating-example: tau=4")
