"""Config files, unit normalization, CSV ingestion, presets, generators."""
import json
from fractions import Fraction

import pytest

from paces import (ConfigError, EventScript, ScriptedStart, SolveConfig,
                   load_config, load_event_script, load_historical_load_csv,
                   load_price_csv, model_fingerprint, parse_config,
                   preset_names, random_small_instance, serialize,
                   state_count)


def motivating_raw():
    return serialize(load_config("motivating-example"))


def fault(name, edit, pointer, detail):
    return pytest.param(edit, pointer, detail, id=name)


# one case per kind of fault the config reader refuses, each at its pointer
CONFIG_FAULTS = [
    fault("type-grid", lambda r: r["grid"].update(tau="4"),
          "/grid/tau", "expected integer, got '4'"),
    fault("type-appliance", lambda r: r["appliances"][1].update(power=True),
          "/appliances/1/power", "expected number, got True"),
    fault("type-zone-bound",
          lambda r: r["ns_appliances"][0]["zone"].__setitem__(1, 3.0),
          "/ns_appliances/0/zone/1", "expected integer, got 3.0"),
    fault("type-solver", lambda r: r["solver"].update(include_inactive=0),
          "/solver/include_inactive", "expected boolean, got 0"),
    fault("type-section", lambda r: r.update(battery=[]),
          "/battery", "expected object, got []"),
    fault("type-max-solves", lambda r: r["solver"].update(max_solves="2"),
          "/solver/max_solves", "expected integer or null, got '2'"),
    fault("unknown-top", lambda r: r.update(grids={}),
          "/", "unexpected key 'grids'"),
    fault("unknown-units", lambda r: r.update(units={"volts": "V"}),
          "/units", "unexpected key 'volts'"),
    fault("unknown-grid", lambda r: r["grid"].update(slot_hour=1.0),
          "/grid", "unexpected key 'slot_hour'"),
    fault("unknown-appliance", lambda r: r["appliances"][0].update(kind=1),
          "/appliances/0", "unexpected key 'kind'"),
    fault("unknown-ns-appliance",
          lambda r: r["ns_appliances"][0].update(kind=1),
          "/ns_appliances/0", "unexpected key 'kind'"),
    fault("unknown-battery", lambda r: r["battery"].update(loss=0.1),
          "/battery", "unexpected key 'loss'"),
    fault("unknown-price", lambda r: r["price"].update(unit="W"),
          "/price", "unexpected key 'unit'"),
    fault("unknown-privacy", lambda r: r["privacy"].update(mu=1.0),
          "/privacy", "unexpected key 'mu'"),
    fault("unknown-solver", lambda r: r["solver"].update(cap=1),
          "/solver", "unexpected key 'cap'"),
    fault("missing-section", lambda r: r.pop("battery"),
          "/", "missing key 'battery'"),
    fault("missing-field", lambda r: r["ns_appliances"][0].pop("zone"),
          "/ns_appliances/0", "missing key 'zone'"),
    fault("no-price", lambda r: r["price"].clear(),
          "/price", "needs exactly one of values, csv, constant"),
    fault("two-prices", lambda r: r["price"].update(constant=1e-4),
          "/price", "needs exactly one of values, csv, constant"),
    fault("no-reference", lambda r: r["privacy"].pop("reference"),
          "/privacy", "needs exactly one of reference, reference_csv"),
    fault("two-references",
          lambda r: r["privacy"].update(reference_csv="history.csv"),
          "/privacy", "needs exactly one of reference, reference_csv"),
    fault("zone-of-1", lambda r: r["ns_appliances"][0].update(zone=[2]),
          "/ns_appliances/0/zone", "expected length 2, got 1"),
    fault("zone-of-3",
          lambda r: r["ns_appliances"][0].update(zone=[2, 3, 4]),
          "/ns_appliances/0/zone", "expected length 2, got 3"),
    fault("empty-start-prob",
          lambda r: r["ns_appliances"][0].update(start_prob=[]),
          "/ns_appliances/0/start_prob", "expected length at least 1, got 0"),
    fault("empty-values", lambda r: r["price"].update(values=[]),
          "/price/values", "expected length at least 1, got 0"),
    fault("bad-unit", lambda r: r.update(units={"power": "MW"}),
          "/units/power", "expected one of W, kW, got 'MW'"),
    fault("bad-solver", lambda r: r["solver"].update(mode="both"),
          "/solver/mode", "expected one of guaranteed, repeat-stop, "
                          "got 'both'"),
    fault("bad-source",
          lambda r: r["privacy"].update(reference_source="historical-mean"),
          "/privacy", "unexpected key 'reference_source'"),
    fault("empty-id", lambda r: r["appliances"][0].update(id=""),
          "/appliances/0/id", "expected a non-empty string"),
]


@pytest.mark.parametrize("edit, pointer, detail", CONFIG_FAULTS)
def test_the_config_reader_names_each_fault_at_its_pointer(edit, pointer,
                                                           detail):
    raw = motivating_raw()
    edit(raw)
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert str(err.value).startswith(
        f"config schema violation at {pointer}: ")
    assert detail in str(err.value)


SCRIPT_FAULTS = [
    fault("events-and-seed", {"events": [], "sample_seed": 9},
          "/", "needs exactly one of events, sample_seed"),
    fault("neither", {}, "/", "needs exactly one of events, sample_seed"),
    fault("not-an-object", [], "/", "expected object, got []"),
    fault("negative-seed", {"sample_seed": -1},
          "/sample_seed", "must be at least 0, got -1"),
    fault("bool-seed", {"sample_seed": False},
          "/sample_seed", "expected integer, got False"),
    fault("unknown-event-key",
          {"events": [{"appliance_id": "beta", "slot": 2, "at": 1}]},
          "/events/0", "unexpected key 'at'"),
    fault("missing-slot", {"events": [{"appliance_id": "beta"}]},
          "/events/0", "missing key 'slot'"),
    fault("empty-appliance-id",
          {"events": [{"appliance_id": "", "slot": 2}]},
          "/events/0/appliance_id", "expected a non-empty string"),
]


@pytest.mark.parametrize("script, pointer, detail", SCRIPT_FAULTS)
def test_the_script_reader_names_each_fault_at_its_pointer(tmp_path, script,
                                                           pointer, detail):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    with pytest.raises(ConfigError) as err:
        load_event_script(path)
    assert str(err.value).startswith(
        f"event script schema violation at {pointer}: ")
    assert detail in str(err.value)


class TestParseAndSerialize:
    @pytest.mark.parametrize("name", ["section-iv-a", "motivating-example",
                                      "table-ii"])
    def test_serialize_parse_round_trip_is_exact(self, name):
        config = load_config(name)
        assert parse_config(serialize(config)) == config

    def test_unknown_keys_are_rejected_with_a_pointer(self):
        raw = motivating_raw()
        raw["grid"]["slot_hour"] = 1.0
        with pytest.raises(ConfigError,
                           match="config schema violation at /grid") as err:
            parse_config(raw)
        assert "slot_hour" in str(err.value)

    def test_unknown_top_level_keys_are_rejected(self):
        raw = motivating_raw()
        raw["grids"] = {}
        with pytest.raises(ConfigError, match="schema violation"):
            parse_config(raw)

    def test_missing_sections_are_rejected(self):
        raw = motivating_raw()
        del raw["battery"]
        with pytest.raises(ConfigError, match="battery"):
            parse_config(raw)

    def test_price_needs_exactly_one_source(self):
        raw = motivating_raw()
        raw["price"] = {"values": [1e-4] * 4, "constant": 1e-4}
        with pytest.raises(ConfigError, match="schema violation at /price"):
            parse_config(raw)
        raw["price"] = {}
        with pytest.raises(ConfigError, match="schema violation at /price"):
            parse_config(raw)

    def test_model_violations_surface_as_config_errors(self):
        raw = motivating_raw()
        raw["grid"]["tau"] = 0
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(raw)

    @pytest.mark.parametrize("where, value", [
        (("solver", "state_cap"), 2.0), (("solver", "state_cap"), 0),
        (("solver", "max_solves"), 3.0)])
    def test_integral_floats_and_zero_caps_are_refused(self, where, value):
        # an integer field holds an int: 2.0 is a float, as JSON writes it
        raw = motivating_raw()
        *path, key = where
        node = raw
        for part in path:
            node = node[part]
        node[key] = value
        with pytest.raises(ConfigError, match=f"{key}.*{value!r}"):
            parse_config(raw)

    def test_integers_beyond_float_range_are_config_errors(self):
        raw = motivating_raw()
        raw["appliances"][0]["power"] = 10 ** 400
        with pytest.raises(ConfigError, match="too large"):
            parse_config(raw)

    def test_solver_mode_enum_is_enforced(self):
        raw = motivating_raw()
        raw["solver"]["mode"] = "hopeful"
        with pytest.raises(ConfigError,
                           match="schema violation at /solver/mode"):
            parse_config(raw)

    def test_kilo_units_scale_into_base_units(self):
        config = load_config("motivating-example")
        inst = config.instance
        assert inst.appliances[0].power_w == 40000.0
        assert inst.appliances[0].workload_wh == 60000.0
        assert inst.appliances[1].workload_wh == 80000.0
        assert inst.battery.b_max_wh == 20000.0
        assert inst.battery.grid_step_wh == 10000.0
        assert inst.policy.lambda_w == 40000.0
        assert inst.policy.l_bar_w == 35000.0
        assert inst.price.at(1) == 0.05 * 1e-3
        assert len(set(inst.price.values)) == 1

    def test_explicit_duration_overrides_the_ceiling_rule(self):
        raw = motivating_raw()
        raw["appliances"][0]["duration_slots"] = 3
        config = parse_config(raw)
        assert config.instance.appliances[0].duration_slots == 3

    def test_defaults_fill_missing_optional_blocks(self):
        raw = motivating_raw()
        del raw["solver"]
        del raw["name"]
        config = parse_config(raw, default_name="fallback")
        assert config.name == "fallback"
        assert config.options.mode == "guaranteed"
        assert config.options.objective_mode == "expected"


class TestLoadConfigSources:
    def test_unknown_sources_list_the_presets(self):
        with pytest.raises(ConfigError,
                           match="neither a file nor a preset") as err:
            load_config("no-such-thing")
        for name in preset_names():
            assert name in str(err.value)

    def test_json_files_load_like_presets(self, tmp_path):
        path = tmp_path / "home.json"
        path.write_text(json.dumps(motivating_raw()))
        assert load_config(path) == load_config("motivating-example")

    def test_file_stem_names_unnamed_configs(self, tmp_path):
        raw = motivating_raw()
        del raw["name"]
        path = tmp_path / "custom-home.json"
        path.write_text(json.dumps(raw))
        assert load_config(path).name == "custom-home"

    def test_invalid_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_a_repeated_key_is_a_config_error(self, tmp_path):
        # the parser would keep the last lambda and solve at 0.5 W
        text = json.dumps(motivating_raw()).replace(
            '"lambda": ', '"lambda": 10.0, "lambda": ', 1)
        assert text.count('"lambda"') == 2
        path = tmp_path / "twice.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"{path}: duplicate key 'lambda'"
        script = tmp_path / "script.json"
        script.write_text('{"sample_seed": 1, "sample_seed": 2}')
        with pytest.raises(ConfigError, match="duplicate key 'sample_seed'"):
            load_event_script(script)

    def test_non_object_top_level_is_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError, match="top level must be"):
            load_config(path)


class TestPriceCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "price.csv"
        path.write_text(text)
        return path

    def test_reads_a_full_tariff(self, tmp_path):
        path = self.write(tmp_path,
                          "slot,price\n1,0.025\n2,0.023\n3,0.022\n")
        assert load_price_csv(path, 3).values == (0.025, 0.023, 0.022)

    def test_wrong_header_is_rejected(self, tmp_path):
        path = self.write(tmp_path, "slot,tariff\n1,0.025\n")
        with pytest.raises(ConfigError, match="expected header 'slot,price'"):
            load_price_csv(path, 1)

    def test_short_files_report_the_row_count(self, tmp_path):
        path = self.write(tmp_path, "slot,price\n1,0.025\n2,0.023\n")
        with pytest.raises(ConfigError,
                           match="expected 3 data rows, file ends after 2"):
            load_price_csv(path, 3)

    def test_negative_prices_carry_the_line_number(self, tmp_path):
        path = self.write(tmp_path, "slot,price\n1,0.025\n2,-0.01\n3,0.022\n")
        with pytest.raises(ConfigError, match="line 3: negative price"):
            load_price_csv(path, 3)

    def test_non_numeric_rows_carry_the_line_number(self, tmp_path):
        path = self.write(tmp_path, "slot,price\n1,cheap\n")
        with pytest.raises(ConfigError, match="line 2: non-numeric row"):
            load_price_csv(path, 1)

    def test_slots_must_count_up_from_one(self, tmp_path):
        path = self.write(tmp_path, "slot,price\n1,0.025\n3,0.022\n")
        with pytest.raises(ConfigError, match="expected slot 2, got 3"):
            load_price_csv(path, 3)

    def test_extra_rows_beyond_the_horizon_are_rejected(self, tmp_path):
        path = self.write(tmp_path,
                          "slot,price\n1,0.025\n2,0.023\n3,0.022\n4,0.021\n")
        with pytest.raises(ConfigError, match="beyond the 3-slot horizon"):
            load_price_csv(path, 3)

    def test_extra_columns_are_rejected(self, tmp_path):
        path = self.write(tmp_path, "slot,price\n1,0.025,extra\n")
        with pytest.raises(ConfigError, match="expected 2 columns"):
            load_price_csv(path, 1)

    def test_blank_lines_are_ignored(self, tmp_path):
        path = self.write(tmp_path, "slot,price\n1,0.025\n\n2,0.023\n")
        assert load_price_csv(path, 2).values == (0.025, 0.023)

    def test_missing_files_are_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="price file not found"):
            load_price_csv(tmp_path / "nope.csv", 3)

    def test_csv_tariff_wired_through_a_config(self, tmp_path):
        self.write(tmp_path, "slot,price\n1,0.03\n2,0.05\n3,0.04\n4,0.02\n")
        raw = motivating_raw()
        raw["price"] = {"csv": "price.csv"}
        raw["units"] = {"price": "per_kWh"}
        config = parse_config(raw, base_dir=tmp_path)
        # the price unit factor applies to CSV values too
        assert config.instance.price.values == (
            0.03 * 1e-3, 0.05 * 1e-3, 0.04 * 1e-3, 0.02 * 1e-3)


class TestHistoricalCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "history.csv"
        path.write_text(text)
        return path

    def test_mean_of_two_rows(self, tmp_path):
        path = self.write(
            tmp_path,
            "timestamp,load_w\n2026-01-01T00:00,50\n2026-01-01T01:00,150\n")
        assert load_historical_load_csv(path) == 100.0

    def test_single_row_is_its_own_mean(self, tmp_path):
        path = self.write(tmp_path, "timestamp,load_w\nt0,42\n")
        assert load_historical_load_csv(path) == 42.0

    def test_day_long_series_matches_exact_arithmetic(self, tmp_path):
        loads = [80.25 + 0.25 * i for i in range(24)]
        rows = "".join(f"h{i},{v}\n" for i, v in enumerate(loads))
        path = self.write(tmp_path, "timestamp,load_w\n" + rows)
        exact = Fraction(sum(Fraction(v) for v in loads), 24)
        assert load_historical_load_csv(path) == float(exact)

    def test_empty_series_is_rejected(self, tmp_path):
        path = self.write(tmp_path, "timestamp,load_w\n")
        with pytest.raises(ConfigError, match="no data rows"):
            load_historical_load_csv(path)

    def test_wrong_header_is_rejected(self, tmp_path):
        path = self.write(tmp_path, "time,watts\nt0,42\n")
        with pytest.raises(ConfigError,
                           match="expected header 'timestamp,load_w'"):
            load_historical_load_csv(path)

    def test_non_numeric_loads_carry_the_line_number(self, tmp_path):
        path = self.write(tmp_path, "timestamp,load_w\nt0,heavy\n")
        with pytest.raises(ConfigError, match="line 2: non-numeric load"):
            load_historical_load_csv(path)

    def test_missing_files_are_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="historical load file not found"):
            load_historical_load_csv(tmp_path / "nope.csv")

    def test_reference_csv_wired_through_a_config(self, tmp_path):
        self.write(tmp_path, "timestamp,load_w\nt0,30000\nt1,40000\n")
        raw = motivating_raw()
        raw["privacy"] = {"lambda": 40000, "reference_csv": "history.csv"}
        config = parse_config(raw, base_dir=tmp_path)
        policy = config.instance.policy
        # the historical mean is always W; lambda is in config power units
        assert policy.l_bar_w == 35000.0
        assert policy.lambda_w == 40000.0

    def test_a_reference_csv_hashes_as_its_mean(self, tmp_path):
        # the band reads l_bar's value only, so a CSV whose mean is the
        # constant l_bar is the same model
        def solve_config(privacy):
            raw = motivating_raw()
            raw["privacy"] = privacy
            return SolveConfig(
                instance=parse_config(raw, base_dir=tmp_path).instance)

        self.write(tmp_path, "timestamp,load_w\nt0,30000\nt1,40000\n")
        constant = solve_config({"lambda": 40000, "reference": 35000})
        history = solve_config({"lambda": 40000,
                                "reference_csv": "history.csv"})
        assert history == constant
        assert model_fingerprint(history) == model_fingerprint(constant)


class TestEventScriptLoader:
    def test_loads_explicit_events(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(
            {"events": [{"appliance_id": "beta", "slot": 2}]}))
        script = load_event_script(path)
        assert script == EventScript.scripted((ScriptedStart("beta", 2),))

    def test_loads_sampling_seeds(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"sample_seed": 9}))
        assert load_event_script(path) == EventScript.sampled(9)

    def test_rejects_ambiguous_scripts(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"events": [], "sample_seed": 9}))
        with pytest.raises(ConfigError, match="event script schema violation"):
            load_event_script(path)

    def test_rejects_negative_sampling_seeds(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"sample_seed": -5}))
        with pytest.raises(ConfigError, match="event script schema violation"):
            load_event_script(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text("{oops")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_event_script(path)

    def test_missing_files_are_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="event script not found"):
            load_event_script(tmp_path / "nope.json")


class TestPresets:
    def test_names_are_sorted_and_complete(self):
        assert preset_names() == ["motivating-example", "section-iv-a",
                                  "table-ii"]

    def test_published_defaults_instance(self):
        config = load_config("section-iv-a")
        inst = config.instance
        assert inst.grid.tau == 12
        assert inst.grid.slot_hours == 1.0
        assert [a.power_w for a in inst.appliances] == [35.38, 156.59, 76.73]
        assert [a.workload_wh for a in inst.appliances] == [70.7, 313.2, 230.2]
        assert inst.durations == (2, 3, 4)
        assert [a.zone for a in inst.ns_appliances] == [(7, 12), (1, 6)]
        assert [a.power_w for a in inst.ns_appliances] == [106.97, 33.73]
        assert inst.battery.b_max_wh == 750.0
        assert inst.battery.n_levels == 31
        assert inst.battery.z_charge_max_wh == 250.0
        assert inst.policy.lambda_w == 80.0
        assert inst.policy.l_bar_w == 85.0
        assert inst.price.at(1) == 0.025 * 1e-3
        assert inst.price.at(10) == 0.046 * 1e-3
        assert config.options.mode == "guaranteed"

    def test_worked_example_instance(self):
        inst = load_config("motivating-example").instance
        assert inst.grid.tau == 4
        assert inst.durations == (2, 3)
        assert inst.powers_w == (40000.0, 30000.0)
        assert [a.id for a in inst.ns_appliances] == ["beta"]
        assert inst.ns_appliances[0].feasible_starts() == [2, 3]

    def test_alternative_storage_preset_shares_the_household(self):
        base = load_config("section-iv-a").instance
        alt = load_config("table-ii").instance
        assert alt.appliances == base.appliances
        assert alt.ns_appliances == base.ns_appliances
        assert alt.price == base.price
        assert alt.policy == base.policy
        assert alt.battery.b_max_wh == 200.0
        assert alt.battery.z_discharge_max_wh == 100.0
        assert alt.battery.grid_step_wh == 25.0

    def test_presets_are_isolated_between_loads(self):
        first = load_config("table-ii")
        second = load_config("table-ii")
        assert first == second


class TestRandomSmallInstance:
    def test_same_seed_same_instance(self):
        assert random_small_instance(7) == random_small_instance(7)
        assert random_small_instance(7) != random_small_instance(8)

    def test_ns_count_override(self):
        assert len(random_small_instance(5, ns_count=0).ns_appliances) == 0
        assert len(random_small_instance(5, ns_count=1).ns_appliances) == 1

    def test_two_hundred_seeds_stay_inside_the_search_rails(self):
        for seed in range(200):
            inst = random_small_instance(seed)
            assert 3 <= inst.grid.tau <= 6
            assert 1 <= len(inst.appliances) <= 2
            assert len(inst.ns_appliances) <= 1
            for a in inst.appliances:
                assert 1 <= a.duration_slots <= min(3, inst.grid.tau)
                assert a.workload_wh == a.power_w * a.duration_slots
            for a in inst.ns_appliances:
                assert a.zone[1] <= inst.grid.tau
            assert inst.battery.n_levels <= 6
            assert 0.0 <= inst.battery.b_init_wh <= inst.battery.b_max_wh
            assert all(1e-4 <= c <= 5e-4 for c in inst.price.values)
            assert inst.policy.lambda_w > 0
            assert state_count(inst.appliances, inst.battery) <= 96
