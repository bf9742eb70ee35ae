"""Configuration files, CSV ingestion, presets, and random test instances.

Configs are strict JSON: unknown keys are rejected so a typo in a
parameter name fails loudly instead of silently falling back to a
default.  An optional ``units`` block lets files speak kW/kWh/per_kWh;
everything is normalized to W/Wh/per_Wh at ingestion and stays there.
"""
from __future__ import annotations

import copy
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, ModelError
from .model import (Battery, Instance, NonSchedulableAppliance, PriceSignal,
                    PrivacyPolicy, SchedulableAppliance, TimeGrid,
                    left_sum)
from .scenarios import SOLVE_MODES, ScenarioSolveOptions
from .simulate import EventScript, ScriptedStart
from .table import DEFAULT_STATE_CAP, OBJECTIVE_MODES

POWER_FACTORS = {"W": 1.0, "kW": 1000.0}
ENERGY_FACTORS = {"Wh": 1.0, "kWh": 1000.0}
PRICE_FACTORS = {"per_Wh": 1.0, "per_kWh": 1e-3}

#: Python types of each JSON type; a bool is neither an integer nor a number
_JSON_TYPES = {"null": type(None), "boolean": bool, "integer": int,
               "number": (int, float), "string": str, "array": list,
               "object": dict}


class _Node:
    """One value of a JSON input at its pointer, typed as it is read.

    Every read names what it needs.  Anything else is a ConfigError
    ``"<what> schema violation at <pointer>: <message>"``, with ``/`` for
    the whole document.
    """

    def __init__(self, value: object, what: str, pointer: str = ""):
        self.value, self.what, self.pointer = value, what, pointer

    def fail(self, message: str):
        raise ConfigError(f"{self.what} schema violation at "
                          f"{self.pointer or '/'}: {message}")

    def of(self, *kinds: str):
        """The value, if its JSON type is one of ``kinds``."""
        if not any(isinstance(self.value, _JSON_TYPES[kind])
                   and isinstance(self.value, bool) == (kind == "boolean")
                   for kind in kinds):
            self.fail(f"expected {' or '.join(kinds)}, got {self.value!r}")
        return self.value

    def ident(self) -> str:
        if not self.of("string"):
            self.fail("expected a non-empty string")
        return self.value

    def enum(self, choices) -> str:
        if self.of("string") not in choices:
            self.fail(f"expected one of {', '.join(choices)}, "
                      f"got {self.value!r}")
        return self.value

    def keys(self, required=(), optional=(), one_of=()) -> "_Node":
        """This object, if it holds every ``required`` key, exactly one
        key of ``one_of`` and no other key than those and ``optional``."""
        for key in self.of("object"):
            if key not in required + optional + one_of:
                self.fail(f"unexpected key {key!r}")
        for key in required:
            if key not in self.value:
                self.fail(f"missing key {key!r}")
        if one_of and left_sum(key in self.value for key in one_of) != 1:
            self.fail(f"needs exactly one of {', '.join(one_of)}")
        return self

    def __contains__(self, key: str) -> bool:
        return key in self.value

    def at(self, key: str, default: object = None) -> "_Node":
        """The member ``key`` of this object, or ``default`` if absent."""
        return _Node(self.value.get(key, default), self.what,
                     f"{self.pointer}/{key}")

    def items(self, least: int = 0, exact: bool = False) -> list["_Node"]:
        """The items of this array, if it holds ``least`` or more (or
        exactly ``least``)."""
        n = len(self.of("array"))
        if n < least or (exact and n > least):
            self.fail(f"expected length {'' if exact else 'at least '}"
                      f"{least}, got {n}")
        return [_Node(v, self.what, f"{self.pointer}/{i}")
                for i, v in enumerate(self.value)]


@dataclass(frozen=True)
class InstanceConfig:
    """Fully validated problem instance plus its solver options."""

    name: str
    instance: Instance
    options: ScenarioSolveOptions
    state_cap: int = DEFAULT_STATE_CAP


def parse_config(raw: dict, base_dir: Union[str, Path] = ".",
                 default_name: str = "instance") -> InstanceConfig:
    """Validate and normalize an already-deserialized config mapping."""
    doc = _Node(raw, "config").keys(
        required=("grid", "appliances", "ns_appliances", "battery", "price",
                  "privacy"),
        optional=("name", "units", "solver"))
    base = Path(base_dir)
    units = doc.at("units", {}).keys(optional=("power", "energy", "price"))
    p_f = POWER_FACTORS[units.at("power", "W").enum(POWER_FACTORS)]
    e_f = ENERGY_FACTORS[units.at("energy", "Wh").enum(ENERGY_FACTORS)]
    c_f = PRICE_FACTORS[units.at("price", "per_Wh").enum(PRICE_FACTORS)]

    try:
        g = doc.at("grid").keys(required=("tau",), optional=("slot_hours",))
        grid = TimeGrid(tau=g.at("tau").of("integer"),
                        slot_hours=g.at("slot_hours", 1.0).of("number"))

        appliances = []
        for a in doc.at("appliances").items():
            a.keys(required=("id", "power", "workload"),
                   optional=("duration_slots",))
            id_, power = a.at("id").ident(), a.at("power").of("number") * p_f
            workload = a.at("workload").of("number") * e_f
            if "duration_slots" in a:
                appliances.append(SchedulableAppliance(
                    id=id_, power_w=power, workload_wh=workload,
                    duration_slots=a.at("duration_slots").of("integer")))
            else:
                appliances.append(SchedulableAppliance.from_workload(
                    id=id_, power_w=power, workload_wh=workload,
                    slot_hours=grid.slot_hours))

        ns_appliances = []
        for a in doc.at("ns_appliances").items():
            a.keys(required=("id", "power", "runtime_slots", "zone"),
                   optional=("start_prob",))
            lo, hi = a.at("zone").items(2, exact=True)
            ns_appliances.append(NonSchedulableAppliance(
                id=a.at("id").ident(),
                power_w=a.at("power").of("number") * p_f,
                runtime_slots=a.at("runtime_slots").of("integer"),
                zone=(lo.of("integer"), hi.of("integer")),
                start_prob=tuple(q.of("number")
                                 for q in a.at("start_prob").items(1))
                if "start_prob" in a else None))

        # in the order of Battery's fields
        energies = ("capacity", "initial", "discharge_max", "charge_max",
                    "grid_step")
        b = doc.at("battery").keys(required=energies)
        battery = Battery(*(b.at(key).of("number") * e_f for key in energies))

        p = doc.at("price").keys(one_of=("values", "csv", "constant"))
        if "values" in p:
            price = PriceSignal(tuple(v.of("number") * c_f
                                      for v in p.at("values").items(1)))
        elif "constant" in p:
            price = PriceSignal((p.at("constant").of("number") * c_f,)
                                * grid.tau)
        else:
            loaded = load_price_csv(base / p.at("csv").of("string"), grid.tau)
            price = PriceSignal(tuple(v * c_f for v in loaded.values))

        pv = doc.at("privacy").keys(required=("lambda",),
                                    one_of=("reference", "reference_csv"))
        if "reference" in pv:
            l_bar = pv.at("reference").of("number") * p_f
        else:
            l_bar = load_historical_load_csv(
                base / pv.at("reference_csv").of("string"))
        policy = PrivacyPolicy(lambda_w=pv.at("lambda").of("number") * p_f,
                               l_bar_w=l_bar)

        instance = Instance(grid=grid, appliances=tuple(appliances),
                            ns_appliances=tuple(ns_appliances),
                            battery=battery, price=price, policy=policy)

        s = doc.at("solver", {}).keys(optional=(
            "mode", "objective", "include_inactive", "max_solves",
            "state_cap"))
        options = ScenarioSolveOptions(
            mode=s.at("mode", "guaranteed").enum(SOLVE_MODES),
            include_inactive=s.at("include_inactive", False).of("boolean"),
            objective_mode=s.at("objective", "expected").enum(OBJECTIVE_MODES),
            max_solves=s.at("max_solves").of("integer", "null"))
        state_cap = s.at("state_cap", DEFAULT_STATE_CAP).of("integer")
        if state_cap < 1:
            raise ModelError(f"solver.state_cap must be a positive integer, "
                             f"got {state_cap!r}")
    except (ModelError, OverflowError) as err:
        raise ConfigError(str(err)) from None

    return InstanceConfig(name=doc.at("name", default_name).of("string"),
                          instance=instance, options=options,
                          state_cap=state_cap)


def load_config(source: Union[str, Path]) -> InstanceConfig:
    """Load a config from a preset name or a JSON file path."""
    if isinstance(source, str) and source in PRESETS:
        return parse_config(copy.deepcopy(PRESETS[source]),
                            default_name=source)
    path = Path(source)
    if not path.exists():
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(
            f"config {str(source)!r} is neither a file nor a preset "
            f"(presets: {known})")
    raw = read_json(path, "config")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return parse_config(raw, base_dir=path.parent, default_name=path.stem)


def serialize(config: InstanceConfig) -> dict:
    """Canonical-units mapping that parses back to an equal config."""
    inst = config.instance
    out: dict = {
        "name": config.name,
        "grid": {"tau": inst.grid.tau, "slot_hours": inst.grid.slot_hours},
        "appliances": [
            {"id": a.id, "power": a.power_w, "workload": a.workload_wh,
             "duration_slots": a.duration_slots}
            for a in inst.appliances
        ],
        "ns_appliances": [],
        "battery": {
            "capacity": inst.battery.b_max_wh,
            "initial": inst.battery.b_init_wh,
            "discharge_max": inst.battery.z_discharge_max_wh,
            "charge_max": inst.battery.z_charge_max_wh,
            "grid_step": inst.battery.grid_step_wh,
        },
        "price": {"values": list(inst.price.values)},
        "privacy": {
            "lambda": inst.policy.lambda_w,
            "reference": inst.policy.l_bar_w,
        },
        "solver": {
            "mode": config.options.mode,
            "objective": config.options.objective_mode,
            "include_inactive": config.options.include_inactive,
            "max_solves": config.options.max_solves,
            "state_cap": config.state_cap,
        },
    }
    for a in inst.ns_appliances:
        entry = {"id": a.id, "power": a.power_w,
                 "runtime_slots": a.runtime_slots, "zone": list(a.zone)}
        if a.start_prob is not None:
            entry["start_prob"] = list(a.start_prob)
        out["ns_appliances"].append(entry)
    return out


def _read_text(path: Path, what: str) -> str:
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    return path.read_bytes().decode("utf-8")


def read_json(path: Union[str, Path], what: str) -> object:
    """Parse a UTF-8 JSON input file; any unreadable content, or an object
    that repeats a key, is a ConfigError."""
    path = Path(path)

    def unique_keys(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(_read_text(path, what), object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as err:
        raise ConfigError(f"{path}: not valid JSON: {err}") from None


def read_csv_rows(path: Union[str, Path], header: list[str],
                  what: str) -> list[tuple[int, list[str]]]:
    """Non-empty data rows of a UTF-8 CSV file under ``header``, by line."""
    path = Path(path)
    try:
        rows = list(csv.reader(io.StringIO(_read_text(path, what),
                                           newline="")))
    except (ValueError, csv.Error) as err:
        raise ConfigError(f"{path}: not a readable CSV file: {err}") from None
    if not rows or rows[0] != header:
        raise ConfigError(f"{path}: expected header {','.join(header)!r}, "
                          f"got {rows[0] if rows else None!r}")
    out = [(line, row) for line, row in enumerate(rows[1:], start=2) if row]
    for line, row in out:
        if len(row) != len(header):
            raise ConfigError(f"{path} line {line}: expected {len(header)} "
                              f"columns, got {len(row)}")
    return out


def load_price_csv(path: Union[str, Path], tau: int) -> PriceSignal:
    """Read a per-slot tariff: header ``slot,price``, exactly tau rows."""
    path = Path(path)
    values: list[float] = []
    for line, row in read_csv_rows(path, ["slot", "price"], "price file"):
        try:
            slot = int(row[0])
            price = float(row[1])
        except ValueError:
            raise ConfigError(
                f"{path} line {line}: non-numeric row {row!r}") from None
        if slot != len(values) + 1:
            raise ConfigError(
                f"{path} line {line}: expected slot {len(values) + 1}, "
                f"got {slot}")
        if slot > tau:
            raise ConfigError(
                f"{path} line {line}: slot {slot} beyond the {tau}-slot "
                f"horizon")
        if price < 0:
            raise ConfigError(
                f"{path} line {line}: negative price {row[1]}")
        values.append(price)
    if len(values) != tau:
        raise ConfigError(
            f"{path}: expected {tau} data rows, file ends after {len(values)}")
    return PriceSignal(tuple(values))


def load_historical_load_csv(path: Union[str, Path]) -> float:
    """Arithmetic mean of a ``timestamp,load_w`` series, in W."""
    path = Path(path)
    loads: list[float] = []
    for line, row in read_csv_rows(path, ["timestamp", "load_w"],
                                   "historical load file"):
        try:
            loads.append(float(row[1]))
        except ValueError:
            raise ConfigError(
                f"{path} line {line}: non-numeric load {row[1]!r}") from None
    if not loads:
        raise ConfigError(f"{path}: no data rows")
    return left_sum(loads) / len(loads)


def load_event_script(path: Union[str, Path]) -> EventScript:
    """Read an event script: explicit starts or a sampling seed."""
    doc = _Node(read_json(path, "event script"), "event script").keys(
        one_of=("events", "sample_seed"))
    if "events" in doc:
        events = [e.keys(required=("appliance_id", "slot"))
                  for e in doc.at("events").items()]
        return EventScript.scripted(
            [ScriptedStart(appliance_id=e.at("appliance_id").ident(),
                           slot=e.at("slot").of("integer")) for e in events])
    seed = doc.at("sample_seed")
    if seed.of("integer") < 0:
        seed.fail(f"must be at least 0, got {seed.value}")
    return EventScript.sampled(seed.value)


# ---------------------------------------------------------------------------
# Built-in instances

PRESETS: dict[str, dict] = {
    "section-iv-a": {
        "name": "section-iv-a",
        "units": {"power": "W", "energy": "Wh", "price": "per_kWh"},
        "grid": {"tau": 12, "slot_hours": 1.0},
        "appliances": [
            {"id": "app1", "power": 35.38, "workload": 70.7},
            {"id": "app2", "power": 156.59, "workload": 313.2},
            {"id": "app3", "power": 76.73, "workload": 230.2},
        ],
        "ns_appliances": [
            {"id": "ns1", "power": 106.97, "runtime_slots": 1,
             "zone": [7, 12]},
            {"id": "ns2", "power": 33.73, "runtime_slots": 1,
             "zone": [1, 6]},
        ],
        "battery": {"capacity": 750, "initial": 0, "discharge_max": 250,
                    "charge_max": 250, "grid_step": 25},
        "price": {"values": [0.025, 0.023, 0.022, 0.021, 0.022, 0.024,
                             0.030, 0.036, 0.042, 0.046, 0.043, 0.037]},
        "privacy": {"lambda": 80, "reference": 85},
        "solver": {"mode": "guaranteed", "objective": "expected"},
    },
    "motivating-example": {
        "name": "motivating-example",
        "units": {"power": "kW", "energy": "kWh", "price": "per_kWh"},
        "grid": {"tau": 4, "slot_hours": 1.0},
        "appliances": [
            {"id": "alpha1", "power": 40, "workload": 60},
            {"id": "alpha2", "power": 30, "workload": 80},
        ],
        "ns_appliances": [
            {"id": "beta", "power": 15, "runtime_slots": 1, "zone": [2, 3]},
        ],
        "battery": {"capacity": 20, "initial": 0, "discharge_max": 10,
                    "charge_max": 10, "grid_step": 10},
        "price": {"constant": 0.05},
        "privacy": {"lambda": 40, "reference": 35},
        "solver": {"mode": "guaranteed", "objective": "expected"},
    },
}

# Same household as section-iv-a with the alternative storage parameters:
# a tight 200 Wh pack with faster relative rates.  Kept as published even
# though it disagrees with the section-iv-a battery.
PRESETS["table-ii"] = copy.deepcopy(PRESETS["section-iv-a"])
PRESETS["table-ii"]["name"] = "table-ii"
PRESETS["table-ii"]["battery"] = {"capacity": 200, "initial": 0,
                                  "discharge_max": 100, "charge_max": 100,
                                  "grid_step": 25}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def random_small_instance(seed: int,
                          ns_count: Optional[int] = None) -> Instance:
    """Seeded instance small enough for the exhaustive oracle.

    Sizes stay within tau <= 6, at most two schedulable and one
    non-schedulable appliance, and at most six battery levels.  The
    privacy bound is drawn wide enough that most seeds are feasible but
    narrow enough that it binds on many of them.
    """
    rng = np.random.default_rng(seed)
    tau = int(rng.integers(3, 7))
    h = 1.0

    appliances = []
    for i in range(int(rng.integers(1, 3))):
        dur = int(rng.integers(1, min(3, tau) + 1))
        power = float(np.round(rng.uniform(100.0, 400.0), 2))
        appliances.append(SchedulableAppliance(
            id=f"app{i + 1}", power_w=power, workload_wh=power * dur * h,
            duration_slots=dur))

    if ns_count is None:
        ns_count = int(rng.integers(0, 2))
    ns_appliances = []
    for j in range(ns_count):
        runtime = int(rng.integers(1, 3))
        lo = int(rng.integers(1, tau - runtime + 2))
        hi = int(rng.integers(lo + runtime - 1, tau + 1))
        power = float(np.round(rng.uniform(50.0, 200.0), 2))
        ns_appliances.append(NonSchedulableAppliance(
            id=f"ns{j + 1}", power_w=power, runtime_slots=runtime,
            zone=(lo, hi)))

    step = 50.0
    n_steps = int(rng.integers(1, 6))
    battery = Battery(
        b_max_wh=step * n_steps,
        b_init_wh=step * int(rng.integers(0, n_steps + 1)),
        z_discharge_max_wh=step * int(rng.integers(1, 3)),
        z_charge_max_wh=step * int(rng.integers(1, 3)),
        grid_step_wh=step)

    price = PriceSignal(tuple(
        float(np.round(v, 8)) for v in rng.uniform(1e-4, 5e-4, tau)))

    total_power = (left_sum(a.power_w for a in appliances)
                   + left_sum(a.power_w for a in ns_appliances))
    l_bar = float(np.round(rng.uniform(0.2, 0.6) * total_power, 2))
    rate_w = (battery.z_charge_max_wh + battery.z_discharge_max_wh) / h
    lam_safe = l_bar + total_power + rate_w
    lam = float(np.round(rng.uniform(0.3, 0.85) * lam_safe, 2))
    policy = PrivacyPolicy(lambda_w=lam, l_bar_w=l_bar)

    return Instance(grid=TimeGrid(tau=tau, slot_hours=h),
                    appliances=tuple(appliances),
                    ns_appliances=tuple(ns_appliances),
                    battery=battery, price=price, policy=policy)
