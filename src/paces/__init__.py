"""Privacy-aware cost-effective smart-home appliance scheduling.

The pipeline: describe a household (appliances, battery, tariff, privacy
band), build a schedule table by backward recursion, harden it against
worst-case non-schedulable usage by iterative scenario refinement, then
replay the table at runtime against whatever actually happens.
"""

from .errors import (ConfigError, InfeasibleError, IntegrityError, ModelError,
                     PacesError, StateSpaceError)
from .model import (Battery, Decision, Instance, NonSchedulableAppliance,
                    PriceSignal, PrivacyPolicy, PrivacyScenario,
                    ScenarioSet, SchedulableAppliance, SystemState, TimeGrid,
                    privacy_gap, scenario_load, slot_cost)
from .table import (ScheduleSolution, ScheduleTable, SolveConfig, TableEntry,
                    backward_recursion, expected_total_cost, extract_schedule,
                    load_table, model_fingerprint, open_table,
                    read_table_header, runtime_lookup, save_table,
                    state_count)
from .oracle import OracleResult, OracleTrajectory, brute_force_solve
from .scenarios import (IterationRecord, IterationTrace, ScenarioSolveOptions,
                        ScenarioSolveResult, candidate_scenarios,
                        find_worst_scenario, solve_with_scenarios)
from .simulate import (EventScript, ScriptedStart, SimulationReport,
                       SlotRecord, SweepPoint, simulate, sweep_battery)
from .config import (InstanceConfig, load_config, load_event_script,
                     load_historical_load_csv, load_price_csv, parse_config,
                     preset_names, random_small_instance, serialize)

__version__ = "0.1.0"

__all__ = [
    "PacesError", "ModelError", "ConfigError", "StateSpaceError",
    "InfeasibleError", "IntegrityError",
    "TimeGrid", "SchedulableAppliance", "NonSchedulableAppliance", "Battery",
    "PriceSignal", "PrivacyPolicy", "SystemState",
    "Decision", "PrivacyScenario", "ScenarioSet", "Instance",
    "scenario_load", "privacy_gap", "slot_cost",
    "SolveConfig", "ScheduleTable", "TableEntry", "ScheduleSolution",
    "model_fingerprint", "state_count", "backward_recursion",
    "extract_schedule", "expected_total_cost", "save_table", "load_table",
    "open_table", "read_table_header",
    "OracleResult", "OracleTrajectory", "brute_force_solve",
    "ScenarioSolveOptions", "ScenarioSolveResult", "IterationRecord",
    "IterationTrace", "candidate_scenarios", "find_worst_scenario",
    "solve_with_scenarios",
    "EventScript", "ScriptedStart", "SlotRecord", "SimulationReport",
    "SweepPoint", "runtime_lookup", "simulate", "sweep_battery",
    "InstanceConfig", "parse_config", "load_config", "serialize",
    "load_price_csv", "load_historical_load_csv", "load_event_script",
    "preset_names", "random_small_instance",
]
