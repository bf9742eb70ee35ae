"""Command-line surface tying the pipeline together.

Subcommands: ``build-table`` (backward pass for a fixed scenario set),
``solve`` (full refinement loop), ``simulate`` (replay a table against an
event script), ``sweep`` (capacity curve), ``verify`` (table builder vs
exhaustive search), ``presets`` (list built-in instances).

Exit codes: 0 success, 2 configuration or usage problem, 3 infeasible
instance, 4 integrity failure (stale table, solver/oracle mismatch).
All artifacts are deterministic: same config and seed, same bytes.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .config import (load_config, load_event_script, preset_names,
                     random_small_instance, read_json)
from .errors import (ConfigError, InfeasibleError, IntegrityError, ModelError,
                     PacesError)
from .model import NonSchedulableAppliance, PrivacyScenario, ScenarioSet
from .oracle import brute_force_solve
from .scenarios import ScenarioSolveResult, candidate_scenarios, \
    solve_with_scenarios
from .simulate import EventScript, simulate, sweep_battery
from .table import (SolveConfig, backward_recursion, expected_total_cost,
                    open_table, save_table, state_count)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_INTEGRITY = 4

#: Tolerance for calling the table builder and the oracle equal, in
#: currency units; both run on identical grids so they should agree to
#: the last few ulp.
VERIFY_TOL = 1e-9


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _load_scenario_file(path: Path,
                        ns_appliances: Sequence[NonSchedulableAppliance]
                        ) -> ScenarioSet:
    raw = read_json(path, "scenario file")
    if (not isinstance(raw, list)
            or not all(isinstance(row, list) for row in raw)):
        raise ConfigError(f"{path}: expected a JSON array of start arrays")
    scenarios = []
    for i, row in enumerate(raw):
        if len(row) != len(ns_appliances) or not all(
                s is None or (isinstance(s, int) and not isinstance(s, bool)
                              and s in app.feasible_starts())
                for s, app in zip(row, ns_appliances)):
            raise ConfigError(
                f"{path}: row {i} must hold {len(ns_appliances)} start slots "
                f"(null or a start that fits the appliance's zone), "
                f"got {row!r}")
        scenarios.append(PrivacyScenario(starts=tuple(row)))
    return ScenarioSet(tuple(scenarios))


def _solution_payload(result: ScenarioSolveResult, name: str,
                      seed: int) -> dict:
    sol = result.solution
    inst = result.config.instance
    starts = {}
    for i, app in enumerate(inst.appliances):
        starts[app.id] = next(
            (t for t, d in enumerate(sol.decisions, start=1) if d.starts[i]),
            None)
    slots = []
    for t in range(1, inst.grid.tau + 1):
        d = sol.decisions[t - 1]
        slots.append({
            "slot": t,
            "price_per_wh": inst.price.at(t),
            "base_load_w": sol.base_load_w[t - 1],
            "battery_wh": sol.states[t - 1].battery_wh,
            "battery_delta_wh": d.battery_delta_wh,
            "started": [a.id for a, flag in zip(inst.appliances, d.starts)
                        if flag],
            "privacy_gap_w": sol.privacy_gap_w[t - 1],
            "cost": sol.slot_costs[t - 1],
        })
    return {
        "config_name": name,
        "seed": seed,
        "model_hash": result.table.model_hash,
        "objective_mode": result.config.objective_mode,
        "omega": [list(sc.starts) for sc in result.omega],
        "appliance_starts": starts,
        "controllable_cost": sol.controllable_cost,
        "expected_total_cost": expected_total_cost(result.config,
                                                   sol.controllable_cost),
        "final_battery_wh": sol.states[-1].battery_wh,
        "slots": slots,
    }


def _trace_payload(result: ScenarioSolveResult) -> dict:
    trace = result.trace
    return {
        "records": trace.to_rows(),
        "final_scenario": None if trace.final_scenario is None
        else list(trace.final_scenario.starts),
        "final_violation_w": trace.final_violation_w,
        "capped": trace.capped,
    }


def cmd_build_table(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    inst = cfg.instance
    if args.scenarios:
        omega = _load_scenario_file(Path(args.scenarios),
                                    inst.ns_appliances)
    else:
        omega = ScenarioSet.base(len(inst.ns_appliances))
    config = SolveConfig(instance=inst, scenarios=omega,
                         objective_mode=cfg.options.objective_mode,
                         state_cap=cfg.state_cap)
    table = backward_recursion(config)
    save_table(table, args.out)
    n = state_count(inst.appliances, inst.battery)
    print(f"table written to {args.out}: {n} states x {inst.grid.tau} slots, "
          f"|omega|={len(omega)}, hash {table.model_hash[:12]}")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = solve_with_scenarios(cfg.instance, cfg.options, cfg.state_cap)

    _write_json(_solution_payload(result, cfg.name, cfg.seed),
                out / "solution.json")
    _write_json(_trace_payload(result), out / "trace.json")
    report = simulate(result.table, EventScript.scripted(()), result.config)
    (out / "report.csv").write_text(report.csv_text(), encoding="utf-8")
    if args.table:
        save_table(result.table, args.table)

    sol = result.solution
    total = expected_total_cost(result.config, sol.controllable_cost)
    solves = len(result.trace.records) if result.trace.records else 1
    print(f"{cfg.name}: solved in {solves} table builds, "
          f"|omega|={len(result.omega)}")
    print(f"controllable cost {sol.controllable_cost!r}, "
          f"expected total {total!r}")
    if result.trace.final_violation_w is not None:
        print(f"final worst violation {result.trace.final_violation_w!r} W")
    print(f"artifacts in {out}: solution.json, trace.json, report.csv")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    table_path = Path(args.table)
    if not table_path.exists():
        raise ConfigError(f"table file not found: {table_path}")
    table = open_table(str(table_path), cfg.instance, cfg.state_cap)

    if args.script:
        script = load_event_script(args.script)
    elif args.sample_seed is not None:
        script = EventScript.sampled(args.sample_seed)
    else:
        script = EventScript.scripted(())

    report = simulate(table, script, table.config)
    if args.out:
        Path(args.out).write_text(report.csv_text(), encoding="utf-8")
        print(f"report written to {args.out}")
    placements = ", ".join(
        f"{app.id}@{s}" for app, s in zip(cfg.instance.ns_appliances,
                                          report.scenario.starts)
        if s is not None) or "none"
    print(f"events: {placements}")
    print(f"total cost {report.total_cost!r}, max |gap| "
          f"{report.max_abs_gap_w!r} W, breaches {report.breach_count}, "
          f"final battery {report.final_battery_wh!r} Wh")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    inst = cfg.instance
    if args.no_ns:
        inst = dataclasses.replace(inst, ns_appliances=())
    try:
        capacities = [float(c) for c in args.capacities.split(",") if c]
    except ValueError:
        raise ConfigError(
            f"capacities must be comma-separated numbers, "
            f"got {args.capacities!r}") from None
    points = sweep_battery(inst, capacities, cfg.options, cfg.state_cap)

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["capacity_wh", "feasible", "controllable_cost",
                         "expected_total_cost", "solves", "message"])
        for p in points:
            writer.writerow([
                repr(p.capacity_wh), int(p.feasible),
                "" if p.controllable_cost is None else repr(p.controllable_cost),
                "" if p.expected_total_cost is None
                else repr(p.expected_total_cost),
                p.solves, p.message,
            ])
    for p in points:
        if p.feasible:
            print(f"capacity {p.capacity_wh!r} Wh: expected total "
                  f"{p.expected_total_cost!r}")
        else:
            print(f"capacity {p.capacity_wh!r} Wh: infeasible")
    print(f"sweep written to {args.out}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    all_match = True
    for seed in range(args.seed, args.seed + args.count):
        inst = random_small_instance(seed)
        base = ScenarioSet.base(len(inst.ns_appliances))
        omega = ScenarioSet(base.scenarios + tuple(
            candidate_scenarios(inst.ns_appliances, inst.grid)))
        config = SolveConfig(instance=inst, scenarios=omega)

        try:  # a table that builds has a finite initial value
            dp_value = backward_recursion(config).initial_value()
        except InfeasibleError:
            dp_value = None
        oracle = brute_force_solve(config)

        if dp_value is None and not oracle.feasible:
            print(f"seed {seed}: MATCH (both infeasible)")
            continue
        if (dp_value is None) != (not oracle.feasible):
            print(f"seed {seed}: MISMATCH (solver "
                  f"{'infeasible' if dp_value is None else repr(dp_value)}, "
                  f"oracle {'infeasible' if not oracle.feasible else repr(oracle.controllable_cost)})")
            all_match = False
            continue
        diff = abs(dp_value - oracle.controllable_cost)
        total_diff = abs(expected_total_cost(config, dp_value)
                         - oracle.expected_cost)
        if diff <= VERIFY_TOL and total_diff <= VERIFY_TOL:
            print(f"seed {seed}: MATCH (cost {dp_value!r})")
        else:
            print(f"seed {seed}: MISMATCH (solver {dp_value!r}, oracle "
                  f"{oracle.controllable_cost!r}, diff {diff!r})")
            all_match = False
    print("MATCH" if all_match else "MISMATCH")
    return EXIT_OK if all_match else EXIT_INTEGRITY


def cmd_presets(args: argparse.Namespace) -> int:
    for name in preset_names():
        cfg = load_config(name)
        inst = cfg.instance
        print(f"{name}: tau={inst.grid.tau}, "
              f"{len(inst.appliances)} schedulable + "
              f"{len(inst.ns_appliances)} non-schedulable, "
              f"battery {inst.battery.b_max_wh!r} Wh, "
              f"lambda {inst.policy.lambda_w!r} W, "
              f"mode {cfg.options.mode}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paces",
        description="Privacy-aware cost-effective appliance scheduling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-table",
                       help="run the backward pass for a fixed scenario set")
    p.add_argument("--config", required=True,
                   help="preset name or config JSON path")
    p.add_argument("--out", required=True, help="table dump destination")
    p.add_argument("--scenarios",
                   help="JSON file with one start array per scenario")
    p.set_defaults(func=cmd_build_table)

    p = sub.add_parser("solve", help="run the full refinement loop")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="artifact directory")
    p.add_argument("--table", help="also dump the final table here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="replay a table against events")
    p.add_argument("--table", required=True, help="table dump path")
    p.add_argument("--config", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--script", help="event script JSON path")
    group.add_argument("--sample-seed", type=int,
                       help="draw events from the start distributions")
    p.add_argument("--out", help="write the per-slot report CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="cost curve over battery capacities")
    p.add_argument("--config", required=True)
    p.add_argument("--capacities", required=True,
                   help="comma-separated capacities in Wh, ascending")
    p.add_argument("--out", required=True, help="sweep CSV destination")
    p.add_argument("--no-ns", action="store_true",
                   help="drop non-schedulable appliances first")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify",
                       help="compare the table builder with exhaustive search")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1,
                   help="number of consecutive seeds to check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("presets", help="list built-in instances")
    p.set_defaults(func=cmd_presets)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except IntegrityError as err:
        print(f"integrity error: {err}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (ConfigError, ModelError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except PacesError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
