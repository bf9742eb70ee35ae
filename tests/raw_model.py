"""References read from the raw model, for tests of the table and replay.

Nothing here touches the table builder's engine or its start options:
the states, decisions and walks are re-derived from the instance's own
fields and the table's public arrays, and a decision's next remaining
vector and draw are computed here (:func:`step_remaining`,
:func:`appliance_load`), so a test that compares the package against
them checks it against an independent reading of the model.
"""
import itertools
from dataclasses import dataclass

from paces import (Decision, ModelError, SystemState, privacy_gap,
                   scenario_load, slot_cost)


def sum_left_to_right(values):
    """``values`` added left to right from 0, the order the package sums
    in on every Python version; the built-in ``sum`` compensates float
    roundoff from Python 3.12 on and would give other bits."""
    total = 0
    for value in values:
        total = total + value
    return total


def step_remaining(state, decision, durations):
    """Remaining-work vector at the next slot.

    An appliance that starts this slot, or that has started earlier and
    is still owed work, sheds one slot of work; everything else is
    unchanged.  Starting an appliance already started raises
    :class:`ModelError`.
    """
    out = []
    for r, s, dur in zip(state.remaining, decision.starts, durations):
        if s and r != dur:
            raise ModelError(
                f"cannot start an appliance with {r} of {dur} slots remaining")
        running = s or r < dur
        out.append(r - 1 if running and r > 0 else r)
    return tuple(out)


def appliance_load(remaining_now, remaining_next, powers_w):
    """Schedulable draw implied by the work decrement, summed from 0 in
    appliance order."""
    return float(sum_left_to_right(
        p * (rn - rx)
        for rn, rx, p in zip(remaining_now, remaining_next, powers_w)))


@dataclass(frozen=True)
class ReferenceReplay:
    """A reference walk with its scenario scored, slot by slot."""

    decisions: tuple
    states: tuple
    base_load_w: tuple
    ns_load_w: tuple
    load_w: tuple
    privacy_gap_w: tuple
    slot_costs: tuple
    controllable_cost: float
    total_cost: float


def all_states(instance):
    """Every discretized state: battery levels ascending, then remaining
    vectors ascending lexicographically."""
    step = instance.battery.grid_step_wh
    ranges = [range(a.duration_slots + 1) for a in instance.appliances]
    return [SystemState(battery_wh=i * step, remaining=combo)
            for i in range(instance.battery.n_levels)
            for combo in itertools.product(*ranges)]


def reference_cell(instance, state):
    """The table cell ``(r_idx, b_idx)`` of ``state``: the remaining
    vector as an odometer over ``0..duration``, last appliance fastest,
    and the battery level through ``Battery.level_index``."""
    r_idx = 0
    for r, a in zip(state.remaining, instance.appliances):
        r_idx = r_idx * (a.duration_slots + 1) + r
    return r_idx, instance.battery.level_index(state.battery_wh)


def reference_decisions(state, t, config):
    """Every admissible decision at ``(state, t)``, on the grid.

    A decision starts only unstarted appliances, moves the battery by a
    whole number of grid steps within the rate bounds and the capacity,
    and keeps the metered load within ``lambda_w`` plus the policy's
    tolerance of the reference under every scenario of ``config``.  An
    unstarted appliance that can no longer finish by the horizon leaves
    no decision at all.  Decisions are listed by start vector (fewer
    starts first, then ascending), then by battery move in ``(|k|, k)``
    order.
    """
    inst = config.instance
    bat, pol = inst.battery, inst.policy
    h, tau = inst.grid.slot_hours, inst.grid.tau
    unstarted = [r == a.duration_slots
                 for r, a in zip(state.remaining, inst.appliances)]
    if any(new and t + a.duration_slots - 1 > tau
           for new, a in zip(unstarted, inst.appliances)):
        return []
    level = round(state.battery_wh / bat.grid_step_wh)
    moves = [k for k in range(-level, bat.n_levels - level)
             if -bat.z_discharge_max_wh <= k * bat.grid_step_wh
             <= bat.z_charge_max_wh]
    draws = []
    for sc in config.scenarios:
        draws.append(sum_left_to_right(
            app.power_w for app, s in zip(inst.ns_appliances, sc.starts)
            if s is not None and s <= t <= s + app.runtime_slots - 1))

    out = []
    for starts in sorted(itertools.product((False, True),
                                           repeat=len(inst.appliances)),
                         key=lambda s: (sum(s), s)):
        if any(s and not new for s, new in zip(starts, unstarted)):
            continue
        # a starting appliance and one part-way through its run both draw
        y = sum_left_to_right(
            a.power_w for a, s, r in zip(inst.appliances, starts,
                                         state.remaining)
            if s or 0 < r < a.duration_slots)
        for k in sorted(moves, key=lambda k: (abs(k), k)):
            delta = k * bat.grid_step_wh
            if all(abs(y + delta / h + w - pol.l_bar_w)
                   <= pol.lambda_w + pol.tolerance_w for w in draws):
                out.append(Decision(starts=starts, battery_delta_wh=delta))
    return out


def reference_replay(table, initial_state, scenario):
    """The forward walk from ``initial_state``, one object per slot.

    Each slot finds its cell from the state's own fields
    (:func:`reference_cell`), then applies the stored decision with the
    model's per-slot functions.  It walks tables whose walk succeeds; a
    dead cell fails an assertion.
    """
    inst = table.config.instance
    bat, h = inst.battery, inst.grid.slot_hours
    durations = tuple(a.duration_slots for a in inst.appliances)
    powers = tuple(a.power_w for a in inst.appliances)
    state = initial_state
    decisions, states = [], [state]
    base_loads, ns_loads, loads, gaps, costs = [], [], [], [], []
    for t in range(1, inst.grid.tau + 1):
        r_idx, b_idx = reference_cell(inst, state)
        mask = int(table.dec_mask[t - 1, r_idx, b_idx])
        assert mask >= 0, f"dead cell at slot {t}"
        k = int(table.dec_step[t - 1, r_idx, b_idx])
        decision = Decision(
            starts=tuple(bool(mask >> i & 1) for i in range(len(durations))),
            battery_delta_wh=float(k * bat.grid_step_wh))
        remaining = step_remaining(state, decision, durations)
        level = (b_idx + round(decision.battery_delta_wh / bat.grid_step_wh)
                 ) * bat.grid_step_wh
        base = (appliance_load(state.remaining, remaining, powers)
                + decision.battery_delta_wh / h)
        ns = scenario_load(scenario, inst.ns_appliances, t)
        load = base + ns
        decisions.append(decision)
        base_loads.append(base)
        ns_loads.append(ns)
        loads.append(load)
        gaps.append(privacy_gap(load, inst.policy))
        costs.append(slot_cost(load, inst.price.at(t), h))
        state = SystemState(battery_wh=level, remaining=remaining)
        states.append(state)
    controllable = sum_left_to_right(
        slot_cost(b, inst.price.at(t), h)
        for t, b in enumerate(base_loads, start=1))
    return ReferenceReplay(
        decisions=tuple(decisions), states=tuple(states),
        base_load_w=tuple(base_loads), ns_load_w=tuple(ns_loads),
        load_w=tuple(loads), privacy_gap_w=tuple(gaps),
        slot_costs=tuple(costs), controllable_cost=float(controllable),
        total_cost=float(sum_left_to_right(costs)))


def reference_report_csv(instance, solution):
    """The replay report's CSV, row by row from a :class:`ReferenceReplay`."""
    pol = instance.policy
    bound = pol.lambda_w + pol.tolerance_w
    lines = ["slot,price_per_wh,base_load_w,ns_load_w,load_w,battery_wh,"
             "battery_delta_wh,started,privacy_gap_w,breach,cost"]
    for t, decision in enumerate(solution.decisions, start=1):
        started = ";".join(a.id for a, s in zip(instance.appliances,
                                                decision.starts) if s)
        gap = solution.privacy_gap_w[t - 1]
        lines.append(",".join([
            str(t), repr(instance.price.at(t)),
            repr(solution.base_load_w[t - 1]), repr(solution.ns_load_w[t - 1]),
            repr(solution.load_w[t - 1]),
            repr(solution.states[t - 1].battery_wh),
            repr(decision.battery_delta_wh), started, repr(gap),
            str(int(abs(gap) > bound)), repr(solution.slot_costs[t - 1])]))
    return "\n".join(lines) + "\n"
