"""Per-state references read from the raw model, for tests of the table.

Nothing here touches the table builder's engine or its start options:
the states and decisions are re-derived from the instance's own fields,
so a test that compares a table against them checks the builder against
an independent reading of the model.
"""
import itertools

from paces import Decision, SystemState


def all_states(instance):
    """Every discretized state: battery levels ascending, then remaining
    vectors ascending lexicographically."""
    step = instance.battery.grid_step_wh
    ranges = [range(a.duration_slots + 1) for a in instance.appliances]
    return [SystemState(battery_wh=i * step, remaining=combo)
            for i in range(instance.battery.n_levels)
            for combo in itertools.product(*ranges)]


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
        draws.append(sum(
            app.power_w for app, s in zip(inst.ns_appliances, sc.starts)
            if s is not None and s <= t <= s + app.runtime_slots - 1))

    out = []
    for starts in sorted(itertools.product((False, True),
                                           repeat=len(inst.appliances)),
                         key=lambda s: (sum(s), s)):
        if any(s and not new for s, new in zip(starts, unstarted)):
            continue
        # a starting appliance and one part-way through its run both draw
        y = sum(a.power_w for a, s, r in zip(inst.appliances, starts,
                                             state.remaining)
                if s or 0 < r < a.duration_slots)
        for k in sorted(moves, key=lambda k: (abs(k), k)):
            delta = k * bat.grid_step_wh
            if all(abs(y + delta / h + w - pol.l_bar_w)
                   <= pol.lambda_w + pol.tolerance_w for w in draws):
                out.append(Decision(starts=starts, battery_delta_wh=delta))
    return out
