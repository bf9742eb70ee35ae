"""Checks on built schedule tables shared by the table and loop tests."""
import numpy as np

from paces import EventScript, ScriptedStart, simulate


def assert_same_table(got, want):
    """Bit-equal arrays and the same model hash."""
    for name in ("values", "dec_mask", "dec_step"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.model_hash == want.model_hash


def replay(table, scenario):
    """``simulate``'s report of ``table`` under a script of ``scenario``."""
    apps = table.config.instance.ns_appliances
    script = EventScript.scripted([ScriptedStart(app.id, start)
                                   for app, start in zip(apps, scenario.starts)
                                   if start is not None])
    return simulate(table, script, table.config)


def window_rows_envelope(config):
    """The engine's window-order draws and each row's (least, greatest)
    slot draw, a (rows, 2) array."""
    y_w, offsets = config._engine.window_rows
    return y_w, np.repeat(config._envelope[1:, :, 0], np.diff(offsets),
                          axis=0)


def dense_windows(config):
    """Every option row's window by a scan of every move within the rate
    limits through the band test, with the replay's bits, each half
    checked to be monotone in the move."""
    eng = config._engine
    pol = config.instance.policy
    bound = pol.lambda_w + pol.tolerance_w
    y_w, envelope = window_rows_envelope(config)
    moves = np.arange(eng.k_rate_lo, eng.k_rate_hi + 1)
    base = y_w[:, None] + (moves * eng.step) / eng.h
    floor = (base + envelope[:, :1]) - pol.l_bar_w >= -bound
    ceiling = (base + envelope[:, 1:]) - pol.l_bar_w <= bound
    # the floor holds from some move on, the ceiling up to some move
    assert (floor[:, 1:] >= floor[:, :-1]).all()
    assert (ceiling[:, 1:] <= ceiling[:, :-1]).all()
    return np.stack((eng.k_rate_hi + 1 - floor.sum(axis=1),
                     eng.k_rate_lo - 1 + ceiling.sum(axis=1)))
