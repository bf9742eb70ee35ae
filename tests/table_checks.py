"""Checks on built schedule tables shared by the table and loop tests."""
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
