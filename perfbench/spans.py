"""Span tracing around the package's public functions, from outside.

``Tracer.install`` rebinds each traced function in every ``paces``
module that imported it (``from .table import backward_recursion``
copies the name, so patching ``paces.table`` alone would miss the call
in ``paces.scenarios``) and wraps ``ScheduleTable.entry``.  Each call
becomes one span: name, start, end, parent, operation id.  Spans stay in
memory until :meth:`Tracer.write`; a span's self time is its duration
minus the part its child spans cover.
"""
from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Optional

# field positions in a span record
NAME, OP, START, END, PARENT, CHILD_S, INFO, OK = range(8)


def _state_slots(args, kwargs) -> dict:
    from paces.table import state_count
    inst = (args[0] if args else kwargs["config"]).instance
    return {"state_slots": state_count(inst.appliances, inst.battery)
            * inst.grid.tau}


def _candidates(args, kwargs) -> dict:
    cands = args[1] if len(args) > 1 else kwargs["candidates"]
    return {"candidates": len(cands)}


def _replay_slots(args, kwargs) -> dict:
    config = args[2] if len(args) > 2 else kwargs["config"]
    return {"slots": config.instance.grid.tau}


def _sweep_points(args, kwargs) -> dict:
    caps = args[1] if len(args) > 1 else kwargs["capacities"]
    return {"points": len(caps)}


def _solve_result(result, info: dict) -> None:
    # keep only what the widening ratio needs, not the table arrays
    info["instance"] = result.config.instance
    info["rebuilds"] = [rec.scenario for rec in result.trace.records
                        if rec.scenario is not None]
    info["omega"] = len(result.omega)


def _replay_result(result, info: dict) -> None:
    info["breaches"] = result.breach_count


def _sweep_result(result, info: dict) -> None:
    info["infeasible"] = sum(not p.feasible for p in result)


#: (defining module, function, span name, before-hook, after-hook)
TRACED = (
    ("paces.cli", "main", "cli.main", None, None),
    ("paces.config", "load_config", "config.load", None, None),
    ("paces.table", "backward_recursion", "table.build", _state_slots, None),
    ("paces.table", "extract_schedule", "table.extract", None, None),
    ("paces.table", "save_table", "table.save", None, None),
    ("paces.table", "read_table_header", "table.header", None, None),
    ("paces.table", "load_table", "table.load", None, None),
    ("paces.table", "model_fingerprint", "table.fingerprint", None, None),
    ("paces.scenarios", "find_worst_scenario", "scenarios.worst",
     _candidates, None),
    ("paces.scenarios", "solve_with_scenarios", "scenarios.solve", None,
     _solve_result),
    ("paces.simulate", "simulate", "simulate.replay", _replay_slots,
     _replay_result),
    ("paces.simulate", "sweep_battery", "simulate.sweep", _sweep_points,
     _sweep_result),
)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.op: Optional[int] = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, before=None, after=None):
        """``fn`` with a span recorded around every call."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = before(args, kwargs) if before is not None else None
            parent = stack[-1] if stack else -1
            rec = [name, self.op, 0.0, 0.0, parent, 0.0, info, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
                rec[OK] = True
                return result
            finally:
                rec[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_S] += rec[END] - rec[START]
                if rec[OK] and after is not None:
                    if rec[INFO] is None:
                        rec[INFO] = {}
                    after(result, rec[INFO])
        return traced

    def install(self) -> None:
        """Rebind every traced name wherever a ``paces`` module holds it."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "paces" or name.startswith("paces.")]
        for home, attr, name, before, after in TRACED:
            original = getattr(sys.modules[home], attr)
            wrapped = self.wrap(name, original, before, after)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        table_cls = sys.modules["paces.table"].ScheduleTable
        self._undo.append((table_cls, "entry", table_cls.entry))
        table_cls.entry = self.wrap("table.entry", table_cls.entry)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Dump every span as CSV: name, op, start, end, parent, self_s."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,op,start_s,end_s,parent,self_s\n")
            for rec in self.spans:
                fh.write(f"{rec[NAME]},{rec[OP]},{rec[START]!r},{rec[END]!r},"
                         f"{rec[PARENT]},{self_time(rec)!r}\n")


def self_time(rec: list) -> float:
    return rec[END] - rec[START] - rec[CHILD_S]
