"""Spans and counters around the public functions of hbcalc, installed from outside.

Nothing under src/ is edited: the tracer replaces functions and methods by
wrappers at run time, in every hbcalc module namespace that binds them by
name (``orbits`` imports ``spectrum_from_loop`` from ``spectral``, for
example), and restores them on ``uninstall``.  ``numpy.linalg.eigh`` is
wrapped too, so the eigensolver is seen whichever hbcalc function calls it.

Declared functions (``SPANS``) record a span: name, start, end, parent span
and the op it belongs to.  Every other public function of the six modules is
counted only.  Spans stay in memory; ``summary`` turns them into totals, self
times and group (union) times.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import os
import sys
import time
from collections import Counter

import numpy as np

MODULES = ("cli", "orbits", "spectral", "buildings", "index_calculus", "degeneration")

#: span name -> (module, attribute path); a missing target is skipped
SPANS = {
    "cli.main": ("cli", "main"),
    "cli.load_catalog": ("cli", "load_catalog"),
    "cli.load_building": ("cli", "load_building"),
    "cli.load_asymptotics": ("cli", "load_asymptotics"),
    "cli.index_report_to_data": ("cli", "index_report_to_data"),
    "cli.building_to_data": ("cli", "building_to_data"),
    "cli._dump_json": ("cli", "_dump_json"),
    "cli._violations_data": ("cli", "_violations_data"),
    "cli._print_index_report": ("cli", "_print_index_report"),
    "cli._print_violations": ("cli", "_print_violations"),
    "orbits.Catalog.__init__": ("orbits", "Catalog.__init__"),
    "orbits.Catalog.cz_via_crossing": ("orbits", "Catalog.cz_via_crossing"),
    "spectral.eigh": None,  # numpy.linalg.eigh
    "spectral.build_operator": ("spectral", "build_operator"),
    "spectral.FlowLoop.cover": ("spectral", "FlowLoop.cover"),
    "spectral.FlowLoop.resample": ("spectral", "FlowLoop.resample"),
    "spectral.FlowLoop.value_at": ("spectral", "FlowLoop.value_at"),
    "spectral.spectrum_from_loop": ("spectral", "spectrum_from_loop"),
    "spectral.cz_crossing": ("spectral", "cz_crossing"),
    "spectral.monodromy": ("spectral", "monodromy"),
    "buildings.core": ("buildings", "core"),
    "buildings.augment": ("buildings", "augment"),
    "index_calculus.index_report": ("index_calculus", "index_report"),
    "index_calculus.verify_additivity": ("index_calculus", "verify_additivity"),
    "index_calculus.component_reports": ("index_calculus", "component_reports"),
    "degeneration.validate_nice": ("degeneration", "validate_nice"),
    "degeneration.classify_stable_limit": ("degeneration", "classify_stable_limit"),
    "degeneration.enumerate_limits": ("degeneration", "enumerate_limits"),
}

#: counted methods (module-level public functions are counted automatically)
COUNTED_METHODS = {
    "orbits.Catalog.table": ("orbits", "Catalog.table"),
    "orbits.Catalog.cz_index": ("orbits", "Catalog.cz_index"),
    "orbits.Catalog.alpha": ("orbits", "Catalog.alpha"),
    "buildings.Building.component": ("buildings", "Building.component"),
    "buildings.Building.external_sites": ("buildings", "Building.external_sites"),
}

#: spans whose nested members count once (union of their intervals)
GROUPS = {
    "resample": ("spectral.FlowLoop.cover", "spectral.FlowLoop.resample",
                 "spectral.FlowLoop.value_at"),
    "render": ("cli.index_report_to_data", "cli.building_to_data", "cli._dump_json",
               "cli._violations_data", "cli._print_index_report", "cli._print_violations",
               "bench.render"),
}


def _rk4_steps(loop, cover=1, steps=None) -> int:
    """RK4 steps the seed integrator takes for one call (computed, not observed)."""
    n_steps = steps or max(2048, 256 * int(math.ceil(loop.strength() + 1)))
    return cover * n_steps


# Hooks see the tracer, whether the call is inside an op, and the call's
# arguments (pre) or its result (post; None when the call raised).


def _eigh(tracer, counting, a, *args, **kwargs):
    if counting:
        dim = int(np.shape(a)[-1])
        c = tracer.counts
        c["eigh_flops"] += dim**3
        c["operator_bytes"] += np.asarray(a).itemsize * dim**2
        c["dense_dim_max"] = max(c["dense_dim_max"], dim)


def _value_at(tracer, counting, loop, ts):
    if counting:
        tracer.counts["value_at_points"] += int(np.size(ts))


def _integrate(tracer, counting, *args, **kwargs):
    if counting:
        tracer.counts["rk4_steps"] += _rk4_steps(*args, **kwargs)


def _solve(tracer, counting, *args, **kwargs):
    if counting and tracer.active["orbits.Catalog.table"]:
        tracer.counts["table_solves"] += 1
        tracer.solves[tracer._tables[-1]] += 1


def _table(tracer, counting, catalog, ref, *args, **kwargs):
    # the cover whose table is looked up, to attribute solves to covers
    tracer._tables.append((catalog, ref.simple, ref.k))


def _table_done(tracer, counting, result):
    tracer._tables.pop()


def _cz_index(tracer, counting, *args, **kwargs):
    if counting and tracer.active["index_calculus.index_report"]:
        tracer.counts["cz_index_in_report"] += 1


def _enumerate(tracer, counting, catalog, asymptotics):
    if counting:
        masks = 2 ** len(asymptotics.punctures)
        tracer.counts["enumerate_masks"] += masks
        tracer._enumerate = (masks, tracer.counts["enumerate_candidates"])


def _enumerate_done(tracer, counting, result):
    if not counting or result is None:
        return
    masks, before = tracer._enumerate
    tracer.counts["enumerate_limits_found"] += len(result)
    tracer.counts["enumerate_attempts"] += masks * (tracer.counts["enumerate_candidates"] - before)


def _candidates_done(tracer, counting, result):
    if counting and result is not None and tracer.active["degeneration.enumerate_limits"]:
        tracer.counts["enumerate_candidates"] += len(result)


def _load(tracer, counting, filename, *args, **kwargs):
    if counting:
        tracer.counts["input_bytes"] += os.path.getsize(filename)


PRE_HOOKS = {
    "spectral.eigh": _eigh,
    "spectral.FlowLoop.value_at": _value_at,
    "spectral.cz_crossing": _integrate,
    "spectral.monodromy": _integrate,
    "spectral.spectrum_from_loop": _solve,
    "orbits.Catalog.table": _table,
    "orbits.Catalog.cz_index": _cz_index,
    "degeneration.enumerate_limits": _enumerate,
    "cli.load_catalog": _load,
    "cli.load_building": _load,
    "cli.load_asymptotics": _load,
}
POST_HOOKS = {
    "orbits.Catalog.table": _table_done,
    "degeneration.enumerate_limits": _enumerate_done,
    "degeneration.breaking_candidates": _candidates_done,
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (op, span id, parent id, name, start, end)
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self.solves: Counter = Counter()  # (catalog, orbit, k) -> solves
        self.op = None
        self._stack: list[int] = []
        self._tables: list[tuple] = []
        self._enumerate = (0, 0)  # (masks, candidates seen before) of the call in flight
        self._patches: list[tuple] = []

    # --- recording ------------------------------------------------------

    def _enter(self, name) -> tuple:
        self.active[name] += 1
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _exit(self, name, frame) -> None:
        end = time.perf_counter()
        sid, parent, start = frame
        self._stack.pop()
        self.active[name] -= 1
        self.spans[sid] = (self.op, sid, parent, name, start, end)

    @contextlib.contextmanager
    def span(self, name):
        """A span around benchmark code (for steps with no hbcalc function)."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, frame)

    def _wrap(self, name, fn, timed):
        tracer = self
        counts = self.counts
        pre, post = PRE_HOOKS.get(name), POST_HOOKS.get(name)
        if not (timed or pre or post):

            def counted(*args, **kwargs):
                if tracer.op is not None:
                    counts[name] += 1
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            return counted

        def wrapper(*args, **kwargs):
            counting = tracer.op is not None
            if counting:
                counts[name] += 1
            if pre:
                pre(tracer, counting, *args, **kwargs)
            result = None
            if timed:
                frame = tracer._enter(name)
            else:
                tracer.active[name] += 1
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if timed:
                    tracer._exit(name, frame)
                else:
                    tracer.active[name] -= 1
                if post:
                    post(tracer, counting, result)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- installation ---------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper):
        """Replace `original` in every loaded hbcalc module that binds it."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "hbcalc" or modname.startswith("hbcalc.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"hbcalc.{m}") for m in MODULES}
        self._set(np.linalg, "eigh", self._wrap("spectral.eigh", np.linalg.eigh, True))
        targets = dict(COUNTED_METHODS)
        targets.update({k: v for k, v in SPANS.items() if v is not None})
        for mod in MODULES:
            for attr, value in vars(modules[mod]).items():
                if (not attr.startswith("_") and callable(value) and not isinstance(value, type)
                        and getattr(value, "__module__", None) == f"hbcalc.{mod}"):
                    targets.setdefault(f"{mod}.{attr}", (mod, attr))
        for name, (mod, path) in sorted(targets.items()):
            owner = modules[mod]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, name in SPANS)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
            else:
                self._rebind_everywhere(original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # --- summary --------------------------------------------------------

    def summary(self, ops_only: bool = True) -> dict:
        """Totals per span name, self times, group unions and counters.

        With ops_only, spans recorded outside an op (op None) are left out.
        """
        spans = [s for s in self.spans if s is not None and (s[0] is not None or not ops_only)]
        by_id = {s[1]: s for s in spans}
        total: Counter = Counter()
        child: Counter = Counter()
        for _, sid, parent, name, start, end in spans:
            total[name] += end - start
            if parent in by_id:
                child[parent] += end - start
        self_time: Counter = Counter()
        for _, sid, _, name, start, end in spans:
            self_time[name] += end - start - child[sid]
        group_time: Counter = Counter()
        member = {n: g for g, names in GROUPS.items() for n in names}
        for _, sid, parent, name, start, end in spans:
            group = member.get(name)
            if group is None:
                continue
            # count only spans without an ancestor of the same group
            p = parent
            nested = False
            while p in by_id:
                if member.get(by_id[p][3]) == group:
                    nested = True
                    break
                p = by_id[p][2]
            if not nested:
                group_time[group] += end - start
        per_cover = [v for v in self.solves.values() if v]
        return {
            "total": dict(total),
            "self": dict(self_time),
            "group": dict(group_time),
            "counts": dict(self.counts),
            "solved_covers": len(per_cover),
        }
