"""Per-layer call counts, self times and escaped errors for the mpmd modules.

The tracer changes no file of the package.  It wraps the public functions of
each mpmd module and rebinds every name under which an ``mpmd.*`` namespace
holds them, so calls from one module into another go through the wrappers.
The benchmark calls the package through module attributes (``engine.simulate``,
not a name imported into its own namespace), so its own calls are seen too.

A timed wrapper records calls, total time and self time: its total minus the
time of the timed calls it made.  ``distance`` and ``augmented_distance`` are
hot leaves with millions of calls per pass; they are counted, not timed, so
their time stays in the caller's self time.  ``validate_point`` runs twice per
``distance`` call and is not wrapped at all.  Private helpers are not wrapped
either; their time belongs to the public function that called them.

The program is a single thread that does no I/O inside a pass, so no layer
waits on another, and the tracer records no wait time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

MODULES = ("metric", "engine", "oracle", "instances", "harness", "verify", "cli")

COUNTED = frozenset({"metric.distance", "metric.augmented_distance"})
SKIPPED = frozenset({"metric.validate_point"})

# Functions that share a reported group; any other function is its own group,
# except in ``instances``, whose remaining functions all generate instances.
GROUPS = {
    "engine.online_cost": "engine.cost",
    "engine.offline_weight": "engine.cost",
    "oracle.Matching.from_pairs": "oracle.matching",
    "oracle.matching_from_records": "oracle.matching",
    "oracle.realize_online": "oracle.matching",
    "instances.instance_to_dict": "instances.io",
    "instances.instance_from_dict": "instances.io",
    "instances.save_instance": "instances.io",
    "instances.load_instance": "instances.io",
    "instances.instance_digest": "instances.io",
}
MODULE_GROUPS = {"instances": "instances.gen"}

# Per-layer metric name -> unit, in report order.
METRICS = {
    "metric.distance.calls": "count",
    "metric.augmented_distance.calls": "count",
    "engine.simulate.calls": "count",
    "engine.simulate.total_s": "s",
    "engine.simulate.self_s": "s",
    "engine.cost.calls": "count",
    "engine.cost.self_s": "s",
    "oracle.opt_general.calls": "count",
    "oracle.opt_general.self_s": "s",
    "oracle.opt_bipartite.calls": "count",
    "oracle.opt_bipartite.self_s": "s",
    "oracle.brute_force_opt.self_s": "s",
    "oracle.cycle_decompose.self_s": "s",
    "oracle.restriction_check.self_s": "s",
    "oracle.matching.self_s": "s",
    "instances.gen.self_s": "s",
    "instances.io.self_s": "s",
    "harness.self_s": "s",
    "harness.eval_f.calls": "count",
    "verify.self_s": "s",
    "cli.self_s": "s",
    **{f"{module}.errors": "count" for module in MODULES},
    "trace.overhead_s": "s",
}


def group_of(qualname: str) -> str:
    module = qualname.split(".", 1)[0]
    return GROUPS.get(qualname) or MODULE_GROUPS.get(module, qualname)


class Tracer:
    """Wrappers for the mpmd modules plus the counters they feed.

    ``installed()`` rebinds the wrappers for the duration of a ``with`` block
    and restores every original binding on exit.
    """

    def __init__(self) -> None:
        # group -> [calls, total_s, self_s]; wrappers hold these lists, so
        # reset() clears them in place.
        self._stats: dict[str, list] = {}
        self._errors = {module: 0 for module in MODULES}
        # Time spent in timed callees of each open timed call.
        self._child_time: list[float] = []

    def _cell(self, group: str) -> list:
        return self._stats.setdefault(group, [0, 0.0, 0.0])

    def reset(self) -> None:
        for cell in self._stats.values():
            cell[:] = [0, 0.0, 0.0]
        for module in self._errors:
            self._errors[module] = 0

    def snapshot(self) -> dict:
        return {
            "stats": {group: list(cell) for group, cell in self._stats.items()},
            "errors": dict(self._errors),
        }

    def _counted(self, fn, group: str, module: str):
        cell = self._cell(group)
        errors = self._errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[module] += 1
                raise

        return wrapper

    def _enter(self) -> float:
        self._child_time.append(0.0)
        return time.perf_counter()

    def _leave(self, cell: list, start: float) -> None:
        elapsed = time.perf_counter() - start
        cell[0] += 1
        cell[1] += elapsed
        cell[2] += elapsed - self._child_time.pop()
        if self._child_time:
            self._child_time[-1] += elapsed

    def _timed(self, fn, group: str, module: str):
        cell = self._cell(group)
        errors = self._errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._enter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[module] += 1
                raise
            finally:
                self._leave(cell, start)

        return wrapper

    def _wrap(self, fn, qualname: str):
        module = qualname.split(".", 1)[0]
        make = self._counted if qualname in COUNTED else self._timed
        return make(fn, group_of(qualname), module)

    @contextlib.contextmanager
    def span(self, group: str):
        """Time the block as one call into ``group``; its first part names the module."""
        module = group.split(".", 1)[0]
        cell = self._cell(group)
        start = self._enter()
        try:
            yield
        except Exception:
            self._errors[module] += 1
            raise
        finally:
            self._leave(cell, start)

    @contextlib.contextmanager
    def installed(self):
        """Rebind every public mpmd function to its wrapper inside the block."""
        modules = {name: importlib.import_module(f"mpmd.{name}") for name in MODULES}
        namespaces = [
            module
            for name, module in list(sys.modules.items())
            if name == "mpmd" or name.startswith("mpmd.")
        ]
        restore: list[tuple[object, str, object]] = []
        try:
            for modname, module in modules.items():
                for name, fn in list(vars(module).items()):
                    qualname = f"{modname}.{name}"
                    if (
                        name.startswith("_")
                        or qualname in SKIPPED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                    ):
                        continue
                    wrapper = self._wrap(fn, qualname)
                    for namespace in namespaces:
                        for attr, value in list(vars(namespace).items()):
                            if value is fn:
                                restore.append((namespace, attr, fn))
                                setattr(namespace, attr, wrapper)
            matching = modules["oracle"].Matching
            from_pairs = vars(matching)["from_pairs"]
            restore.append((matching, "from_pairs", from_pairs))
            matching.from_pairs = classmethod(
                self._wrap(from_pairs.__func__, "oracle.Matching.from_pairs")
            )
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)


def layer_metrics(snapshot: dict) -> dict[str, float]:
    """Per-layer metric values (all of METRICS but trace.overhead_s)."""
    stats = snapshot["stats"]

    def field(group: str, index: int):
        return stats.get(group, [0, 0.0, 0.0])[index]

    def module_self(module: str) -> float:
        return sum(
            (cell[2] for group, cell in stats.items() if group.split(".", 1)[0] == module), 0.0
        )

    values = {
        "metric.distance.calls": field("metric.distance", 0),
        "metric.augmented_distance.calls": field("metric.augmented_distance", 0),
        "engine.simulate.calls": field("engine.simulate", 0),
        "engine.simulate.total_s": field("engine.simulate", 1),
        "engine.simulate.self_s": field("engine.simulate", 2),
        "engine.cost.calls": field("engine.cost", 0),
        "engine.cost.self_s": field("engine.cost", 2),
        "oracle.opt_general.calls": field("oracle.opt_general", 0),
        "oracle.opt_general.self_s": field("oracle.opt_general", 2),
        "oracle.opt_bipartite.calls": field("oracle.opt_bipartite", 0),
        "oracle.opt_bipartite.self_s": field("oracle.opt_bipartite", 2),
        "oracle.brute_force_opt.self_s": field("oracle.brute_force_opt", 2),
        "oracle.cycle_decompose.self_s": field("oracle.cycle_decompose", 2),
        "oracle.restriction_check.self_s": field("oracle.restriction_check", 2),
        "oracle.matching.self_s": field("oracle.matching", 2),
        "instances.gen.self_s": field("instances.gen", 2),
        "instances.io.self_s": field("instances.io", 2),
        "harness.self_s": module_self("harness"),
        "harness.eval_f.calls": field("harness.eval_f", 0),
        "verify.self_s": module_self("verify"),
        "cli.self_s": module_self("cli"),
    }
    values.update({f"{module}.errors": snapshot["errors"][module] for module in MODULES})
    return values
