"""Per-layer tracing, installed from outside the package.

The tracer replaces each target function, in every ``matchwise``
module that holds it under a module-level name, with a wrapper that
records a span (id, name, start, end, parent id) and the call's
duration.  Self time is a span's duration minus the time of the
wrapped calls made inside it.  Three wrapper kinds exist:

* ``span``: one span per call;
* ``leaf``: calls are counted and timed but not spanned, for functions
  called hundreds of thousands of times per pass.  A leaf must not
  call another target, or its time would be subtracted twice;
* ``generator``: each item drawn from the returned generator is timed
  as a leaf call and counted.

A target that no longer exists (renamed or inlined) is skipped, and
every metric that needs it reads null with a note instead of failing.
"""

from __future__ import annotations

import statistics
import sys
import time

TARGETS = (
    ("cli", "main", "span"),
    ("search", "max_kwise_family", "span"),
    ("search", "apply_permutation", "leaf"),
    ("families", "kwise_witness", "span"),
    ("families", "enumerate_family", "span"),
    ("orders", "enumerate_good_orders", "generator"),
    ("orders", "intervals", "leaf"),
    ("orders", "saturation", "span"),
    ("orders", "connectivity_check", "span"),
    ("orders", "construct_order_containing", "span"),
    ("arcs", "assign_indices", "span"),
    ("arcs", "common_index", "span"),
    ("fuzz", "run_fuzz", "span"),
)

# Counters read off a target's return value, by result attribute.
OBSERVERS = {
    "search.max_kwise_family": lambda res: {
        "search.nodes": res.explored_nodes,
        "search.witnesses": len(res.witnesses)},
    "orders.saturation": lambda res: {
        "orders.saturation.saturated": int(res.saturated)},
    "arcs.assign_indices": lambda res: {
        "arcs.assign_indices.covering": int(not res.bounded)},
    "fuzz.run_fuzz": lambda res: {
        "fuzz.trials": res.trials,
        "fuzz.conforming": res.conforming,
        "fuzz.attempts": res.conforming + res.nonconforming},
}


class Missing(Exception):
    """A metric's input was not recorded; the message says why."""


class Tracer:
    def __init__(self, package, observers=None):
        self.package = package
        self.observers = OBSERVERS if observers is None else observers
        self.notes: dict[str, str] = {}   # target or counter -> why absent
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Start a new pass: clear statistics, counters and spans.

        Call before ``install``: the wrappers bind the records of the
        pass they are installed for.
        """
        self.stats = {f"{mod}.{fn}": [0, 0.0, 0.0, 0]
                      for mod, fn, _ in TARGETS}  # calls, total, self, items
        self.counters: dict[str, int] = {}
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._stack = [[0, 0.0, 0.0]]  # span id, start, time in children
        self._next_id = 1

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _span(self, name, fn, observe):
        st, stack, spans, perf = self.stats[name], self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [self._next_id, 0.0, 0.0]
            self._next_id += 1
            parent = stack[-1]
            stack.append(frame)
            frame[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[1]
                parent[2] += dur
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                spans.append((frame[0], name, frame[1], end, parent[0]))
            if observe is not None:
                self._observe(name, observe, result)
            return result
        return wrapper

    def _leaf(self, name, fn):
        st, stack, perf = self.stats[name], self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack[-1][2] += dur
                st[0] += 1
                st[1] += dur
                st[2] += dur
        return wrapper

    def _generator(self, name, fn):
        st, stack, perf = self.stats[name], self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            st[0] += 1
            it = fn(*args, **kwargs)

            def items():
                while True:
                    t0 = perf()
                    try:
                        item = next(it)
                        done = False
                    except StopIteration:
                        done = True
                    dur = perf() - t0
                    stack[-1][2] += dur
                    st[1] += dur
                    st[2] += dur
                    if done:
                        return
                    st[3] += 1
                    yield item
            return items()
        return wrapper

    def _observe(self, name, observe, result) -> None:
        try:
            values = observe(result)
        except (AttributeError, TypeError) as exc:
            self.notes.setdefault(name + " result", f"cannot read {name} result: {exc}")
            return
        for key, value in values.items():
            self.count(key, value)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Patch every module-level reference to each target."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == self.package.__name__
                                         or key.startswith(self.package.__name__ + "."))]
        for mod, fn_name, kind in TARGETS:
            name = f"{mod}.{fn_name}"
            module = getattr(self.package, mod, None)
            fn = getattr(module, fn_name, None) if module is not None else None
            if not callable(fn):
                self.notes[name] = f"{self.package.__name__}.{name} not found"
                continue
            if kind == "span":
                wrapper = self._span(name, fn, self.observers.get(name))
            elif kind == "leaf":
                wrapper = self._leaf(name, fn)
            else:
                wrapper = self._generator(name, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patches.append((m, attr, fn))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def _stat(self, name: str, field: int):
        if name in self.notes:
            raise Missing(self.notes[name])
        return self.stats[name][field]

    def calls(self, name: str) -> int:
        return self._stat(name, 0)

    def total_s(self, name: str) -> float:
        return self._stat(name, 1)

    def self_s(self, name: str) -> float:
        return self._stat(name, 2)

    def items(self, name: str) -> int:
        return self._stat(name, 3)

    def counter(self, key: str, source: str) -> int:
        """A counter filled by ``source``'s observer (0 if never called)."""
        self._stat(source, 0)
        if source + " result" in self.notes:
            raise Missing(self.notes[source + " result"])
        return self.counters.get(key, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, reader).  Ratios read 0 when nothing was attempted.
METRICS = {
    "search.nodes": ("count", lambda t: t.counter("search.nodes", "search.max_kwise_family")),
    "search.nodes_per_s": ("1/s", lambda t: _ratio(
        t.counter("search.nodes", "search.max_kwise_family"),
        t.total_s("search.max_kwise_family"))),
    "search.max_kwise_family.self_s": ("s", lambda t: t.self_s("search.max_kwise_family")),
    "search.apply_permutation.calls": ("count", lambda t: t.calls("search.apply_permutation")),
    "search.apply_permutation.s": ("s", lambda t: t.total_s("search.apply_permutation")),
    "search.witnesses": ("count", lambda t: t.counter("search.witnesses", "search.max_kwise_family")),
    "families.kwise_witness.calls": ("count", lambda t: t.calls("families.kwise_witness")),
    "families.kwise_witness.self_s": ("s", lambda t: t.self_s("families.kwise_witness")),
    "families.enumerate_family.calls": ("count", lambda t: t.calls("families.enumerate_family")),
    "families.enumerate_family.self_s": ("s", lambda t: t.self_s("families.enumerate_family")),
    "orders.enumerate_good_orders.orders": ("count", lambda t: t.items("orders.enumerate_good_orders")),
    "orders.enumerate_good_orders.s": ("s", lambda t: t.total_s("orders.enumerate_good_orders")),
    "orders.intervals.calls": ("count", lambda t: t.calls("orders.intervals")),
    "orders.intervals.self_s": ("s", lambda t: t.self_s("orders.intervals")),
    "orders.saturation.calls": ("count", lambda t: t.calls("orders.saturation")),
    "orders.saturation.self_s": ("s", lambda t: t.self_s("orders.saturation")),
    "orders.saturation.saturated_ratio": ("ratio", lambda t: _ratio(
        t.counter("orders.saturation.saturated", "orders.saturation"),
        t.calls("orders.saturation"))),
    "orders.connectivity_check.s": ("s", lambda t: t.total_s("orders.connectivity_check")),
    "orders.construct_order_containing.calls": ("count", lambda t: t.calls("orders.construct_order_containing")),
    "orders.construct_order_containing.self_s": ("s", lambda t: t.self_s("orders.construct_order_containing")),
    "arcs.assign_indices.calls": ("count", lambda t: t.calls("arcs.assign_indices")),
    "arcs.assign_indices.self_s": ("s", lambda t: t.self_s("arcs.assign_indices")),
    "arcs.assign_indices.covering_ratio": ("ratio", lambda t: _ratio(
        t.counter("arcs.assign_indices.covering", "arcs.assign_indices"),
        t.calls("arcs.assign_indices"))),
    "arcs.common_index.calls": ("count", lambda t: t.calls("arcs.common_index")),
    "arcs.common_index.self_s": ("s", lambda t: t.self_s("arcs.common_index")),
    "fuzz.run_fuzz.self_s": ("s", lambda t: t.self_s("fuzz.run_fuzz")),
    "fuzz.trials": ("count", lambda t: t.counter("fuzz.trials", "fuzz.run_fuzz")),
    "fuzz.conforming_ratio": ("ratio", lambda t: _ratio(
        t.counter("fuzz.conforming", "fuzz.run_fuzz"),
        t.counter("fuzz.attempts", "fuzz.run_fuzz"))),
    "cli.main.calls": ("count", lambda t: t.calls("cli.main")),
    "cli.main.self_s": ("s", lambda t: t.self_s("cli.main")),
    "cli.output_bytes": ("bytes", lambda t: t.counter("cli.output_bytes", "cli.main")),
}


def read_pass(tracer: Tracer) -> dict[str, float | None]:
    """Every metric of the pass just traced; None where it is missing."""
    values = {}
    for name, (_, reader) in METRICS.items():
        try:
            values[name] = reader(tracer)
        except Missing as exc:
            values[name] = None
            tracer.notes.setdefault(name, str(exc))
    return values


def combine(passes: list[dict[str, float | None]], notes: dict[str, str]) -> dict:
    """Median of each metric over traced passes, in the result format.

    Counts take the lower median, so they stay whole numbers.
    """
    out = {}
    for name, (unit, _) in METRICS.items():
        values = [p[name] for p in passes if p[name] is not None]
        median = statistics.median_low if unit in ("count", "bytes") else statistics.median
        entry = {"value": median(values) if values else None, "unit": unit}
        if not values:
            entry["note"] = notes.get(name, "not recorded")
        out[name] = entry
    return out
