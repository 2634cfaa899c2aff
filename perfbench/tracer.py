"""Outside-in tracer for the paritykit layers.

The tracer changes no library file. It replaces each listed public
function with a timing wrapper in every ``paritykit`` module that binds
it, so calls made through ``from .reach import attractor`` style imports
and module-level aliases are timed too. A guard then refuses to run if
any ``paritykit`` module still reaches an unwrapped original, because a
layer that silently records zero calls would misreport the split.

Spans are aggregated as they close rather than stored: per name, the
number of calls, the self time (duration minus the time covered by
wrapped child spans) and the inclusive time of outermost spans only, so
recursion is not counted twice.
"""
from __future__ import annotations

import functools
import sys
import time
import types

PACKAGE = "paritykit"

# Every layer the benchmark reports, as "<module>.<function>" under the
# paritykit package.
LAYERS = (
    "pgsolver.loads",
    "game.validate",
    "game.subgame",
    "game.swap_roles",
    "reach.attractor",
    "oracle.solve_solitary",
    "oracle.solve_brute",
    "oracle.verify_strategy",
    "oracle.verify_partition",
    "zielonka.win",
    "kernel.kernelize_auto",
    "kernel.kernelize_general",
    "kernel.kernelize_bipartite",
    "kernel.lift_solution",
    "dominion.find_dominion_by_odd_nodes",
    "dominion.find_dominion_by_degree",
    "fpt.new_win1",
    "fpt.old_win1",
    "fpt.new_win2",
    "fpt.old_win2",
)


class TracerError(RuntimeError):
    """The library no longer matches the layers the tracer must wrap."""


def package_modules():
    """Every imported paritykit module, the package itself included."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _reachable(value):
    """Objects a module-level value can call without a global lookup."""
    if isinstance(value, (staticmethod, classmethod)):
        yield value.__func__
        value = value.__func__
    if isinstance(value, functools.partial):
        yield value.func
    elif isinstance(value, types.FunctionType):
        yield from value.__defaults__ or ()
        yield from (value.__kwdefaults__ or {}).values()
        for cell in value.__closure__ or ():
            try:
                yield cell.cell_contents
            except ValueError:  # empty cell
                continue
    elif isinstance(value, dict):
        yield from value.values()
    elif isinstance(value, (list, tuple, set, frozenset)):
        yield from value


def find_unwrapped(originals, wrappers=()):
    """(where, layer) for every paritykit binding that still holds an original.

    Looks at module globals, class attributes, function defaults and
    closures, partials, and containers one level deep. The `wrappers`
    themselves close over the originals and are not looked into.
    """
    by_id = {id(fn): name for name, fn in originals.items()}
    skip = {id(w) for w in wrappers}
    found = []

    def check(where, value):
        if id(value) in by_id:
            found.append((where, by_id[id(value)]))

    for mod in package_modules():
        for attr, value in list(vars(mod).items()):
            where = f"{mod.__name__}.{attr}"
            check(where, value)
            owned = getattr(value, "__module__", None) == mod.__name__
            if isinstance(value, type) and owned:
                for cattr, cvalue in vars(value).items():
                    check(f"{where}.{cattr}", cvalue)
                    for inner in _reachable(cvalue):
                        check(f"{where}.{cattr}", inner)
            elif id(value) not in skip and not isinstance(value, types.ModuleType):
                for inner in _reachable(value):
                    check(where, inner)
    return found


class Tracer:
    """Wraps the listed layers while installed and aggregates their spans."""

    def __init__(self, layers=LAYERS, nested=(), depth_group=(), observers=None):
        self.layers = tuple(layers)
        self._index = {name: i for i, name in enumerate(self.layers)}
        # (outer, inner) pairs: count inner calls made while outer is open.
        self.nested_pairs = tuple(nested)
        self._depth_ids = frozenset(self._index[name] for name in depth_group)
        self._observers = dict(observers or {})
        self._patched = []
        self._stack = []  # open spans: time covered by their children
        n = len(self.layers)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.incl_s = [0.0] * n
        self.nested = {pair: 0 for pair in self.nested_pairs}
        self.max_depth = 0
        self._open = [0] * n
        self._depth = 0

    # -- installation ---------------------------------------------------

    def _resolve(self):
        originals = {}
        for name in self.layers:
            mod_name, _, func = name.rpartition(".")
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            fn = getattr(mod, func, None) if mod is not None else None
            if not isinstance(fn, types.FunctionType):
                raise TracerError(f"layer {name} is missing from {PACKAGE}")
            originals[name] = fn
        return originals

    def install(self):
        """Wrap every layer in every paritykit module, then run the guard."""
        if self._patched:
            raise TracerError("tracer is already installed")
        originals = self._resolve()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, value))
        left = find_unwrapped(originals, wrappers.values())
        if left:
            self.uninstall()
            where = ", ".join(f"{w} -> {layer}" for w, layer in left)
            raise TracerError(f"unwrapped layer bindings remain: {where}")

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans -----------------------------------------------------------

    def _wrap(self, name, fn):
        idx = self._index[name]
        observe = self._observers.get(name)
        in_depth = idx in self._depth_ids
        watchers = [
            (pair, self._index[pair[0]])
            for pair in self.nested_pairs
            if pair[1] == name
        ]
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for pair, outer in watchers:
                if self._open[outer]:
                    self.nested[pair] += 1
            if in_depth:
                self._depth += 1
                if self._depth > self.max_depth:
                    self.max_depth = self._depth
            self._open[idx] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                self._open[idx] -= 1
                if in_depth:
                    self._depth -= 1
                self.calls[idx] += 1
                self.self_s[idx] += dur - frame[0]
                if not self._open[idx]:
                    self.incl_s[idx] += dur
                if stack:
                    stack[-1][0] += dur
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def counts(self):
        """Every deterministic counter, keyed for comparison and digests."""
        out = {f"{name}.calls": c for name, c in zip(self.layers, self.calls)}
        for (outer, inner), c in self.nested.items():
            out[f"{outer}>{inner}"] = c
        out["max_depth"] = self.max_depth
        return out
