"""Per-layer tracing by wrapping the package's functions at run time.

Nothing under `src/` changes.  `Tracer.install()` replaces every public
function of the eight modules, and the arithmetic methods of their main
classes, with a wrapper that records one span per call.  Names bound
elsewhere with `from ... import` (for example `charts.change_basis` or
`symplectic.is_zero_scalar`) are found by identity in every loaded
`fedosov` module and patched as well.  `uninstall()` puts every original
attribute back.

Self time is kept online: a span's self time is its duration minus the
durations of its direct children, so summing self time over all spans
gives exactly the duration of the root spans the benchmark opens around
each step.  Every call adds to per-name counts and self times; calls of
module-level functions are also kept as span records (name, start, end,
parent span, item id) in memory and written out when the run ends.  The
arithmetic methods run far too often to keep one record per call.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager

LAYERS = ("rationals", "linalg", "symplectic", "decomposition", "models",
          "charts", "reporting", "cli")

# Classes whose methods are traced, by module.
CLASSES = {
    "rationals": ("Polynomial", "RationalFunction"),
    "symplectic": ("Tensor",),
    "models": ("LieAlgebraPresentation",),
    "reporting": ("Report",),
}

# Never wrapped: construction, hashing and element access run per
# component and would mostly measure the wrapper.
SKIPPED_METHODS = frozenset({"__init__", "__new__", "__repr__", "__hash__",
                             "__getitem__", "__post_init__"})

# Counted but not timed: trivial predicates called per component, and the
# componentwise constructors whose callbacks belong to the caller's layer.
# Their time stays in the calling span.
COUNT_ONLY = frozenset({
    "linalg.is_zero_scalar", "rationals.Polynomial.is_zero", "rationals.Polynomial.is_one",
    "rationals.RationalFunction.is_zero", "symplectic.Tensor.is_zero",
    "symplectic.Tensor.build", "symplectic.Tensor.map_components",
})

# Not wrapped: `rref` is the elimination kernel behind inverse, solve,
# nullspace and rank and is called from nowhere else, so leaving it bare
# keeps each entry point's elimination in that entry point's self time.
UNWRAPPED = frozenset({"linalg.rref"})

MARK = "__perfbench_original__"


def _recorded(key: str) -> bool:
    """Module-level functions get span records; class methods are aggregated only."""
    return key.count(".") == 1


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counters: dict[str, int] = {"reporting.checks": 0, "linalg.inverse.max_cols": 0}
        self.spans: list = []
        self.item = "setup"
        # [start, children seconds, own or nearest recorded span index, parent index, name]
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []
        self._hooks = {
            "linalg.inverse": self._inverse_hook,
            "reporting.Report.to_json": self._report_hook,
            "reporting.Report.render_text": self._report_hook,
        }

    # -- hooks that measure argument sizes -------------------------------------

    def _inverse_hook(self, args):
        cols = len(args[0][0]) if args and args[0] else 0
        if cols > self.counters["linalg.inverse.max_cols"]:
            self.counters["linalg.inverse.max_cols"] = cols

    def _report_hook(self, args):
        self.counters["reporting.checks"] += len(args[0].checks)

    # -- spans -----------------------------------------------------------------

    def _enter(self, record_name: str | None) -> list:
        parent = self._stack[-1][2] if self._stack else -1
        index = parent
        if record_name is not None:
            index = len(self.spans)
            self.spans.append(None)
        frame = [time.perf_counter(), 0.0, index, parent, record_name]
        self._stack.append(frame)
        return frame

    def _exit(self, key: str, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[0]
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = [0, 0.0]
        stat[0] += 1
        stat[1] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        if frame[4] is not None:
            self.spans[frame[2]] = (frame[4], frame[0], end, frame[3], self.item)

    def _wrap(self, key: str, fn):
        tracer = self
        record = key if _recorded(key) else None
        hook = self._hooks.get(key)

        if key in COUNT_ONLY:
            stat = self.stats[key] = [0, 0.0]

            def wrapper(*args, **kwargs):
                stat[0] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                if hook is not None:
                    hook(args)
                frame = tracer._enter(record)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(key, frame)

        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, MARK, fn)
        return wrapper

    @contextmanager
    def root(self, item: str):
        """Root span around one timed step; its self time is the benchmark's own."""
        self.item = item
        frame = self._enter("bench.step")
        try:
            yield
        finally:
            self._exit("bench.step", frame)

    # -- install / uninstall ---------------------------------------------------

    def _targets(self) -> dict[int, tuple[str, object]]:
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"fedosov.{layer}"]
            for name, obj in vars(module).items():
                key = f"{layer}.{name}"
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__
                        or inspect.isgeneratorfunction(obj) or key in UNWRAPPED):
                    continue
                targets[id(obj)] = (key, obj)
        return targets

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "fedosov" or k.startswith("fedosov."))]
        targets = self._targets()
        wrappers = {oid: self._wrap(key, obj) for oid, (key, obj) in targets.items()}
        for module in modules:
            for name, obj in list(vars(module).items()):
                oid = id(obj)
                if oid in targets and targets[oid][1] is obj:
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrappers[oid])
        for layer, class_names in CLASSES.items():
            module = sys.modules[f"fedosov.{layer}"]
            for class_name in class_names:
                cls = getattr(module, class_name)
                for name, raw in list(vars(cls).items()):
                    private = name.startswith("_") and not name.endswith("__")
                    if private or name in SKIPPED_METHODS:
                        continue
                    key = f"{layer}.{class_name}.{name}"
                    if isinstance(raw, (classmethod, staticmethod)):
                        replacement = type(raw)(self._wrap(key, raw.__func__))
                    elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                        replacement = self._wrap(key, raw)
                    else:
                        continue
                    self._patched.append((cls, name, raw))
                    setattr(cls, name, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ---------------------------------------------------------------

    def self_time(self, prefix: str) -> float:
        return sum((s[1] for k, s in self.stats.items() if k.startswith(prefix + ".")), 0.0)

    def calls(self, *keys: str) -> int:
        return sum(self.stats.get(k, (0, 0.0))[0] for k in keys)

    def self_of(self, *keys: str) -> float:
        return sum((self.stats.get(k, (0, 0.0))[1] for k in keys), 0.0)

    def total_spans(self) -> int:
        return sum(s[0] for s in self.stats.values())

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "item"],
                       "spans": self.spans,
                       "stats": {k: {"calls": s[0], "self_s": s[1]}
                                 for k, s in sorted(self.stats.items())},
                       "counters": self.counters}, handle)


def installed_wrappers() -> list[str]:
    """Names of tracer wrappers still reachable from the package (should be none)."""
    found = []
    for key, module in sorted(sys.modules.items()):
        if module is None or not (key == "fedosov" or key.startswith("fedosov.")):
            continue
        for name, obj in vars(module).items():
            if hasattr(obj, MARK):
                found.append(f"{key}.{name}")
            if isinstance(obj, type) and obj.__module__.startswith("fedosov"):
                for attr, raw in vars(obj).items():
                    inner = getattr(raw, "__func__", raw)
                    if hasattr(inner, MARK):
                        found.append(f"{key}.{name}.{attr}")
    return found


# Per-layer metric bases that name something other than one traced
# function; every other `<layer>.<function>` base is that function.
ALIASES = {
    "rationals.poly_mul": ("rationals.Polynomial.__mul__",),
    "rationals.parse": ("rationals.parse_ratfun",),
    "symplectic.tensor_build": ("symplectic.Tensor.build",),
    "symplectic.tensor_add": ("symplectic.Tensor.__add__", "symplectic.Tensor.scale"),
    "decomposition.decompose": ("decomposition.decompose_cotorsion",
                                "decomposition.decompose_torsion"),
    "decomposition.symplectify": ("decomposition.symplectify_torsion",),
}


def layer_metrics(tracer: Tracer, names: list[str]) -> dict[str, float]:
    """Values of the requested per-layer metric names from one traced run.

    `<layer>.self_s` sums a whole layer (or the benchmark's own root spans
    for `bench`); `<layer>.<function>.self_s` and `.calls` one function.
    """
    values = {}
    for name in names:
        base, _, kind = name.rpartition(".")
        if kind == "self_s" and base in LAYERS + ("bench",):
            values[name] = tracer.self_time(base)
        elif kind == "self_s":
            values[name] = tracer.self_of(*ALIASES.get(base, (base,)))
        elif kind == "calls":
            values[name] = tracer.calls(*ALIASES.get(base, (base,)))
        elif name == "reporting.checks.count":
            values[name] = tracer.counters["reporting.checks"]
        elif name == "linalg.inverse.max_cols":
            values[name] = tracer.counters[name]
    return values
