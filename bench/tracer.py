"""Per-layer tracing from outside the program.

`Tracer.install` wraps every public module-level function (and public
classmethod) of the traced `uiobeam` modules, then rebinds each wrapper
everywhere the original is bound: `simulate.solve_design`,
`cli.parse_config`, `beamforming.solve_hermitian` and the like are the same
objects under other names, so one map from original to wrapper covers them
and no callable is wrapped twice. `uninstall` restores every binding.

For each wrapped callable the tracer keeps `calls`, `s` (inclusive seconds)
and `self_s` (inclusive seconds minus the time of wrapped callees). Spans are
aggregated in memory rather than logged one by one: the hot steering-vector
builder runs ~10^5 times per pass.
"""

import functools
import importlib
import inspect
import os
import time

PACKAGE = "uiobeam"
LAYERS = ("config", "design", "linalg", "dynamics", "observer", "beamforming", "simulate")
# Modules whose namespaces may hold re-bound copies of traced callables.
BINDERS = LAYERS + ("cli",)


class Stat:
    __slots__ = ("calls", "s", "self_s", "rows", "bytes")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.rows = 0
        self.bytes = 0


def _write_csv_extra(stat, args, kwargs, result):
    """Rows and bytes emitted by simulate.write_csv(path, header, rows)."""
    path = kwargs["path"] if "path" in kwargs else args[0]
    stat.rows += int(result)
    stat.bytes += os.path.getsize(path)


EXTRAS = {"simulate.write_csv": _write_csv_extra}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self._stack = []  # child seconds accumulated per open span
        self._bindings = []  # (owner, attribute, original) to restore
        self._wrappers = {}  # id(original) -> (original, wrapper)

    def reset(self):
        self.stats = {}

    def wrap(self, fn, name):
        """Timed wrapper around fn, recorded under `name`."""
        extra = EXTRAS.get(name)
        clock = self.clock
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                stat = self.stats.get(name)
                if stat is None:
                    stat = self.stats[name] = Stat()
                stat.calls += 1
                stat.s += elapsed
                stat.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if extra is not None:
                extra(stat, args, kwargs, result)
            return result

        return wrapper

    def _targets(self):
        """(owner, attribute, original, name) for every traced callable."""
        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    out.append((mod, attr, value, f"{layer}.{attr}"))
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    for cattr, cvalue in vars(value).items():
                        if not cattr.startswith("_") and isinstance(cvalue, classmethod):
                            out.append((value, cattr, cvalue, f"{layer}.{cattr}"))
        names = [t[3] for t in out]
        if len(set(names)) != len(names):
            raise RuntimeError("two traced callables share a name")
        return out

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        for owner, attr, original, name in self._targets():
            if isinstance(original, classmethod):
                inner = original.__func__
                replacement = classmethod(self.wrap(inner, name))
                self._bindings.append((owner, attr, original))
                setattr(owner, attr, replacement)
                continue
            if id(original) in self._wrappers:
                raise RuntimeError(f"{name} is already wrapped")
            self._wrappers[id(original)] = (original, self.wrap(original, name))
        # rebind every name that refers to a wrapped original
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in BINDERS
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings = []
        self._wrappers = {}

    def snapshot(self):
        """Plain-dict copy of the stats."""
        return {
            name: {"calls": st.calls, "s": st.s, "self_s": st.self_s,
                   "rows": st.rows, "bytes": st.bytes}
            for name, st in self.stats.items()
        }
