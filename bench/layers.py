"""Per-layer spans, recorded from outside the package.

The layers are the package's modules: config, geometry, channel, capacity,
optimize, _search (reported as ``search``), serialize and cli.  A
``Tracer`` wraps, while installed:

* every public function that a layer module binds from another layer
  module, in the importing module's namespace (so ``optimize`` calling
  ``channel_matrix`` opens a channel span); a layer module bound as a
  whole (``cli`` uses ``serialize`` as ``ser``) is swapped for a facade
  whose public functions are wrapped;
* the capacity functions whose counts are reported, also in their own
  module, so calls from inside the capacity layer are counted too;
* the ``__post_init__`` validation of every dataclass in a layer module
  (so ``geometry.RigidPose`` spans count pose builds exactly);
* ``np.linalg.svd`` as the capacity module sees it (span ``capacity.svd``).

Times are the thread's CPU time.  Each span records its name, start, end,
parent span and job id in flat arrays that stay in memory until the run
ends (``spans``).  A span's self time is its duration minus the durations
of its child spans; SVD spans form their own layer, so capacity self time
excludes them.  Calls through methods of another layer's objects
(``scene.tx_positions()`` from channel) stay in the caller's span.
"""

from __future__ import annotations

import dataclasses
import functools
import time
import types
from array import array

import numpy as np

LAYER_MODULES = {
    "losmimo.config": "config",
    "losmimo.geometry": "geometry",
    "losmimo.channel": "channel",
    "losmimo.capacity": "capacity",
    "losmimo.optimize": "optimize",
    "losmimo._search": "search",
    "losmimo.serialize": "serialize",
    "losmimo.cli": "cli",
}
LAYERS = tuple(LAYER_MODULES.values()) + ("svd",)
# wrapped in their own module too, so intra-layer calls are counted
_COUNTED = {"losmimo.capacity": ("gain_spectrum", "waterfilling", "capacity_upper_bound")}
SVD_SPAN = "capacity.svd"


def layer_of(span_name: str) -> str:
    return "svd" if span_name == SVD_SPAN else span_name.split(".", 1)[0]


def svd_flops(m: int, n: int) -> float:
    """Computed real flops for singular values only of a complex m x n matrix.

    Golub & Van Loan's bidiagonalization count 4*M*K^2 - 4*K^3/3 (M = max,
    K = min of the sides), times 4 for complex arithmetic.
    """
    big, small = max(m, n), min(m, n)
    return 4.0 * (4.0 * big * small * small - 4.0 * small ** 3 / 3.0)


class _LinalgShim:
    def __init__(self, svd):
        self.svd = svd

    def __getattr__(self, name):
        return getattr(np.linalg, name)


class _NumpyShim:
    def __init__(self, svd):
        self.linalg = _LinalgShim(svd)

    def __getattr__(self, name):
        return getattr(np, name)


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.job = array("q")
        self.start = array("q")
        self.end = array("q")
        self.svd_events = []  # (span index, rows, cols, content hash)
        self.channel_events = []  # (span index, n_r, n_t)
        self.job_id = -1
        self._stack = [-1]
        self._wrappers = {}
        self._undo = []

    # -- recording --------------------------------------------------------

    def wrap(self, fn, span_name, on_return=None):
        """``fn`` with a span around every call."""
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.span_names)
            self.span_names.append(span_name)
        sid = self._name_ids[span_name]
        clock = time.thread_time_ns
        names, parents, jobs, starts, ends = self.name, self.parent, self.job, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1])
            jobs.append(self.job_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(idx, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _wrapped(self, fn):
        if fn not in self._wrappers:
            layer = LAYER_MODULES[fn.__module__]
            on_return = self._on_channel if fn.__name__ == "channel_matrix" else None
            self._wrappers[fn] = self.wrap(fn, f"{layer}.{fn.__name__}", on_return)
        return self._wrappers[fn]

    def _on_channel(self, idx, args, result):
        self.channel_events.append((idx,) + result.entries.shape)

    def _on_svd(self, idx, args, result):
        a = np.asarray(args[0])
        self.svd_events.append((idx, a.shape[-2], a.shape[-1], hash(a.tobytes())))

    # -- patching ---------------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _facade(self, module):
        facade = types.ModuleType(module.__name__)
        for name, obj in vars(module).items():
            if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__ \
                    and not name.startswith("_"):
                obj = self._wrapped(obj)
            setattr(facade, name, obj)
        return facade

    def install(self, package):
        modules = {name: getattr(package, name.split(".", 1)[1]) for name in LAYER_MODULES}
        for mod_name, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ in LAYER_MODULES \
                        and obj.__module__ != mod_name:
                    self._set(mod, name, self._wrapped(obj))
                elif isinstance(obj, types.ModuleType) and obj.__name__ in LAYER_MODULES:
                    self._set(mod, name, self._facade(obj))
                elif isinstance(obj, type) and obj.__module__ == mod_name \
                        and dataclasses.is_dataclass(obj) and "__post_init__" in vars(obj):
                    layer = LAYER_MODULES[mod_name]
                    span = self.wrap(obj.__post_init__, f"{layer}.{obj.__name__}")
                    self._set(obj, "__post_init__", span)
            for name in _COUNTED.get(mod_name, ()):
                self._set(mod, name, self._wrapped(getattr(mod, name)))
        capacity = modules["losmimo.capacity"]
        svd = self.wrap(np.linalg.svd, SVD_SPAN, self._on_svd)
        self._set(capacity, "np", _NumpyShim(svd))

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- summary ----------------------------------------------------------

    def spans(self):
        """Span arrays: name id, parent index, job id, duration and self time (s)."""
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        job = np.frombuffer(self.job, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)) / 1e9
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name, parent, job, dur, dur - child
