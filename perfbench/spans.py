"""Span tracer for the traced benchmark run.

The tracer rebinds, from outside the program, the transform entry points of
``numpy.fft`` and ``scipy.fft`` and the public functions, public methods and
constructors of every ``qnslab`` module. Each wrapper records one span: layer,
name, start, end, parent span, and a work figure (transform points, bytes a
field constructor copied, snapshot file bytes). Spans stay in memory and are
reduced by ``layer_metrics``.

The transform wrappers are installed before ``import qnslab`` and every
module attribute that aliases a wrapped callable is rebound as well, so
neither ``np.fft.fftn(...)`` nor ``from numpy.fft import fftn`` escapes the
count. Only the outermost transform of a nested call is counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("fields", "physics", "systems", "functionals", "timeloop",
          "verify", "initdata", "snapshots", "cli")
FFT = "fft"

NUMPY_TRANSFORMS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
                    "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft",
                    "ihfft")
SCIPY_TRANSFORMS = NUMPY_TRANSFORMS + (
    "hfft2", "ihfft2", "hfftn", "ihfftn", "dct", "idct", "dst", "idst",
    "dctn", "idctn", "dstn", "idstn")

FIELD_CLASSES = ("ScalarField", "VectorField", "TensorField")
RHS_NAMES = ("rhs_target", "rhs_approx_u", "rhs_approx_w")
RECORD_NAMES = ("energy", "bd_entropy", "mv_functional", "energy_dissipation")

# unit of each metric, by the last component of its name
UNITS = {"calls_per_op": "count", "rhs_per_op": "count",
         "fft_calls_per_rhs": "count", "spans_per_op": "count",
         "fft_calls": "count", "mpoints_per_op": "Mpoints",
         "copy_mb_per_op": "MB", "mb": "MB", "self_frac": "fraction",
         "overhead_frac": "fraction", "self_sum_frac": "fraction",
         "rhs_ms": "ms", "step_ms": "ms", "record_ms": "ms", "ms": "ms",
         "self_s": "s"}

# span record fields
LAYER, NAME, START, END, PARENT, WORK = range(6)


def _fft_points(args, kwargs, out):
    a = args[0] if args else kwargs.get("x", kwargs.get("a"))
    return max(int(np.size(a)), int(np.size(out)))


def _field_bytes(args, kwargs, out):
    return args[0].values.nbytes


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[0] if args else kwargs["path"])


class Tracer:
    """Holds the wrappers, the rebinding targets and the recorded spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._pairs = {}        # id(original or wrapper) -> (original, wrapper)
        self._targets = []      # (owner, attribute, original, wrapper)
        self._bound = set()     # (id(owner), attribute) already targeted
        self.installed = False

    # -- wrapper construction -------------------------------------------
    def _wrap(self, layer, name, fn, work=None, outermost_only=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if outermost_only and stack and spans[stack[-1]][LAYER] == layer:
                return fn(*args, **kwargs)
            rec = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if work is not None:
                rec[WORK] = work(args, kwargs, out)
            return out

        functools.update_wrapper(wrapper, fn)
        self._pairs[id(fn)] = self._pairs[id(wrapper)] = (fn, wrapper)
        return wrapper

    def _target(self, owner, attr, original, wrapper):
        key = (id(owner), attr)
        if key in self._bound:
            return
        self._bound.add(key)
        self._targets.append((owner, attr, original, wrapper))
        if self.installed:
            setattr(owner, attr, wrapper)

    def add_transforms(self):
        """Wrap every numpy.fft and scipy.fft transform. Install before
        importing the program, so its imports bind the wrappers."""
        import numpy.fft
        import scipy.fft
        for module, names in ((numpy.fft, NUMPY_TRANSFORMS),
                              (scipy.fft, SCIPY_TRANSFORMS)):
            for name in names:
                fn = getattr(module, name)
                wrapper = self._wrap(FFT, f"{module.__name__}.{name}", fn,
                                     work=_fft_points, outermost_only=True)
                self._target(module, name, fn, wrapper)

    def add_program(self, package="qnslab"):
        """Wrap the public callables, public methods and constructors of each
        layer module, then rebind their aliases."""
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for name, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    self._target(module, name, obj,
                                 self._wrap(layer, name, obj, work=(
                                     _file_bytes if layer == "snapshots"
                                     else None)))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._add_methods(layer, obj)
        self.add_aliases(package)

    def add_aliases(self, package="qnslab"):
        """Rebind every attribute of the package's modules that holds a
        wrapped callable or its original."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                pair = self._pairs.get(id(obj))
                if pair is not None and obj in pair:
                    self._target(module, attr, *pair)

    def _add_methods(self, layer, cls):
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            if attr != "__init__" and attr.startswith("_"):
                continue
            work = _field_bytes if (attr == "__init__"
                                    and cls.__name__ in FIELD_CLASSES) else None
            self._target(cls, attr, fn,
                         self._wrap(layer, f"{cls.__name__}.{attr}", fn, work))

    # -- switching ---------------------------------------------------------
    def install(self):
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self):
        for owner, attr, original, _ in self._targets:
            setattr(owner, attr, original)
        self.installed = False

    def reset(self):
        self.spans.clear()
        self._stack.clear()

    def count(self, layer):
        return sum(1 for s in self.spans if s[LAYER] == layer)


def layer_metrics(spans, pass_s, ops):
    """Per-layer metrics of one traced pass of ``ops`` operations."""
    n = len(spans)
    child = [0.0] * n
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    self_s = defaultdict(float)
    calls = Counter()
    work = Counter()
    in_rhs = [False] * n
    rhs_calls = rhs_fft = 0
    rhs_s = step_s = record_s = 0.0
    steps = records = 0
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        layer, name, parent = rec[LAYER], rec[NAME], rec[PARENT]
        self_s[layer] += dur - child[i]
        calls[layer] += 1
        work[layer] += rec[WORK]
        parent_in_rhs = parent >= 0 and in_rhs[parent]
        is_rhs = layer == "systems" and name in RHS_NAMES
        in_rhs[i] = parent_in_rhs or is_rhs
        if is_rhs and not parent_in_rhs:
            rhs_calls += 1
            rhs_s += dur
        if layer == FFT and parent_in_rhs:
            rhs_fft += 1
        if layer == "timeloop" and name == "step":
            steps += 1
            step_s += dur
        if (layer == "functionals" and name in RECORD_NAMES
                and not (parent >= 0 and spans[parent][NAME] in RECORD_NAMES)):
            record_s += dur
            records += name == "energy_dissipation"

    def frac(layer):
        return self_s[layer] / pass_s

    return {
        "fft.calls_per_op": calls[FFT] / ops,
        "fft.mpoints_per_op": work[FFT] / 1e6 / ops,
        "fft.self_frac": frac(FFT),
        "fields.calls_per_op": calls["fields"] / ops,
        "fields.copy_mb_per_op": work["fields"] / 1e6 / ops,
        "fields.self_frac": frac("fields"),
        "systems.rhs_per_op": rhs_calls / ops,
        "systems.rhs_ms": 1e3 * rhs_s / rhs_calls if rhs_calls else 0.0,
        "systems.fft_calls_per_rhs": rhs_fft / rhs_calls if rhs_calls else 0.0,
        "systems.self_frac": frac("systems"),
        "timeloop.step_ms": 1e3 * step_s / steps if steps else 0.0,
        "timeloop.self_frac": frac("timeloop"),
        "functionals.calls_per_op": calls["functionals"] / ops,
        "functionals.record_ms": 1e3 * record_s / records if records else 0.0,
        "functionals.self_frac": frac("functionals"),
        "physics.calls_per_op": calls["physics"] / ops,
        "physics.self_frac": frac("physics"),
        "verify.self_frac": frac("verify"),
        "cli.self_s": self_s["cli"],
        "snapshots.self_s": self_s["snapshots"],
        "snapshots.mb": work["snapshots"] / 1e6,
        "initdata.self_s": self_s["initdata"],
        "trace.spans_per_op": n / ops,
        "trace.self_sum_frac": sum(self_s.values()) / pass_s,
    }
