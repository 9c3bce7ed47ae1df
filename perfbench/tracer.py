"""Spans and counters for the traced benchmark run.

Everything is installed from the benchmark's side, around the program's
boundaries, so no file of the program changes:

* numpy.fft and scipy.fft transforms are wrapped on their modules before
  wavelab is imported, so a later ``from numpy.fft import rfft`` binds the
  counting wrapper too;
* each public function of a wavelab module is wrapped on every wavelab
  module that holds it (``scenarios`` binds ``evolve`` by name);
* ``Grid1D`` methods are wrapped on the class, and PCHIP evaluation on
  ``PchipInterpolator``, so Newton iterations can be counted.

A stored span records name, start, end, parent span and run id, plus the
counters (FFT calls, points, bytes and seconds, PCHIP evaluations, CH steps)
of everything beneath it.  Hot leaves (FFTs, Grid1D methods, PCHIP calls)
are not stored one by one; they feed their parent's child time and counters
and a per-name total.  Self time is a span's duration minus the time its
children cover.  Spans stay in memory until :meth:`Tracer.dump`.

When the tracer is inactive every wrapper calls straight through.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = (
    "fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft",
)
WAVELAB_MODULES = (
    "grid", "ch", "peakons", "linear_sw", "scaling", "variational", "scenarios", "cli",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str | None
    self_s: float
    counts: dict


class _Frame:
    __slots__ = ("index", "stored_parent", "child_s", "counts", "is_fft")

    def __init__(self, index, stored_parent, is_fft):
        self.index = index
        self.stored_parent = stored_parent
        self.child_s = 0.0
        self.counts = {}
        self.is_fft = is_fft


def _fft_counter(counts, args, kwargs, result, duration):
    data = args[0] if args else kwargs.get("x", kwargs.get("a"))
    size_in = getattr(data, "size", 0)
    counts["fft_calls"] = 1
    counts["fft_points"] = max(size_in, result.size)
    counts["fft_bytes"] = getattr(data, "nbytes", 0) + result.nbytes
    counts["fft_s"] = duration


def _pchip_counter(counts, args, kwargs, result, duration):
    counts["pchip_evals"] = 1


def _evolve_counter(counts, args, kwargs, result, duration):
    params = args[1] if len(args) > 1 else kwargs.get("params")
    try:
        counts["ch_steps"] = int(round(params.t_end / params.dt))
    except (AttributeError, TypeError, ZeroDivisionError):
        pass  # fft_calls_per_step then reads as absent


_COUNTERS = {"ch.evolve": _evolve_counter}


class Tracer:
    """Collects spans while :attr:`active`; see the module docstring."""

    def __init__(self):
        self.active = False
        self.run_id = None
        self.spans: list[Span | None] = []
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.absent: list[str] = []
        self._stack: list[_Frame] = []
        self._patches: list[tuple] = []

    # --- installation ---

    def install_fft(self) -> None:
        """Wrap the FFT entry points; call before wavelab is imported."""
        for module_name in FFT_MODULES:
            module = importlib.import_module(module_name)
            for name in FFT_NAMES:
                fn = getattr(module, name, None)
                if fn is None:
                    continue
                self._patch(module, name, self._wrap(f"fft.{module_name}.{name}", fn,
                                                     store=False, counter=_fft_counter))

    def install_wavelab(self) -> None:
        """Wrap wavelab's public functions, Grid1D methods and PCHIP calls."""
        modules = {}
        for short in WAVELAB_MODULES:
            try:
                modules[short] = importlib.import_module(f"wavelab.{short}")
            except ImportError:
                self.absent.append(f"wavelab.{short}")
        holders = [m for name, m in sys.modules.items()
                   if m is not None and (name == "wavelab" or name.startswith("wavelab."))]
        for short, module in modules.items():
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                span_name = f"{short}.{name}"
                wrapper = self._wrap(span_name, fn, store=True,
                                     counter=_COUNTERS.get(span_name))
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, attr, wrapper)

        grid_cls = getattr(modules.get("grid"), "Grid1D", None)
        if grid_cls is None:
            self.absent.append("grid.Grid1D")
        else:
            for attr, value in list(vars(grid_cls).items()):
                if inspect.isfunction(value) and not attr.startswith("__"):
                    self._patch(grid_cls, attr,
                                self._wrap(f"grid.Grid1D.{attr}", value, store=False))

        from scipy.interpolate import PchipInterpolator

        self._patch(PchipInterpolator, "__call__",
                    self._wrap("scipy.PchipInterpolator.__call__",
                               PchipInterpolator.__call__, store=False,
                               counter=_pchip_counter))

    def require(self, names) -> list[str]:
        """Names (``module.function``) never wrapped; recorded as absent."""
        missing = [n for n in names if n not in self._wrapped_names]
        self.absent.extend(m for m in missing if m not in self.absent)
        return missing

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    @property
    def _wrapped_names(self) -> set:
        return {getattr(getattr(o, a), "_perfbench_span", None) for o, a, _, _ in self._patches}

    def _patch(self, owner, attr, wrapper) -> None:
        owned = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), owned))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, store, counter=None):
        tracer = self
        is_fft = name.startswith("fft.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (is_fft and tracer._stack and tracer._stack[-1].is_fft):
                return fn(*args, **kwargs)
            return tracer._traced(name, store, is_fft, counter, fn, args, kwargs)

        wrapper._perfbench_span = name
        return wrapper

    # --- recording ---

    def call(self, name: str, run_id: str, fn, *args, **kwargs):
        """Run ``fn`` as a stored root span of the given run."""
        self.run_id = run_id
        return self._traced(name, True, False, None, fn, args, kwargs)

    def _traced(self, name, store, is_fft, counter, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        stored_parent = None
        if parent is not None:
            stored_parent = parent.index if parent.index is not None else parent.stored_parent
        index = None
        if store:
            index = len(self.spans)
            self.spans.append(None)
        frame = _Frame(index, stored_parent, is_fft)
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        duration = end - start
        counts = frame.counts
        if counter is not None:
            counter(counts, args, kwargs, result, duration)
        self_s = duration - frame.child_s
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += self_s
        if store:
            self.spans[index] = Span(name, start, end, stored_parent, self.run_id,
                                     self_s, dict(counts))
        if parent is not None:
            parent.child_s += duration
            into = parent.counts
            for key, value in counts.items():
                into[key] = into.get(key, 0) + value
        return result

    # --- reading ---

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s is not None and s.name == name]

    def dump(self, path) -> None:
        """Write spans, per-name totals and absent names as JSON."""
        payload = {
            "spans": [asdict(s) for s in self.spans if s is not None],
            "totals": {name: {"calls": c, "total_s": t, "self_s": s}
                       for name, (c, t, s) in sorted(self.totals.items())},
            "absent": self.absent,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
