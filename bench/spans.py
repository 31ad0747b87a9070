"""Layer spans for the traced benchmark run, recorded from outside the
program.

`Tracer.install` rebinds every public module-level function of the
weaksub modules in each module that holds a binding to it (a
`from .x import f` binding is not reached by patching `x` alone), and
wraps `exponent` and `sample` on every `LevyLaw` subclass. Each call made while the tracer is active records
a span (name, start, end, parent). Spans are aggregated in memory as
they close; the first `MAX_SPANS` raw spans are kept and written out by
`save`.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "levy", "ordered_time", "subordination", "verify", "prm")
MAX_SPANS = 1_000_000  # raw spans kept for `save`; all are aggregated


@dataclass
class SpanStats:
    calls: int = 0
    outer_calls: int = 0   # calls not nested in a span of the same group
    incl_s: float = 0.0    # inclusive seconds
    self_s: float = 0.0    # seconds not covered by child spans
    errors: int = 0
    rows: float = 0.0      # rows produced, summed over outer calls


def _rows_of_result(args, kwargs, result):
    return result.shape[0] if result.ndim == 2 else 1


def _rows_of_path(args, kwargs, result):
    return result.values.shape[0]


def _samples_times_thetas(args, kwargs, result):
    return np.shape(args[0])[0] * np.shape(args[1])[0]


def _marked_reps(fn):
    signature = inspect.signature(fn)

    def rows(args, kwargs, result):
        return signature.bind(*args, **kwargs).arguments["reps"]
    return rows


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.stats: list[SpanStats] = []
        # (child name, parent name) -> [calls, rows], for wrappers made
        # with track_parent
        self.by_parent: dict[tuple[str, str], list[float]] = {}
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.n_spans = 0
        self._stack: list[list] = []   # [index, name id, start, child time]
        self._group_depth: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.stats.append(SpanStats())
        return len(self.names) - 1

    def wrap(self, name: str, fn, group: str | None = None, rows=None,
             track_parent: bool = False):
        nid = self._name_id(name)
        group = group or name
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            depth = tracer._group_depth.get(group, 0)
            tracer._group_depth[group] = depth + 1
            stack = tracer._stack
            idx = tracer.n_spans
            tracer.n_spans += 1
            frame = [idx, nid, 0.0, 0.0]
            stack.append(frame)
            frame[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, depth, group, 0, False, error=True)
                raise
            tracer._close(frame, depth, group,
                          rows(args, kwargs, result) if rows else 0, track_parent)
            return result

        return traced

    def _close(self, frame, depth, group, rows, track_parent, error=False):
        end = perf_counter()
        idx, nid, start, child = frame
        dur = end - start
        stack = self._stack
        stack.pop()
        self._group_depth[group] = depth
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += dur
        st = self.stats[nid]
        st.calls += 1
        st.incl_s += dur
        st.self_s += dur - child
        if depth == 0:
            st.outer_calls += 1
            st.rows += rows
        if error:
            st.errors += 1
        if track_parent and parent is not None:
            key = (self.names[nid], self.names[parent[1]])
            acc = self.by_parent.setdefault(key, [0, 0.0])
            acc[0] += 1
            acc[1] += rows
        if idx < MAX_SPANS:
            self.span_id.append(idx)
            self.span_name.append(nid)
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_parent.append(-1 if parent is None else parent[0])

    # -- installation --------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module("weaksub")
        modules = {layer: importlib.import_module(f"weaksub.{layer}")
                   for layer in LAYERS}
        special_rows = {
            "ordered_time.sample_subordinate_at": _rows_of_result,
            "subordination.simulate_strong": _rows_of_path,
            "subordination.simulate_weak": _rows_of_path,
            "verify.ecf_grid": _samples_times_thetas,
        }
        exponent_group = {"levy.exponent_bm", "levy.exponent_cpp",
                          "levy.kac_stack_exponent"}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    rows = special_rows.get(name)
                    if name == "prm.marked_laplace_check":
                        rows = _marked_reps(fn)
                    group = "levy.exponent" if name in exponent_group else None
                    wrappers[fn] = self.wrap(name, fn, group, rows,
                                             track_parent=rows is _rows_of_path)
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])

        levy = modules["levy"]
        pending = [levy.LevyLaw]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for meth in ("exponent", "sample"):
                if meth in vars(cls) and cls is not levy.LevyLaw:
                    self._set(cls, meth, self.wrap(
                        f"levy.{cls.__name__}.{meth}", vars(cls)[meth],
                        group=f"levy.{meth}",
                        rows=_rows_of_result if meth == "sample" else None))

    def uninstall(self) -> None:
        self.active = False
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------

    def total(self, match) -> SpanStats:
        """Stats summed over every span name for which `match(name)` is
        true; all zero when no such span was recorded."""
        out = SpanStats()
        for name, st in zip(self.names, self.stats):
            if match(name):
                for field in vars(out):
                    setattr(out, field, getattr(out, field) + getattr(st, field))
        return out

    def save(self, path: Path) -> None:
        """Write the recorded spans in closing order: the names table, and
        per span its index (in opening order), name id, start, end and
        parent index (-1 for a root span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fp:
            np.savez_compressed(
                fp, names=np.array(json.dumps(self.names)),
                index=np.frombuffer(self.span_id, dtype=np.int64),
                name=np.frombuffer(self.span_name, dtype=np.int32),
                start=np.frombuffer(self.span_start, dtype=np.float64),
                end=np.frombuffer(self.span_end, dtype=np.float64),
                parent=np.frombuffer(self.span_parent, dtype=np.int64),
                total_spans=np.array(self.n_spans))
