"""Span tracer for the benchmark's traced run.

Wraps named calibrefine functions from outside the package and records one
span per call (name, start, end, parent span) plus per-function counters, all
in memory. Each wrapped function is rebound in every module that holds it
under any name (``greedy_match`` lives in ``refine``, ``correction`` and
``matching``; ``refine.run`` lives in ``pipeline`` as ``run_refinement``), so
calls made through an imported name are traced too.
"""
from __future__ import annotations

import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable

import numpy as np

Hook = Callable[[dict, tuple, dict, object], None]


def _count(key: str, fn: Callable[[tuple, dict, object], float]) -> Hook:
    def hook(counters: dict, args: tuple, kwargs: dict, result) -> None:
        counters[key] += fn(args, kwargs, result)

    return hook


def _bytes(key: str) -> Hook:
    def hook(counters: dict, args: tuple, kwargs: dict, result) -> None:
        counters[key] += os.path.getsize(args[0])

    return hook


def _checkpoint(counters: dict, args: tuple, kwargs: dict, state) -> None:
    counters["refine.checkpoints"] += 1
    counters["refine.checkpoints_adopted"] += state.checkpoints[-1].updated


def _ransac(counters: dict, args: tuple, kwargs: dict, result) -> None:
    counters["ransac.iterations"] += result.iterations_run
    counters["ransac.inlier_ratio_sum"] += len(result.inlier_indices) / len(args[0])


def _lsq(counters: dict, args: tuple, kwargs: dict, result) -> None:
    counters["lsq.iterations"] += result.iterations
    counters["lsq.converged"] += result.converged


def _greedy(counters: dict, args: tuple, kwargs: dict, result) -> None:
    counters["matching.candidates"] += len(args[0]) * len(args[1])
    counters["matching.matched"] += len(result.matches)


#: Every traced function as (module, function, counter hook). A function that
#: is renamed or removed makes ``install`` raise instead of tracing nothing.
TARGETS: tuple[tuple[str, str, Hook | None], ...] = (
    ("simulator", "generate", None),
    ("simulator", "oracle_pairs", None),
    ("simulator", "random_homography", None),
    ("pipeline", "run_full", None),
    ("pipeline", "coarse_fit", None),
    ("pipeline", "evaluate", None),
    ("pipeline", "split_eval_pairs", None),
    ("pipeline", "error_histogram", None),
    ("refine", "run", _count("refine.accumulated_pairs", lambda a, k, r: len(r.accumulated))),
    ("refine", "ingest_frame", None),
    ("refine", "checkpoint_recalibrate", _checkpoint),
    ("blocks", "block_of", None),
    ("blocks", "block_sample", None),
    ("blocks", "half_block_diagonal", None),
    ("matching", "greedy_match", _greedy),
    ("correction", "fit_correction_stream", _count("correction.pairs_used", lambda a, k, r: r.pairs_used)),
    ("correction", "implicit_pairs", None),
    ("correction", "reprojection_loss", None),
    ("geometry", "correspondence_arrays", _count("geometry.correspondence_arrays.pairs", lambda a, k, r: len(a[0]))),
    ("geometry", "estimate_homography", None),
    ("geometry", "refine_homography", None),
    ("geometry", "reprojection_metrics", None),
    ("geometry", "project_points", None),
    ("geometry", "compose", None),
    ("ransac", "ransac_homography", _ransac),
    ("lsq", "damped_least_squares", _lsq),
    ("serialize", "write_sim_frames", _bytes("serialize.bytes_written")),
    ("serialize", "write_frames_jsonl", None),
    ("serialize", "write_pairs_jsonl", _bytes("serialize.bytes_written")),
    ("serialize", "write_ground_truth", _bytes("serialize.bytes_written")),
    ("serialize", "save_homography", _bytes("serialize.bytes_written")),
    ("serialize", "write_checkpoints_csv", _bytes("serialize.bytes_written")),
    ("serialize", "write_loss_trace", _bytes("serialize.bytes_written")),
    ("serialize", "write_residual_report", _bytes("serialize.bytes_written")),
    ("serialize", "write_histogram_csv", _bytes("serialize.bytes_written")),
    ("serialize", "read_frames_jsonl", _bytes("serialize.bytes_read")),
    ("serialize", "read_pairs_jsonl", _bytes("serialize.bytes_read")),
    ("serialize", "load_homography", _bytes("serialize.bytes_read")),
    ("cli", "main", None),
    ("cli", "load_config", None),
    ("cli", "apply_overrides", None),
    ("cli", "cmd_simulate", None),
    ("cli", "cmd_calibrate", None),
    ("cli", "cmd_refine", None),
    ("cli", "cmd_evaluate", None),
)

MODULES = (
    "simulator", "pipeline", "refine", "blocks", "matching", "correction",
    "geometry", "ransac", "lsq", "serialize", "cli",
)


class Tracer:
    """Records spans and counters while installed; see :meth:`install`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str):
        """Context manager recording a span of the benchmark's own code."""
        tracer, nid = self, self._name_id(name)

        class _Span:
            def __enter__(self):
                self.idx = tracer._open(nid)

            def __exit__(self, *exc):
                tracer._close(self.idx)
                return False

        return _Span()

    def _wrap(self, name: str, fn: Callable, hook: Hook | None) -> Callable:
        nid, counters = self._name_id(name), self.counters
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every target in each calibrefine module that refers to it,
        under whatever name."""
        holders = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "calibrefine" or name.startswith("calibrefine."))
        ]
        for module_name, fn_name, hook in TARGETS:
            module = sys.modules[f"calibrefine.{module_name}"]
            original = getattr(module, fn_name)  # AttributeError on a rename
            traced = self._wrap(f"{module_name}.{fn_name}", original, hook)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, traced)
                        self._restore.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    # -- reading the record ------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds (the
        span's duration minus the part its child spans cover)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.zeros(dur.size)
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        incl = np.bincount(a["name"], weights=dur, minlength=n)
        self_s = np.bincount(a["name"], weights=own, minlength=n)
        return {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def under(self, name: str, parent: str) -> tuple[int, float]:
        """Calls and inclusive seconds of ``name`` spans whose parent is a
        ``parent`` span."""
        if name not in self._name_ids or parent not in self._name_ids:
            return 0, 0.0
        a = self.arrays()
        sel = a["name"] == self._name_ids[name]
        parents = a["parent"][sel]
        ok = parents >= 0
        hit = np.zeros(parents.size, dtype=bool)
        hit[ok] = a["name"][parents[ok]] == self._name_ids[parent]
        return int(hit.sum()), float((a["end"][sel] - a["start"][sel])[hit].sum())

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
