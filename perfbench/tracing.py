"""Span recording around aavtraj's public functions, and the per-layer

metrics derived from the spans.

The tracer rebinds the names each calling module imported (for example
``aavtraj.trainer.rollout`` or ``aavtraj.adjoint.vjp``) to wrappers that
record a span: name, start, end, parent and an optional integer such as
the number of steps of a rollout. Spans live in flat arrays in memory and
are written out when the run ends. Wrappers only record while
``Tracer.active`` is set, so the benchmark's own checks stay untraced.
"""
from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

import aavtraj.adjoint
import aavtraj.baselines
import aavtraj.env
import aavtraj.policy
import aavtraj.sweep
import aavtraj.trainer


def _rollout_kind(args) -> str:
    kind = type(args[0]).__name__
    if kind == "PolicyController":
        return "env.rollout.closed"
    if kind in ("SequenceController", "ConstantController"):
        return "env.rollout.open"
    return "env.rollout.feedback"  # greedy and any other state-feedback source


def _steps_of_result(tracer, args, out) -> int:
    return out.steps


def _steps_of_tape(tracer, args, out) -> int:
    return args[0].steps


def _iterations(tracer, args, out) -> int:
    if out[1].learning_rate != args[1].learning_rate:
        tracer.retries += 1  # train() retries once at half the rate
    return out[1].iterations


# (module, attribute, span name or callable(args) -> name, value(tracer, args, out) or None)
PATCHES = (
    (aavtraj.trainer, "rollout", _rollout_kind, _steps_of_result),
    (aavtraj.baselines, "rollout", _rollout_kind, _steps_of_result),
    (aavtraj.env, "step", "env.step", None),
    (aavtraj.env, "stage_cost", "env.stage_cost", None),
    (aavtraj.policy, "forward", "policy.forward", None),
    (aavtraj.policy, "observe", "policy.observe", None),
    (aavtraj.adjoint, "observe", "policy.observe", None),
    (aavtraj.policy, "unpack", "policy.unpack", None),
    (aavtraj.adjoint, "vjp", "policy.vjp", None),
    (aavtraj.trainer, "backward_closedloop", "adjoint.backward_closedloop", _steps_of_tape),
    (aavtraj.adjoint, "jacobian_state", "adjoint.jacobian_state", None),
    (aavtraj.adjoint, "jacobian_control", "adjoint.jacobian_control", None),
    (aavtraj.adjoint, "cost_grad_state", "adjoint.cost_grad_state", None),
    (aavtraj.adjoint, "smoothness_penalty", "smoothing.penalty", None),
    (aavtraj.baselines, "smoothness_penalty", "smoothing.penalty", None),
    (aavtraj.adjoint, "smoothness_grads", "smoothing.grads", None),
    (aavtraj.trainer, "clip_gradient", "trainer.clip_gradient", None),
    (aavtraj.trainer, "optimizer_step", "trainer.optimizer_step", None),
    (aavtraj.trainer, "train", "trainer.train", _iterations),
    (aavtraj.sweep, "train", "trainer.train", _iterations),
    (aavtraj.baselines, "greedy_action", "baselines.greedy_action", None),
    (aavtraj.baselines, "mission_metrics", "baselines.mission_metrics", None),
    (aavtraj.sweep, "run_sweep", "sweep.run_sweep", None),
)
# ga_optimize is wrapped separately: the wrapper supplies the timing_ms list
GA_PATCHES = ((aavtraj.baselines, "ga_optimize"), (aavtraj.sweep, "ga_optimize"))


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.value = array("q")
        self._stack: list = []
        self.active = False
        self.retries = 0
        self.ga_runs: list = []  # (span index, timing_ms list)
        self.sweep_cells: list = []  # (end ns, method)
        self._saved: list = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.nid)
        self.nid.append(ident)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.value.append(-1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, recorded only while active."""
        if not self.active:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- patching ----------------------------------------------------------

    def _wrap(self, orig, name, value):
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            idx = tracer._open(name(args) if callable(name) else name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if value is not None:
                tracer.value[idx] = value(tracer, args, out)
            return out

        return traced

    def _wrap_ga(self, orig):
        tracer = self

        @functools.wraps(orig)
        def traced(scn, cfg, *, timing_ms=None):
            if not tracer.active:
                return orig(scn, cfg, timing_ms=timing_ms)
            timing = [] if timing_ms is None else timing_ms
            idx = tracer._open("baselines.ga_optimize")
            try:
                out = orig(scn, cfg, timing_ms=timing)
            finally:
                tracer._close(idx)
            tracer.ga_runs.append((idx, timing))
            return out

        return traced

    def install(self) -> None:
        for module, attr, name, value in PATCHES:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, name, value))
        for module, attr in GA_PATCHES:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap_ga(orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def sweep_progress(self, row) -> None:
        """run_sweep(progress=...) hook: marks the end of each cell."""
        if self.active:
            self.sweep_cells.append((time.perf_counter_ns(), row.method))

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.nid, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "value": np.array(self.value, dtype=np.int64),
        }

    def write(self, path: str) -> None:
        """All spans, as flat arrays, to an .npz file."""
        np.savez_compressed(path, **self.arrays())

    def by_name(self) -> dict:
        """calls, total and self time per span name (self = duration minus

        the time the span's children cover)."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        out = {}
        for ident, name in enumerate(self.names):
            sel = a["name_id"] == ident
            out[name] = {
                "calls": int(sel.sum()),
                "total_ms": float(dur[sel].sum() / 1e6),
                "self_ms": float((dur[sel] - child[sel]).sum() / 1e6),
                "median_us": float(np.median(dur[sel]) / 1e3),
            }
        return out

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer values as {name: (value, unit)}. Times are medians over

        calls; counts are per traced round (every round does the same work),
        and a layer with no calls reads 0."""
        a = self.arrays()
        names, nid, parent = list(self.names), a["name_id"], a["parent"]
        dur_us = (a["end_ns"] - a["start_ns"]) / 1e3
        value = a["value"]

        def sel(name):
            return nid == names.index(name) if name in names else np.zeros(nid.size, bool)

        def med(x) -> float:
            return float(np.median(x)) if len(x) else 0.0

        def per_round(n) -> float:
            return float(n) / rounds

        def under(name):
            # spans that are, or descend from, a span of this name
            inside = sel(name)
            has_parent = parent >= 0
            while True:
                grown = inside.copy()
                grown[has_parent] |= inside[parent[has_parent]]
                if np.array_equal(grown, inside):
                    return inside
                inside = grown

        rollouts = sel("env.rollout.closed") | sel("env.rollout.open") | sel("env.rollout.feedback")
        closed, opened = sel("env.rollout.closed"), sel("env.rollout.open")

        def per_step(mask):
            mask = mask & (value > 0)
            return med(dur_us[mask] / value[mask])

        in_train = under("trainer.train")
        train_steps = value[closed & in_train].sum()

        def calls_per_step(name):
            return float((sel(name) & in_train).sum() / train_steps) if train_steps else 0.0

        is_train = sel("trainer.train")
        train_idx = np.flatnonzero(is_train)
        direct_rollouts = closed & np.isin(parent, train_idx)

        gen_ms, gen_roll_ms, gen_steps = [], [], []
        roll_idx = np.flatnonzero(rollouts)
        for idx, timing in self.ga_runs:
            t0 = a["start_ns"][idx]
            edges = t0 + np.asarray(timing) * 1e6
            mine = roll_idx[parent[roll_idx] == idx]
            starts = a["start_ns"][mine]
            for g in range(1, len(timing)):
                in_gen = mine[(starts >= edges[g - 1]) & (starts < edges[g])]
                gen_ms.append(timing[g] - timing[g - 1])
                gen_roll_ms.append(dur_us[in_gen].sum() / 1e3)
                gen_steps.append(value[in_gen].sum())
        gen_ms, gen_roll_ms = np.array(gen_ms), np.array(gen_roll_ms)

        cell_s: dict = {"l4v": [], "greedy": [], "ga": []}
        sweep_starts = a["start_ns"][sel("sweep.run_sweep")]
        for end_ns, method in self.sweep_cells:
            prev = [t for t, _ in self.sweep_cells if t < end_ns] + list(sweep_starts[sweep_starts < end_ns])
            cell_s[method].append((end_ns - max(prev)) / 1e9)

        us, ms, count = "us", "ms", "count"
        return {
            "env.rollout.closed_us_per_step": (per_step(closed), us),
            "env.rollout.open_us_per_step": (per_step(opened), us),
            "env.rollout.us_per_call": (med(dur_us[rollouts]), us),
            "env.rollout.calls": (per_round(rollouts.sum()), count),
            "env.rollout.steps": (per_round(value[rollouts].sum()), count),
            "env.step.us": (med(dur_us[sel("env.step")]), us),
            "env.step.calls": (per_round(sel("env.step").sum()), count),
            "env.stage_cost.us": (med(dur_us[sel("env.stage_cost")]), us),
            "policy.forward.us": (med(dur_us[sel("policy.forward")]), us),
            "policy.observe.us": (med(dur_us[sel("policy.observe")]), us),
            "policy.observe.calls_per_step": (calls_per_step("policy.observe"), "calls/step"),
            "policy.unpack.calls_per_step": (calls_per_step("policy.unpack"), "calls/step"),
            "policy.vjp.us": (med(dur_us[sel("policy.vjp")]), us),
            "adjoint.backward_closedloop.us_per_step": (per_step(sel("adjoint.backward_closedloop")), us),
            "adjoint.jacobian_state.us": (med(dur_us[sel("adjoint.jacobian_state")]), us),
            "adjoint.jacobian_control.us": (med(dur_us[sel("adjoint.jacobian_control")]), us),
            "adjoint.cost_grad_state.us": (med(dur_us[sel("adjoint.cost_grad_state")]), us),
            "smoothing.penalty.us": (med(dur_us[sel("smoothing.penalty")]), us),
            "smoothing.grads.us": (med(dur_us[sel("smoothing.grads")]), us),
            "trainer.rollout_ms_per_iter": (med(dur_us[direct_rollouts]) / 1e3, ms),
            "trainer.backward_ms_per_iter": (med(dur_us[sel("adjoint.backward_closedloop")]) / 1e3, ms),
            "trainer.opt_ms_per_iter": ((med(dur_us[sel("trainer.clip_gradient")])
                                         + med(dur_us[sel("trainer.optimizer_step")])) / 1e3, ms),
            "trainer.iterations": (per_round(value[is_train].sum()), count),
            "trainer.retries": (per_round(self.retries), count),
            "baselines.ga.gen_ms": (med(gen_ms), ms),
            "baselines.ga.rollout_ms_per_gen": (med(gen_roll_ms), ms),
            "baselines.ga.other_ms_per_gen": (med(gen_ms - gen_roll_ms), ms),
            "baselines.ga.rollout_steps_per_gen": (med(gen_steps), count),
            "baselines.greedy_action.us": (med(dur_us[sel("baselines.greedy_action")]), us),
            "baselines.mission_metrics.ms": (med(dur_us[sel("baselines.mission_metrics")]) / 1e3, ms),
            "sweep.cell_s.l4v": (med(cell_s["l4v"]), "s"),
            "sweep.cell_s.greedy": (med(cell_s["greedy"]), "s"),
            "sweep.cell_s.ga": (med(cell_s["ga"]), "s"),
            "sweep.cells": (per_round(len(self.sweep_cells)), count),
            "sweep.csv_ms": (med(dur_us[sel("sweep.csv")]) / 1e3, ms),
            "trace.spans": (per_round(nid.size), count),
        }
