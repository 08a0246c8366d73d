"""Per-layer tracing of quditsum from outside the package.

`Tracer.installed()` replaces every public function of the layer modules
(qudit, protocol, adversary, verification, harness) in every quditsum
namespace that binds it, and `QuditRegister.__post_init__` on the class,
with a wrapper that records a span. The package calls its collaborators
through module globals (`harness` calls its own binding of
`insert_decoys`, `qudit.measure` calls the global `apply_iqft`), so
rebinding the names is enough to see every call; no file under src/
changes. Leaving the context restores the original objects.

A span is (name, start, end, parent span, trial id, scenario tag). The
trial id is the index passed to the latest `derive_trial_stream` call in
the current scenario run. Spans stay in memory in flat arrays and are
written out by `dump`. Self time is a span's duration minus the
durations of its direct children.

Kernel counts (amplitudes touched, bytes moved) are computed from each
qudit call's register size d**k and the dense passes that operation makes;
they are labelled computed, not measured.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from array import array

import numpy as np
from quditsum.harness import SCENARIOS

LAYERS = ("qudit", "protocol", "adversary", "verification", "harness")
_LAYER_MODULES = tuple(f"quditsum.{name}" for name in LAYERS)
# every module whose globals may bind a layer function: the layers, the
# CLI entry point and the package namespace itself
_NAMESPACES = ("quditsum", "quditsum.cli") + _LAYER_MODULES

SCENARIO_ORDER = tuple(SCENARIOS)

# qudit operations whose kernel cost is counted, in the names spans use
QUDIT_OPS = ("apply_qft", "apply_iqft", "apply_shift", "measure_v1", "measure_v2",
             "outcome_distribution", "basis_state", "omega_state")
DECOY_SPANS = ("protocol.insert_decoys", "protocol.check_decoys")

_AMP = 16  # bytes per complex128 amplitude
_PROB = 8  # bytes per float64 probability


def _kernel_cost(op: str, d: np.ndarray, k: np.ndarray, target: np.ndarray):
    """Computed (amplitudes touched, bytes moved) per call of one operation.

    Counts each full pass over the d**k vector; the nested register
    construction and the rotations inside a V2 measurement are spans of
    their own and are counted there.
    """
    dim = d.astype(np.float64) ** k
    if op == "register_init":
        # copy to complex128, abs, square, sum
        return 4 * dim, dim * (2 * _AMP + _AMP + _PROB + 2 * _PROB + _PROB)
    if op in ("apply_qft", "apply_iqft"):
        # tensordot is one matmul pass; off qudit 0 it also transposes the
        # input into place and copies the moved-back result
        passes = np.where(target == 0, 1, 3)
        return passes * dim, passes * dim * 2 * _AMP
    if op == "apply_shift":
        return dim, dim * 2 * _AMP
    if op == "outcome_distribution":
        # abs and square over the vector, then a sum unless k == 1
        passes = np.where(k > 1, 3, 2)
        return passes * dim, dim * (_AMP + _PROB + 2 * _PROB) + np.where(k > 1, dim * _PROB, 0)
    if op in ("measure_v1", "measure_v2"):
        # zero fill, copy of the kept slice, norm, divide
        return dim * (3 + 1 / d), dim * (_AMP + 2 * _AMP / d + _AMP + 2 * _AMP)
    if op in ("basis_state", "omega_state"):
        return dim, dim * _AMP
    raise ValueError(f"no kernel cost for {op}")


class Tracer:
    """Span recorder for the quditsum layers; install with `installed()`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.tag = array("i")
        self.start = array("d")
        self.end = array("d")
        # qudit kernel calls: span index, d, k, target (-1 when not given)
        self.kernel = array("q")
        self._stack = [-1]
        self.current_trial = -1
        self.current_tag = -1
        self.trials_by_tag = [0] * len(SCENARIO_ORDER)
        self.decoys = 0
        self.rounds_built = 0
        self.rounds_fabricated = 0
        self.report_bytes = 0
        self._runs = 0
        self._encoded: set[tuple[int, int, int]] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        pick = before = after = None
        short = name.split(".", 1)[1]
        if short == "measure":
            v1, v2 = self._id("qudit.measure_v1"), self._id("qudit.measure_v2")

            def pick(args, kwargs):
                basis = args[2] if len(args) > 2 else kwargs["basis"]
                return v2 if basis.value == "V2" else v1
        if name.startswith("qudit.") and (short in QUDIT_OPS or short in ("measure", "register_init")):
            before = self._kernel_hook(short)
        before = {
            "harness.derive_trial_stream": self._on_trial,
            "harness.run_scenario": self._on_run,
        }.get(name, before)
        after = {
            "harness.run_scenario": self._after_run,
            "harness.write_report": self._after_write,
            "protocol.insert_decoys": self._after_decoys,
            "protocol.prepare_rounds": self._after_prepare,
            "protocol.encode_and_measure": self._after_encode,
            "adversary.fabricate_rounds": self._after_fabricate,
        }.get(name)

        names, parents, trials, tags = self.name, self.parent, self.trial, self.tag
        starts, ends, stack, clock = self.start, self.end, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid if pick is None else pick(args, kwargs))
            parents.append(stack[-1])
            trials.append(tracer.current_trial)
            tags.append(tracer.current_tag)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                if before is not None:
                    before(i, args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _kernel_hook(self, op: str):
        kernel = self.kernel
        if op == "register_init":
            def hook(i, args, kwargs):
                reg = args[0]
                kernel.extend((i, reg.d, reg.k, -1))
        elif op == "basis_state":
            def hook(i, args, kwargs):
                kernel.extend((i, args[0], len(args[1]), -1))
        elif op == "omega_state":
            def hook(i, args, kwargs):
                kernel.extend((i, args[0], args[1], -1))
        else:
            def hook(i, args, kwargs):
                reg = args[0]
                target = args[1] if len(args) > 1 else kwargs["target"]
                kernel.extend((i, reg.d, reg.k, target))
        return hook

    def _on_trial(self, i, args, kwargs):
        trial = args[1] if len(args) > 1 else kwargs["trial_index"]
        self.current_trial = self.trial[i] = trial

    def _on_run(self, i, args, kwargs):
        cfg = args[0]
        self._runs += 1
        self.current_trial = self.trial[i] = -1
        self.current_tag = self.tag[i] = SCENARIO_ORDER.index(cfg.scenario)
        self.trials_by_tag[self.current_tag] += cfg.trials

    def _after_run(self, args, kwargs, result):
        self.current_trial = -1

    def _after_write(self, args, kwargs, result):
        self.report_bytes += os.path.getsize(args[1])

    def _after_decoys(self, args, kwargs, result):
        self.decoys += sum(len(regs) for regs in result[0].values())

    def _after_prepare(self, args, kwargs, result):
        self.rounds_built += len(result)

    def _after_fabricate(self, args, kwargs, result):
        self.rounds_fabricated += len(result)

    def _after_encode(self, args, kwargs, result):
        self._encoded.add((self._runs, self.current_trial, args[0].index))

    # -- installing ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function while the context is open."""
        from quditsum.qudit import QuditRegister

        modules = [importlib.import_module(name) for name in _NAMESPACES]
        wrappers: dict[object, object] = {}
        try:
            for module in modules:
                for attr, obj in list(vars(module).items()):
                    if (attr.startswith("_") or not inspect.isfunction(obj)
                            or obj.__module__ not in _LAYER_MODULES):
                        continue
                    if obj not in wrappers:
                        layer = obj.__module__.rsplit(".", 1)[1]
                        wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
            original = QuditRegister.__dict__["__post_init__"]
            self._patched.append((QuditRegister, "__post_init__", original))
            QuditRegister.__post_init__ = self._wrap(original, "qudit.register_init")
            yield self
        finally:
            for owner, attr, obj in reversed(self._patched):
                setattr(owner, attr, obj)
            self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def _columns(self):
        name = np.frombuffer(self.name, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        tag = np.frombuffer(self.tag, dtype=np.intc).astype(np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name, tag, dur, dur - child

    def span_table(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        name, _, dur, self_t = self._columns()
        size = len(self.names)
        calls = np.bincount(name, minlength=size)
        total = np.bincount(name, weights=dur, minlength=size)
        own = np.bincount(name, weights=self_t, minlength=size)
        return {n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
                for i, n in enumerate(self.names)}

    def kernel_counts(self) -> tuple[float, float, float]:
        """Computed (amplitudes touched, bytes moved, self seconds of qudit spans)."""
        _, _, _, self_t = self._columns()
        rows = np.frombuffer(self.kernel, dtype=np.int64).reshape(-1, 4)
        ops = np.array([self.names[i].split(".", 1)[1] for i in range(len(self.names))])
        span_op = ops[np.frombuffer(self.name, dtype=np.intc)[rows[:, 0]]] if len(rows) else ops[:0]
        amps = moved = 0.0
        for op in np.unique(span_op):
            sel = rows[span_op == op]
            a, b = _kernel_cost(str(op), sel[:, 1], sel[:, 2], sel[:, 3])
            amps += float(np.sum(a))
            moved += float(np.sum(b))
        qudit_self = float(np.sum(self_t[rows[:, 0]])) if len(rows) else 0.0
        return amps, moved, qudit_self

    def decoy_share(self, scenario: str | None = None) -> float:
        """Decoy preparation and check time over scenario run plus report time."""
        name, tag, dur, _ = self._columns()
        mask = np.ones(len(dur), dtype=bool)
        if scenario is not None:
            mask = tag == SCENARIO_ORDER.index(scenario)

        def total(span_names):
            ids = [self._ids[n] for n in span_names if n in self._ids]
            return float(np.sum(dur[mask & np.isin(name, ids)]))

        whole = total(("harness.run_scenario", "harness.write_report"))
        return total(DECOY_SPANS) / whole if whole else 0.0

    def layer_metrics(self, trace_overhead_share: float) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, normalized per traced trial."""
        table = self.span_table()
        trials = sum(self.trials_by_tag)
        if trials == 0:
            raise ValueError("no traced trials")

        def row(name):
            return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

        def per_trial_ms(seconds):
            return seconds * 1e3 / trials

        def us_per_call(name):
            r = row(name)
            return r["total_s"] * 1e6 / r["calls"] if r["calls"] else 0.0

        out: dict[str, tuple[float, str]] = {}
        init = row("qudit.register_init")
        out["qudit.register_init.calls"] = (init["calls"] / trials, "calls/trial")
        out["qudit.register_init.self_ms"] = (per_trial_ms(init["self_s"]), "ms/trial")
        for op in QUDIT_OPS:
            r = row(f"qudit.{op}")
            out[f"qudit.{op}.calls"] = (r["calls"] / trials, "calls/trial")
            out[f"qudit.{op}.us_per_call"] = (us_per_call(f"qudit.{op}"), "us")
            out[f"qudit.{op}.self_ms"] = (per_trial_ms(r["self_s"]), "ms/trial")
        amps, moved, qudit_self = self.kernel_counts()
        out["qudit.amplitudes_touched"] = (amps / trials, "amps/trial")
        out["qudit.bytes_moved_computed"] = (moved / trials, "B/trial")
        out["qudit.gb_per_s_computed"] = (moved / qudit_self / 1e9 if qudit_self else 0.0, "GB/s")

        for name in ("protocol.insert_decoys", "protocol.check_decoys"):
            out[f"{name}.total_ms"] = (per_trial_ms(row(name)["total_s"]), "ms/trial")
        out["protocol.decoys_per_trial"] = (self.decoys / trials, "decoys/trial")
        out["protocol.decoy_share"] = (self.decoy_share(), "ratio")
        out["protocol.decoy_share_honest"] = (self.decoy_share("honest"), "ratio")
        for name in ("protocol.prepare_rounds", "protocol.encode_and_measure", "protocol.encode_rounds",
                     "verification.select_checks", "verification.execute_check"):
            out[f"{name}.calls"] = (row(name)["calls"] / trials, "calls/trial")
            out[f"{name}.total_ms"] = (per_trial_ms(row(name)["total_s"]), "ms/trial")
        out["protocol.rounds_built"] = (self.rounds_built / trials, "rounds/trial")

        out["adversary.fabricate_rounds.total_ms"] = (
            per_trial_ms(row("adversary.fabricate_rounds")["total_s"]), "ms/trial")
        out["adversary.fake_particles_built"] = (
            row("adversary.fake_particle")["calls"] / trials, "particles/trial")
        out["adversary.eve_intercept_resend.total_ms"] = (
            per_trial_ms(row("adversary.eve_intercept_resend")["total_s"]), "ms/trial")

        built = self.rounds_built + self.rounds_fabricated
        used = row("verification.execute_check")["calls"] + len(self._encoded)
        out["verification.rounds_used_share"] = (used / built if built else 0.0, "ratio")

        out["harness.derive_trial_stream.us_per_call"] = (us_per_call("harness.derive_trial_stream"), "us")
        out["harness.run_scenario.self_ms"] = (per_trial_ms(row("harness.run_scenario")["self_s"]), "ms/trial")
        out["harness.write_report.ms"] = (per_trial_ms(row("harness.write_report")["total_s"]), "ms/trial")
        out["harness.report_bytes_per_trial"] = (self.report_bytes / trials, "B/trial")
        out["trace_overhead_share"] = (trace_overhead_share, "ratio")
        return out

    def dump(self, path) -> None:
        """Write every span to a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            scenarios=np.array(SCENARIO_ORDER),
            name=np.frombuffer(self.name, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            trial=np.frombuffer(self.trial, dtype=np.intc),
            tag=np.frombuffer(self.tag, dtype=np.intc),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
