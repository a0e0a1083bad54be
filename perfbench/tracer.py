"""Span tracing from outside the program: wrap the names callers look up.

``qgat`` has no telemetry of its own yet, so the traced run patches module
and class attributes for the duration of a ``with`` block and restores them
afterwards.  Each wrapper records a span (name, start, end, parent index)
and, where the layer does countable work, bumps a counter.  A span's self
time is its duration minus the durations of its direct children; the self
times of every span under a root plus the root's own self time add up to
the root's duration.

The patched names are the ones the calling module resolves at call time:
``qgat.attention.segment_sum`` rather than ``qgat.autodiff.segment_sum``,
``qgat.vqc.ry_batch`` rather than ``qgat.statevector.ry_batch``, and so on.
Backward passes are traced by replacing the ``_vjp`` closure on Tensors
returned by ``vqc.expectations_op`` and ``take_rows``.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable

from qgat import attention, autodiff, inductive, training, vqc
from qgat import graph as graph_mod

GATES = ("ry_batch", "rz_batch", "cnot_batch", "pauli_y_half_batch", "pauli_z_half_batch")

# every span name the tracer can record; each becomes the "<name>_s" self-time metric
SPAN_NAMES = (
    "graph.construct", "graph.attention_edges", "graph.split_link",
    "statevector.encode", "statevector.gate",
    "vqc.forward", "vqc.adjoint",
    "autodiff.segment_sum", "autodiff.segment_max", "autodiff.scatter", "autodiff.backward",
    "attention.forward", "attention.softmax",
    "training.step", "training.eval", "training.loss", "training.adamw",
    "inductive.batch_graphs", "inductive.split_eval",
)
COUNT_NAMES = (
    "statevector.gate_calls", "statevector.amp_bytes", "vqc.executions",
    "autodiff.segment_sum_elems", "autodiff.ops_recorded", "attention.edges",
    "inductive.batch_graphs_calls",
)


@contextlib.contextmanager
def patched(targets: list[tuple[object, str, Callable[[Callable], Callable]]]):
    """Replace ``owner.attr`` with ``make(original)`` for each target; restore on exit."""
    originals = []
    try:
        for owner, attr, make in targets:
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


class Tracer:
    """In-memory spans and counters for one traced repetition."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.root_counts: dict[str, Counter[str]] = {}
        self._counts: Counter[str] = Counter()  # the current root's; dropped outside roots

    @property
    def counts(self) -> Counter[str]:
        """Counters summed over every root."""
        return sum(self.root_counts.values(), Counter())

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Span around ``fn``; ``after(args, result)`` runs inside the span."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                stack.pop()
                rec[2] = perf_counter()

        return wrapper

    @contextlib.contextmanager
    def root(self, name: str):
        """Top-level span; its self time is the part no layer span covers."""
        if self.stack:
            raise RuntimeError("root spans cannot nest")
        self._counts = self.root_counts.setdefault(name, Counter())
        rec = [name, perf_counter(), 0.0, -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self.stack.pop()
            rec[2] = perf_counter()
            self._counts = Counter()

    # -- hooks ---------------------------------------------------------------

    def _count_gate(self, args, result) -> None:
        states = args[0]
        self._counts["statevector.gate_calls"] += 1
        # amplitudes are complex128 (16 B), each read once and written once
        self._counts["statevector.amp_bytes"] += states.shape[0] * states.shape[1] * 16 * 2

    def _count_executions(self, args, result) -> None:
        inputs = args[0]
        rows = inputs.data.shape[0] if isinstance(inputs, autodiff.Tensor) else len(inputs)
        self._counts["vqc.executions"] += rows

    def _after_expectations(self, args, result) -> None:
        self._count_executions(args, result)
        if result._vjp is not None:
            result._vjp = self.wrap("vqc.adjoint", result._vjp)

    def _after_take_rows(self, args, result) -> None:
        if result._vjp is not None:
            result._vjp = self.wrap("autodiff.scatter", result._vjp)

    def _count(self, name: str, amount: Callable) -> Callable:
        def after(args, result):
            self._counts[name] += amount(args)
        return after

    def targets(self) -> list[tuple[object, str, Callable[[Callable], Callable]]]:
        def span(name, after=None):
            return lambda fn: self.wrap(name, fn, after)

        def hook(after):
            return lambda fn: self._post(fn, after)

        one = self._count("inductive.batch_graphs_calls", lambda args: 1)
        ops = self._count("autodiff.ops_recorded", lambda args: 1)
        elems = self._count("autodiff.segment_sum_elems", lambda args: args[0].data.size)
        edges = self._count("attention.edges", lambda args: len(args[1]))
        out = [
            (graph_mod.Graph, "__init__", span("graph.construct")),
            (graph_mod.Graph, "attention_edges", span("graph.attention_edges")),
            (graph_mod, "split_link_prediction", span("graph.split_link")),
            (vqc, "encode_batch", span("statevector.encode")),
            (vqc, "expectations_op", span("vqc.forward", self._after_expectations)),
            (vqc, "circuit_forward_batch", span("vqc.forward", self._count_executions)),
            (vqc, "make_op", hook(ops)),
            (autodiff, "make_op", hook(ops)),
            (autodiff.Tensor, "backward", span("autodiff.backward")),
            (attention, "segment_sum", span("autodiff.segment_sum", elems)),
            (attention, "segment_max", span("autodiff.segment_max")),
            (attention, "take_rows", hook(self._after_take_rows)),
            (training, "take_rows", hook(self._after_take_rows)),
            (attention._AttentionLayer, "forward", span("attention.forward")),
            (attention, "neighborhood_softmax", span("attention.softmax", edges)),
            (training, "training_step", span("training.step")),
            (inductive, "training_step", span("training.step")),
            (training, "evaluate", span("training.eval")),
            (training, "loss", span("training.loss")),
            (inductive, "loss", span("training.loss")),
            (training, "adamw_step", span("training.adamw")),
            (inductive, "batch_graphs", span("inductive.batch_graphs", one)),
            (inductive, "_split_eval", span("inductive.split_eval")),
        ]
        out += [(vqc, gate, span("statevector.gate", self._count_gate)) for gate in GATES]
        return out

    @staticmethod
    def _post(fn: Callable, after: Callable) -> Callable:
        """No span, only ``after(args, result)``: for counting, or where the forward is trivial."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return wrapper

    def installed(self):
        return patched(self.targets())

    # -- reduction ---------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, dict[str, float]], dict[str, float]]:
        """({root name: self seconds per span name under it}, {root name: duration})."""
        child_time = [0.0] * len(self.spans)
        root_of = []
        for i, (_, start, end, parent) in enumerate(self.spans):
            # a parent is appended before its children
            root_of.append(i if parent < 0 else root_of[parent])
            if parent >= 0:
                child_time[parent] += end - start
        own: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        roots: dict[str, float] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            own[self.spans[root_of[i]][0]][name] += (end - start) - child_time[i]
            if parent < 0:
                roots[name] = end - start
        return {root: dict(names) for root, names in own.items()}, roots

    def total_time(self, name: str) -> float:
        """Inclusive seconds of every span called ``name`` (for names that never nest)."""
        return sum(end - start for span, start, end, _ in self.spans if span == name)
