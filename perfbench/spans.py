"""Spans and counts at the boundaries of quadrep's layers, for the traced pass.

The wrappers live here, not in the program.  quadrep's modules bind names
with ``from .linalg import pivoted_qr``, so a wrapper is rebound under every
name in every ``quadrep`` module (and class) that holds the wrapped function,
and the originals are put back when the pass ends.  Spans and counts stay in
memory and are written once, after the pass.

A span's parent is the innermost open span of its thread.  Work the
convergence command hands to its thread pool is parented to the span that
submitted it, so pool work nests under its command.  A layer's self time is
the sum over its spans of the span's duration minus the part of it that its
child spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        arr = np.ascontiguousarray(part)
        h.update(f"{arr.dtype}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.digest()


def _pivoted_qr(tr, args, kwargs):
    a = np.asarray(_arg(args, kwargs, 0, "a"), dtype=float)
    tr.add("linalg.pivoted_qr.entries", a.size)
    tr.repeat("linalg.pivoted_qr.repeat_calls", _digest(a))


def _gauss_legendre(tr, args, kwargs):
    tr.repeat("orthopoly.gauss_legendre.repeat_calls", _arg(args, kwargs, 0, "order"))


def _legendre_row(tr, args, kwargs):
    tr.add("orthopoly.legendre_row.rows", np.size(_arg(args, kwargs, 1, "x")))


def _eval_rep(tr, args, kwargs):
    tr.add("representation.eval_rep.points", np.size(_arg(args, kwargs, 1, "x")))


def _evaluate(tr, args, kwargs):
    tr.add("representation.PolyCoeffs.evaluate.points", np.size(_arg(args, kwargs, 1, "x")))


def _knn_vote_index(tr, args, kwargs):
    # repeats of (positions, k): the inputs of the neighbour windows it recomputes
    positions = np.asarray(_arg(args, kwargs, 1, "positions"), dtype=float)
    tr.repeat("denoise.knn_vote_index.repeat_calls",
              _digest(positions, np.asarray(_arg(args, kwargs, 2, "k", 10))))


def _knn_rounds(tr, result):
    tr.add("denoise.knn_vote_index.rounds", result[1])


def _iterations(tr, result):
    tr.add("denoise.denoise_iterative.iterations", result.iterations)


# (module, attribute, count before the call, count from the result, record
# a span); the layer name is the module's last part and the attribute.
# PolyCoeffs.evaluate is counted without a span: it runs inside the other
# representation spans tens of thousands of times.
TARGETS = (
    ("quadrep.orthopoly", "gauss_legendre", _gauss_legendre, None, True),
    ("quadrep.orthopoly", "legendre_row", _legendre_row, None, True),
    ("quadrep.linalg", "pivoted_qr", _pivoted_qr, None, True),
    ("quadrep.linalg", "weighted_lsq", None, None, True),
    ("quadrep.dictionary", "build_grid", None, None, True),
    ("quadrep.dictionary", "assemble", None, None, True),
    ("quadrep.selection", "greedy_select", None, None, True),
    ("quadrep.selection", "rrqr_select", None, None, True),
    ("quadrep.representation", "eval_rep", _eval_rep, None, True),
    ("quadrep.representation", "roots_at", None, None, True),
    ("quadrep.representation", "assign_index", None, None, True),
    ("quadrep.representation", "relative_l2", None, None, True),
    ("quadrep.representation", "PolyCoeffs.evaluate", _evaluate, None, False),
    ("quadrep.denoise", "knn_vote_index", _knn_vote_index, _knn_rounds, True),
    ("quadrep.denoise", "denoise_iterative", None, _iterations, True),
    ("quadrep.denoise", "noise_constraints", None, None, True),
    ("quadrep.denoise", "project_noise", None, None, True),
    ("quadrep.denoise", "fit_manifold_ls", None, None, True),
)

# The per-layer metrics reported, with their units; the same list as in
# BENCHMARK.json.
PER_LAYER = (
    ("linalg.pivoted_qr.calls", "count"),
    ("linalg.pivoted_qr.repeat_calls", "count"),
    ("linalg.pivoted_qr.entries", "count"),
    ("linalg.pivoted_qr.self_s", "s"),
    ("linalg.weighted_lsq.calls", "count"),
    ("linalg.weighted_lsq.self_s", "s"),
    ("selection.greedy_select.calls", "count"),
    ("selection.greedy_select.self_s", "s"),
    ("selection.rrqr_select.calls", "count"),
    ("selection.rrqr_select.self_s", "s"),
    ("dictionary.assemble.calls", "count"),
    ("dictionary.assemble.self_s", "s"),
    ("dictionary.build_grid.calls", "count"),
    ("dictionary.build_grid.self_s", "s"),
    ("orthopoly.gauss_legendre.calls", "count"),
    ("orthopoly.gauss_legendre.repeat_calls", "count"),
    ("orthopoly.gauss_legendre.self_s", "s"),
    ("orthopoly.legendre_row.calls", "count"),
    ("orthopoly.legendre_row.rows", "count"),
    ("orthopoly.legendre_row.self_s", "s"),
    ("representation.eval_rep.calls", "count"),
    ("representation.eval_rep.points", "count"),
    ("representation.eval_rep.self_s", "s"),
    ("representation.roots_at.calls", "count"),
    ("representation.roots_at.self_s", "s"),
    ("representation.PolyCoeffs.evaluate.calls", "count"),
    ("representation.PolyCoeffs.evaluate.points", "count"),
    ("representation.assign_index.calls", "count"),
    ("representation.assign_index.self_s", "s"),
    ("representation.relative_l2.calls", "count"),
    ("representation.relative_l2.self_s", "s"),
    ("denoise.knn_vote_index.calls", "count"),
    ("denoise.knn_vote_index.repeat_calls", "count"),
    ("denoise.knn_vote_index.rounds", "count"),
    ("denoise.knn_vote_index.self_s", "s"),
    ("denoise.denoise_iterative.calls", "count"),
    ("denoise.denoise_iterative.iterations", "count"),
    ("denoise.denoise_iterative.self_s", "s"),
    ("denoise.noise_constraints.calls", "count"),
    ("denoise.noise_constraints.self_s", "s"),
    ("denoise.project_noise.calls", "count"),
    ("denoise.project_noise.self_s", "s"),
    ("denoise.fit_manifold_ls.calls", "count"),
    ("denoise.fit_manifold_ls.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Spans and counts of one traced pass, shared by every thread of it."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.spans = []  # (id, name, parent id, start, end)
        self.counts = defaultdict(int)
        self._seen = defaultdict(set)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, metric: str, n: int = 1) -> None:
        with self._lock:
            self.counts[metric] += int(n)

    def repeat(self, metric: str, key) -> None:
        """Count the call as a repeat if an earlier call of the pass had ``key``."""
        with self._lock:
            if key in self._seen[metric]:
                self.counts[metric] += 1
            else:
                self._seen[metric].add(key)

    def timed(self, name: str, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, parent, t0, t1))

    def run_under(self, parent, fn, *args, **kwargs):
        """Run ``fn`` in this thread as a child of span ``parent``."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def command(self, cli_main):
        """``cli_main`` inside a "cli" span per command."""
        return lambda argv: self.timed("cli", cli_main, (argv,), {})

    def wrap(self, name, fn, before, after, span):
        calls = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(calls)
            if before is not None:
                before(self, args, kwargs)
            result = self.timed(name, fn, args, kwargs) if span else fn(*args, **kwargs)
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def pool_class(self):
        tracer = self

        class ParentedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                return super().submit(tracer.run_under, parent, fn, *args, **kwargs)

        return ParentedPool

    def self_times(self) -> dict:
        children = defaultdict(list)
        for _, _, parent, t0, t1 in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        totals = defaultdict(float)
        for sid, name, _, t0, t1 in self.spans:
            totals[name] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        return totals

    def write(self, path) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        origin = min((s[3] for s in self.spans), default=0.0)
        doc = {
            "counts": dict(sorted(self.counts.items())),
            "self_s": dict(sorted(self.self_times().items())),
            "span_names": names,
            "span_fields": ["id", "name", "parent", "start_us", "end_us"],
            "spans": [[sid, index[name], parent, round((t0 - origin) * 1e6, 1),
                       round((t1 - origin) * 1e6, 1)]
                      for sid, name, parent, t0, t1 in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every target (and the CLI's thread pool) to traced versions."""
    modules = [m for n, m in sys.modules.items() if n == "quadrep" or n.startswith("quadrep.")]
    classes = {id(v): v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("quadrep")}
    owners = modules + list(classes.values())
    patches = []
    for module, attr, before, after, span in TARGETS:
        name = f"{module.split('.')[-1]}.{attr}"
        owner = sys.modules[module]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[leaf]
        wrapper = tracer.wrap(name, original, before, after, span)
        for o in owners:
            patches.extend((o, key, original, wrapper)
                           for key, value in list(vars(o).items()) if value is original)
    cli = sys.modules["quadrep.cli"]
    patches.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor, tracer.pool_class()))
    for owner, key, _, wrapper in patches:
        setattr(owner, key, wrapper)
    try:
        yield
    finally:
        for owner, key, original, _ in patches:
            setattr(owner, key, original)


def count_mismatches(tracers) -> list[str]:
    """Counts must repeat exactly from one traced pass to the next."""
    first = dict(tracers[0].counts)
    problems = []
    for i, tracer in enumerate(tracers[1:], start=2):
        differ = sorted(k for k in first.keys() | tracer.counts.keys()
                        if first.get(k) != tracer.counts.get(k))
        if differ:
            problems.append(f"traced pass {i}: counts differ from pass 1 on {differ}")
    return problems


def per_layer_metrics(tracers, overhead_s: float) -> dict:
    """Counts of the first traced pass; self times as the mean over the traced passes."""
    selfs = [t.self_times() for t in tracers]
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            value = overhead_s
        elif name.endswith(".self_s"):
            value = statistics.mean(s.get(name[: -len(".self_s")], 0.0) for s in selfs)
        else:
            value = tracers[0].counts.get(name, 0)
        metrics[name] = (value, unit)
    return metrics
