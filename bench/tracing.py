"""Spans recorded from the benchmark's side of each layer boundary.

A span is (name, start, end, parent). Spans are kept in memory and written
out once, when the run ends. No package file changes: the traced step calls
the public layer objects one stage at a time, and where a timing must reach
inside a call (`gru_direction` and `conv1d` inside the encoders, the steps
inside `training.train`) the names that call looks up are swapped for timed
wrappers and restored on exit.
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext

import numpy as np

from netgen import graphgen, nncore, training
from netgen.nncore import layers as nn_layers

# Ops timed inside the traced step: span prefix -> (module, attribute).
TAPE_OPS = {
    "nncore.gru_direction": (nncore, "gru_direction"),
    "nncore.conv1d": (nn_layers, "conv1d"),
}


class Tracer:
    """In-memory span recorder; a span's parent is the span open around it."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def _root(self, index):
        while self.spans[index][3] >= 0:
            index = self.spans[index][3]
        return index

    def per_root(self, name, scale=1e-6):
        """Summed duration of `name` under each root span that holds it
        (ms by default), in root order."""
        sums = {}
        for i, (n, start, end, _) in enumerate(self.spans):
            if n == name:
                root = self._root(i)
                sums[root] = sums.get(root, 0.0) + (end - start) * scale
        return [sums[r] for r in sorted(sums)]

    def median(self, name, scale=1e-6):
        values = self.per_root(name, scale)
        if not values:
            raise KeyError(f"no span named {name!r} was recorded")
        return statistics.median(values)

    def summary(self):
        """Per span name: count, total and self time (total minus the part
        covered by child spans), both in ms."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (end - start) * 1e-6
            row["self_ms"] += (end - start - child_ns[i]) * 1e-6
        return out

    def write(self, path, extra):
        t0 = min((s[1] for s in self.spans), default=0)
        doc = dict(extra)
        doc["summary"] = self.summary()
        doc["spans"] = [
            {"name": n, "start_ms": (s - t0) * 1e-6, "end_ms": (e - t0) * 1e-6, "parent": p}
            for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps(doc, indent=1, sort_keys=True))


class NullTracer:
    """Stands in for a Tracer when tracing is off; records nothing."""

    def span(self, name):
        return nullcontext()


@contextmanager
def timed_ops(tracer):
    """Wrap the tape ops of TAPE_OPS so each forward call and each backward
    closure records a span; restores the originals on exit."""
    saved = {}

    def wrap(prefix, op):
        def timed(*args, **kwargs):
            with tracer.span(prefix + ".fwd"):
                out = op(*args, **kwargs)
            backward = out._bw

            def timed_backward(grad):
                with tracer.span(prefix + ".bwd"):
                    return backward(grad)

            out._bw = timed_backward
            return out

        return timed

    try:
        for prefix, (module, attr) in TAPE_OPS.items():
            saved[prefix] = getattr(module, attr)
            setattr(module, attr, wrap(prefix, saved[prefix]))
        yield
    finally:
        for prefix, op in saved.items():
            module, attr = TAPE_OPS[prefix]
            setattr(module, attr, op)


@contextmanager
def step_time(acc):
    """While active, models that `training.train` builds add to acc["ns"]
    the time from each optimizer step's forward call to the end of that
    Adam step; what is left of an epoch is validation, batching and state
    copies."""
    real_build, real_step = training.build_model, nncore.Adam.step
    last_forward = [0]

    def build(*args, **kwargs):
        model = real_build(*args, **kwargs)
        forward = model.forward

        def timed_forward(*a, **k):
            last_forward[0] = time.perf_counter_ns()
            return forward(*a, **k)

        model.forward = timed_forward
        return model

    def step(self):
        real_step(self)
        acc["ns"] += time.perf_counter_ns() - last_forward[0]

    training.build_model, nncore.Adam.step = build, step
    try:
        yield
    finally:
        training.build_model, nncore.Adam.step = real_build, real_step


def tape_nodes(root) -> int:
    """Distinct tensors reachable from `root` through the tape."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def cut_step(model, xb, fb, yb, weights, tracer):
    """One forward/backward of a learnable-graph model, cut at every layer
    boundary.

    Each stage receives the previous stage's output `.data` as a fresh
    tensor and is back-propagated on its own, seeded with the gradient that
    reached the boundary. Returns the loss components and the graph batch.
    Call under the dtype the model was built in.
    """
    T = nncore.Tensor
    with tracer.span("encoders.fwd"):
        h_e = model.encoder(T(xb))
    h_cut = T(h_e.data)
    with tracer.span("graphgen.generate_fwd"):
        graphs = graphgen.generate_graph(h_cut)
    g_gcn, g_loss = T(graphs.data), T(graphs.data)
    with tracer.span("predictor.gcn_fwd"):
        logits = model.gcn(g_gcn, T(fb))
    logits_cut = T(logits.data)
    with tracer.span("graphgen.losses_fwd"):
        loss, comps = training.total_loss(logits_cut, yb, g_loss, weights)
    with tracer.span("graphgen.losses_bwd"):
        loss.backward()
    with tracer.span("predictor.gcn_bwd"):
        logits.backward(seed=logits_cut.grad)
    with tracer.span("graphgen.generate_bwd"):
        graphs.backward(seed=g_gcn.grad + g_loss.grad)
    with tracer.span("encoders.bwd"):
        h_e.backward(seed=h_cut.grad)
    return comps, graphs.data


def whole_step(model, xb, fb, yb, weights, optimizer, tracer):
    """One uncut training step: forward, loss, backward and (if given) Adam.
    Returns the tape node count of the loss."""
    T = nncore.Tensor
    with tracer.span("training.step"):
        logits, graphs = model.forward(T(xb), T(fb))
        loss, _ = training.total_loss(logits, yb, graphs, weights)
        if optimizer is not None:
            optimizer.zero_grad()
        with tracer.span("nncore.backward"):
            loss.backward()
        if optimizer is not None:
            with tracer.span("nncore.adam"):
                optimizer.step()
    return tape_nodes(loss)


def param_grads(model):
    return {name: None if p.grad is None else p.grad.copy() for name, p in model.named_params()}


def clear_grads(model):
    for _, p in model.named_params():
        p.grad = None


def grads_mismatch(cut, whole, rtol=1e-4):
    """Names of parameters whose cut-chain gradient differs from the uncut
    one by more than `rtol` of that parameter's largest gradient entry."""
    bad = []
    for name, ref in whole.items():
        got = cut[name]
        if ref is None or got is None:
            if (ref is None) != (got is None):
                bad.append(name)
            continue
        scale = float(np.abs(ref).max()) or 1.0
        if not np.allclose(got, ref, rtol=0.0, atol=rtol * scale):
            bad.append(name)
    return bad
