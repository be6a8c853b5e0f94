"""One user session per run: synthesize, write, load, train, evaluate, save,
reload and interpret, all through netgen's public functions.

`run()` sets the dataset up several times, repeats whole session rounds
until the measuring time is spent, checks the outputs of the last round and
returns the result object `run.py` prints. With tracing on, rounds
alternate between untraced and traced, and a traced step splits one
training batch by layer.
"""
from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np
import scipy

import checks
import tracing
from netgen import dataset, encoders, interpret, nncore, predictor, training

SETUP_REPS = 3
TRACED_STEPS = 5  # repeats of each traced micro-measurement
EVAL_BATCH = 64  # the batch `training.evaluate` and `collect_graphs` use
INTERPRET_ALPHA = 0.05
REFERENCE_BATCH = (16, 20, 64)  # README config batch for ops a workload never runs
TRACE_DTYPE = np.float32  # the dtype `training.train` runs its steps in
PIPELINE_EPOCHS = 2
# The workload seed makes the data, as `synth.seed` does in a netgen config;
# training and the split use the config seed, fixed here like the first of
# the README config's `seeds`.
TRAIN_SEED = 0
# README config values; lr is the one the acceptance tests train with.
DIM, BATCH_SIZE, LR = 8, 16, 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    v: int
    t: int
    n: int
    modules: dict
    effect: float
    kind: str  # encoder: "gru" or "cnn"
    split: tuple  # train, val, test ratios
    epochs: int
    window: int = 16  # GRU segment length / first CNN kernel

    def synth_spec(self):
        return dataset.SynthSpec(v=self.v, t=self.t, n=self.n, modules=dict(self.modules),
                                 planted="m1", effect=self.effect, noise=1.0)

    def train_config(self):
        return training.TrainConfig(
            encoder=encoders.EncoderConfig(kind=self.kind, window=self.window, dim=DIM),
            lr=LR, batch_size=BATCH_SIZE, epochs=self.epochs, seed=TRAIN_SEED,
            split=dataset.SplitSpec(*self.split, seed=TRAIN_SEED),
        )


README_MODULES = {"m1": 5, "m2": 5, "m3": 5, "m4": 5}

# The planted pair runs the README config once per encoder, so each encoder
# optimisation has a workload that exercises it and one that bypasses it.
# wide-roi has the PNC atlas size (264 ROIs) with short series, where the
# O(v^2) graph, GCN, group-loss and edge-test work is about half the total.
# Its window of 8 keeps the README config's four GRU segments per series;
# with the larger planted effect and val/test shares, the AUROC and
# planted-module checks hold with a margin after four epochs.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("planted-gru", v=20, t=64, n=400, modules=README_MODULES, effect=2.0, kind="gru",
                 split=(0.7, 0.1, 0.2), epochs=3),
        Workload("planted-cnn", v=20, t=64, n=400, modules=README_MODULES, effect=2.0, kind="cnn",
                 split=(0.7, 0.1, 0.2), epochs=3),
        Workload("wide-roi", v=264, t=32, n=160, modules={f"m{i}": 66 for i in range(1, 5)},
                 effect=6.0, window=8,
                 kind="gru", split=(0.5, 0.25, 0.25), epochs=4),
    )
}

# Each stage of a round, named by the span that times it when traced.
ROUND_STAGES = (
    "training.train",
    "training.evaluate",
    "nncore.checkpoint_save",
    "nncore.checkpoint_load",
    "interpret.collect",
    "interpret.ttest",
    "interpret.scores",
    "interpret.export",
)
INTERPRET_STAGES = ROUND_STAGES[2:]

END_TO_END = (
    ("setup_s", "s"),
    ("train_samples_per_s", "samples/s"),
    ("eval_samples_per_s", "samples/s"),
    ("interpret_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# Per-layer metrics read as span medians: the span is the name without its
# unit suffix.
SPAN_METRICS = (
    "dataset.write_s",
    "dataset.load_s",
    "dataset.features_ms",
    "encoders.fwd_ms",
    "encoders.bwd_ms",
    "encoders.eval_fwd_ms",
    "nncore.gru_direction.fwd_ms",
    "nncore.gru_direction.bwd_ms",
    "nncore.conv1d.fwd_ms",
    "nncore.conv1d.bwd_ms",
    "nncore.backward_ms",
    "nncore.adam_ms",
    "nncore.checkpoint_save_ms",
    "nncore.checkpoint_load_ms",
    "graphgen.generate_fwd_ms",
    "graphgen.generate_bwd_ms",
    "graphgen.losses_fwd_ms",
    "graphgen.losses_bwd_ms",
    "predictor.gcn_fwd_ms",
    "predictor.gcn_bwd_ms",
    "training.step_ms",
    "interpret.collect_ms",
    "interpret.ttest_ms",
    "interpret.scores_ms",
    "interpret.export_ms",
)
# Per-layer metrics that are not span medians.
DERIVED = {
    "nncore.tape_nodes": "count",
    "training.epoch_other_ms": "ms",
    "training.step_peak_mb": "MiB",
    "training.eval_batch_peak_mb": "MiB",
    "trace.overhead_ratio": "ratio",
}

class StageFailed(Exception):
    pass


@dataclass
class Ledger:
    """Stages and checks attempted and failed in one run."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    wrong: list = field(default_factory=list)

    def stage(self, name, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed stage is counted, not fatal to the run
            self.failed += 1
            self.errors.append(f"{name}: {exc!r}")
            raise StageFailed(name) from exc

    def skipped(self, count):
        """Stages that could not run because an earlier one failed."""
        self.attempted += count
        self.failed += count

    def check(self, name, fn, *args):
        self.attempted += 1
        try:
            reason = fn(*args)
        except Exception as exc:  # a check that crashes is a failed check
            reason = f"raised {exc!r}"
        if reason is not None:
            self.failed += 1
            self.wrong.append(f"{name}: {reason}")


class Session:
    def __init__(self, workload, seed, workdir, ledger, tracer):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.ledger = ledger
        self.tracer = tracer
        self.config = workload.train_config()
        self.generated = self.ds = None
        self.histories = []
        self.last = {}

    # -- set-up ---------------------------------------------------------
    def setup_once(self):
        """Synthesize, write and load the dataset; returns the seconds spent."""
        data_dir = self.workdir / "dataset"
        shutil.rmtree(data_dir, ignore_errors=True)
        span = self.tracer.span
        t0 = time.perf_counter()
        with span("setup"):
            with span("dataset.synthesize"):
                generated = self.ledger.stage("synthesize", dataset.generate_synthetic,
                                              self.w.synth_spec(), self.seed)
            with span("dataset.write"):
                self.ledger.stage("write", dataset.write_dataset, generated, data_dir)
            with span("dataset.load"):
                ds = self.ledger.stage("load", dataset.load_dataset, data_dir)
        elapsed = time.perf_counter() - t0
        self.generated, self.ds = generated, ds
        return elapsed

    # -- one session round ----------------------------------------------
    def round(self, traced):
        tracer = self.tracer if traced else tracing.NullTracer()
        ds, cfg, out = self.ds, self.config, self.workdir / "interpret"
        ckpt = self.workdir / "checkpoint.json"
        times = {}

        def run(name, fn, *args):
            t0 = time.perf_counter()
            with tracer.span(name):
                result = self.ledger.stage(name, fn, *args)
            times[name] = time.perf_counter() - t0
            return result

        try:
            with tracer.span("session.round"):
                steps = {"ns": 0}
                with tracing.step_time(steps) if traced else nullcontext():
                    tm, history = run("training.train", training.train, cfg, ds)
                if traced:
                    times["train_steps"] = steps["ns"] * 1e-9
                run("training.evaluate", training.evaluate, tm, ds)
                run("nncore.checkpoint_save", training.save_model, tm, ckpt)
                reloaded = run("nncore.checkpoint_load", training.load_model, ckpt)
                graphs, labels = run("interpret.collect", interpret.collect_graphs, reloaded, ds)
                edges = run("interpret.ttest", interpret.edge_ttest, graphs, labels,
                            INTERPRET_ALPHA)
                scores = run("interpret.scores", interpret.module_difference_scores, edges,
                             ds.partition, ds.v)
                run("interpret.export", export_all, graphs, labels, edges, scores, out)
        except StageFailed:
            done = sum(name in times for name in ROUND_STAGES)
            self.ledger.skipped(len(ROUND_STAGES) - done - 1)
            return None
        self.histories.append(history)
        self.last = dict(tm=tm, reloaded=reloaded, graphs=graphs, labels=labels,
                         edges=edges, scores=scores)
        return times

    # -- checks at the end of the run ------------------------------------
    def check_outputs(self, cut):
        led = self.ledger
        led.check("dataset_roundtrip", checks.dataset_roundtrip, self.generated, self.ds)
        led.check("losses_finite", checks.losses_finite, self.histories)
        if not self.last:
            led.skipped(6)
        else:
            self.check_last_round()
        if cut is None:
            led.skipped(2)
            return
        comps, graphs, yb, mismatch = cut
        led.check("losses_match_oracles", checks.losses_match_oracles, comps, graphs, yb)
        led.check("cut_step_grads", lambda: None if not mismatch else
                  f"cut-chain gradients differ from the uncut step for {mismatch}")

    def check_last_round(self):
        led, last = self.ledger, self.last
        _, _, test = dataset.split(self.ds, self.config.split)
        xs, feats, labels = checks.model_inputs(test)
        test_metrics = training.evaluate(last["tm"], test)
        scores = checks.class1_scores(last["tm"], xs, feats)
        led.check("auroc_mann_whitney", checks.auroc_matches_mann_whitney,
                  test_metrics.auroc, scores, labels)
        led.check("test_auroc_above_chance", checks.auroc_above_chance, test_metrics.auroc)
        led.check("reload_reproduces", lambda: checks.reload_reproduces(
            test_metrics, training.evaluate(last["reloaded"], test)))
        led.check("edges_match_scipy", checks.edges_match_scipy, last["edges"],
                  last["graphs"], last["labels"], INTERPRET_ALPHA)
        led.check("planted_module_first", checks.planted_module_first, last["scores"],
                  last["edges"], self.ds.partition, self.ds.v, "m1")
        led.check("graphs_valid", checks.graphs_valid, last["graphs"], DIM)

    # -- the traced step ------------------------------------------------
    def training_batch(self):
        train_ds, _, _ = dataset.split(self.ds, self.config.split)
        xs, feats, labels = checks.model_inputs(train_ds)
        order = np.random.default_rng(TRAIN_SEED).permutation(len(labels))[:BATCH_SIZE]
        return xs[order], feats[order], labels[order]

    def fresh_model(self):
        return predictor.build_model(
            f"fbnetgen-{self.w.kind}", self.config.encoder, self.config.predictor,
            v=self.ds.v, seed=TRAIN_SEED)

    def cut_step_check(self):
        """One cut-chain step against one uncut step of the same batch;
        returns what the two step checks need."""
        xb, fb, yb = self.training_batch()
        null = tracing.NullTracer()
        with nncore.default_dtype(TRACE_DTYPE):
            model = self.fresh_model()
            tracing.whole_step(model, xb, fb, yb, self.config.loss, None, null)
            whole = tracing.param_grads(model)
            tracing.clear_grads(model)
            comps, graphs = tracing.cut_step(model, xb, fb, yb, self.config.loss, null)
            cut = tracing.param_grads(model)
        return comps, graphs, yb, tracing.grads_mismatch(cut, whole)

    def traced_layers(self, tracer):
        """Per-layer measurements: cut-chain and whole steps of one float32
        training batch, float64 eval batches of the trained model, feature
        extraction and allocation peaks. Returns the metrics not read from
        span medians."""
        cfg = self.config
        xb, fb, yb = self.training_batch()
        derived = {}
        with nncore.default_dtype(TRACE_DTYPE):
            model = self.fresh_model()
            with tracing.timed_ops(tracer):
                for _ in range(TRACED_STEPS):
                    with tracer.span("traced.cut_step"):
                        tracing.cut_step(model, xb, fb, yb, cfg.loss, tracer)
                    tracing.clear_grads(model)
            optimizer = nncore.Adam(model.named_params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
            for _ in range(TRACED_STEPS):
                derived["nncore.tape_nodes"] = tracing.whole_step(
                    model, xb, fb, yb, cfg.loss, optimizer, tracer)
            derived["training.step_peak_mb"] = peak_alloc_mb(
                lambda: tracing.whole_step(model, xb, fb, yb, cfg.loss, optimizer,
                                           tracing.NullTracer()))
        for op in tracing.TAPE_OPS:
            if not tracer.per_root(op + ".fwd"):
                reference_op(op, tracer)

        tm = self.last["tm"]
        xs, feats, labels = checks.model_inputs(self.ds)
        xe, fe, ye = xs[:EVAL_BATCH], feats[:EVAL_BATCH], labels[:EVAL_BATCH]
        tm.model.set_training(False)
        for _ in range(TRACED_STEPS):
            with tracer.span("traced.eval"):
                with tracer.span("encoders.eval_fwd"):
                    tm.model.encoder(nncore.Tensor(xe))
            with tracer.span("traced.features"):
                with tracer.span("dataset.features"):
                    checks.model_inputs(self.ds)

        def eval_batch():
            logits, graphs = tm.model.forward(nncore.Tensor(xe), nncore.Tensor(fe))
            return training.total_loss(logits, ye, graphs, cfg.loss)

        derived["training.eval_batch_peak_mb"] = peak_alloc_mb(eval_batch)
        return derived

    def pipeline_epochs(self):
        """Seconds per epoch of each of the six pipelines on this dataset
        (None where the CNN encoder's receptive field exceeds t)."""
        cnn = encoders.CnnEncoder(encoders.EncoderConfig("cnn", self.w.window, DIM),
                                  np.random.default_rng(0))
        out = {}
        for pipeline in predictor.PIPELINES:
            if "cnn" in pipeline and self.ds.t < cnn.min_length():
                out[pipeline] = None
                continue
            cfg = replace(self.config, epochs=PIPELINE_EPOCHS)
            t0 = time.perf_counter()
            training.train(cfg, self.ds, pipeline=pipeline)
            out[pipeline] = (time.perf_counter() - t0) / PIPELINE_EPOCHS
        return out


def reference_op(op, tracer):
    """Time a tape op the workload's session never runs on one README-config
    batch, so its per-layer metric exists on every workload."""
    kind = "gru" if "gru" in op else "cnn"
    rng = np.random.default_rng(0)
    x = rng.standard_normal(REFERENCE_BATCH)
    with nncore.default_dtype(TRACE_DTYPE), tracing.timed_ops(tracer):
        enc = encoders.build_encoder(encoders.EncoderConfig(kind, 16, 8), rng)
        for _ in range(TRACED_STEPS):
            with tracer.span("traced.reference"):
                h = enc(nncore.Tensor(x))
                h.backward(seed=np.ones(h.shape))
            for _, p in enc.named_params():
                p.grad = None


def peak_alloc_mb(fn):
    """Peak traced allocation of one call of fn, in MiB above what was live
    before it, with what fn returns still held."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
        del result
    finally:
        tracemalloc.stop()
    return (peak - base) / 2**20


def export_all(graphs, labels, edges, scores, out):
    """The interpret command's exports: mean graphs (CSV, PGM), flagged
    edges and ranked module scores."""
    out.mkdir(parents=True, exist_ok=True)
    interpret.export_matrix(interpret.mean_graph(graphs), out / "mean_graph_all.csv",
                            heatmap_path=out / "mean_graph_all.pgm")
    for c in sorted(set(int(x) for x in labels)):
        interpret.export_matrix(interpret.mean_graph(graphs[labels == c]),
                                out / f"mean_graph_class{c}.csv")
    lines = ["p,q,t,pvalue"]
    lines.extend(f"{e.p},{e.q},{e.t!r},{e.pvalue!r}" for e in edges.edges)
    (out / "edges_significant.csv").write_text("\n".join(lines) + "\n")
    interpret.export_scores(scores, out / "module_scores.csv")


def machine_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run(workload, seed, seconds, trace, out_dir, started):
    """Run one workload; returns the result object (correct, attempted,
    failed, metrics). `started` is the perf_counter reading taken when the
    process began, before any import."""
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = out_dir / f"work-{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    imports_s = time.perf_counter() - started
    ledger = Ledger()
    tracer = tracing.Tracer() if trace else tracing.NullTracer()
    s = Session(workload, seed, workdir, ledger, tracer)
    try:
        setup_s = [s.setup_once() for _ in range(SETUP_REPS)]
        # With tracing on, rounds alternate untraced/traced.
        untraced, traced = [], []
        t0 = time.perf_counter()
        attempts = 0
        while attempts < (2 if trace else 1) or time.perf_counter() - t0 < seconds:
            traced_round = trace and attempts % 2 == 1
            times = s.round(traced_round)
            attempts += 1
            if attempts == 1:
                # Peak of one whole session; later rounds repeat the same
                # work and would only add allocator drift.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if times is not None:
                (traced if traced_round else untraced).append(times)
        try:
            cut = ledger.stage("cut_step", s.cut_step_check)
        except StageFailed:
            cut = None
        extra, derived = {}, {}
        if trace and s.last:
            derived = s.traced_layers(tracer)
            extra["pipelines_epoch_s"] = s.pipeline_epochs()
        s.check_outputs(cut)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n_train = len(dataset.split(s.ds, s.config.split)[0].samples)
    if not trace:
        values = {
            "setup_s": imports_s + statistics.median(setup_s),
            "train_samples_per_s": statistics.median(
                [n_train * workload.epochs / r["training.train"] for r in untraced]),
            "eval_samples_per_s": statistics.median(
                [s.ds.n / r["training.evaluate"] for r in untraced]),
            "interpret_s": statistics.median(
                [sum(r[k] for k in INTERPRET_STAGES) for r in untraced]),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        values = {}
        for name in SPAN_METRICS:
            span, unit = name.rsplit("_", 1)
            values[name] = tracer.median(span, 1e-6 if unit == "ms" else 1e-9)
        values.update(derived)
        values["training.epoch_other_ms"] = statistics.median(
            [1e3 * (r["training.train"] - r["train_steps"]) / workload.epochs for r in traced])
        values["trace.overhead_ratio"] = (
            statistics.median([sum(r[k] for k in ROUND_STAGES) for r in traced])
            / statistics.median([sum(r[k] for k in ROUND_STAGES) for r in untraced]))
        units = {name: name.rsplit("_", 1)[1] for name in SPAN_METRICS}
        units.update(DERIVED)
        extra.update(workload=workload.name, seed=seed, machine=machine_info(),
                     rounds={"untraced": untraced, "traced": traced},
                     metrics=values, errors=ledger.errors, wrong=ledger.wrong)
        tracer.write(out_dir / f"trace-{workload.name}-seed{seed}.json", extra)
    return {
        "correct": not ledger.wrong,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }, ledger
