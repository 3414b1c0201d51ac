"""The three desk workloads: set-up, one timed operation, output checks.

Each workload is a closed loop with one client.  Inputs come from
data.synth_generate with the workload seed, and every workload runs the
pinned desk model.  step() runs one timed operation and checks its output;
a failed check counts the operation as failed instead of raising, so a run
always reports how many operations it attempted and lost.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import time

import numpy as np

from nimbus import data as D
from nimbus import layers as L
from nimbus import metrics as E
from nimbus import model as M
from nimbus import optim as O
from nimbus import tensor as T

DESK_MODEL = M.ModelConfig(in_channels=36, out_channels=16, stage_widths=(16, 32, 64, 128, 256),
                           depth_multiplier=2, cbam_reduction=8)


@dataclasses.dataclass(frozen=True)
class Desk:
    """Geometry and dataset sizes of the pinned desk configuration.  Tests
    substitute a smaller one; the benchmark always runs this default."""
    grid: int = 64
    model: M.ModelConfig = DESK_MODEL
    batch_size: int = 32
    n_train: int = 32           # one optimizer step per epoch
    n_val: int = 16
    n_forecast: int = 16        # test scenes forecast-desk cycles through
    n_verify: int = 64          # test scenes one verification pass scores
    n_calibrate: int = 16       # train scenes that set the batch-norm statistics

    def synth(self, seed, n_train=None, n_val=1, n_test=1):
        n_train = self.n_calibrate if n_train is None else n_train
        return D.SynthConfig(n_train=n_train, n_val=n_val, n_test=n_test,
                             grid=self.grid, seed=seed)


def _blocks(block):
    yield block
    for child in block._children.values():
        yield from _blocks(child)


def calibrate_batch_norm(model, manifest, n):
    """Set every batch-norm running statistic to the batch statistics of one
    train-mode forward over the first n train scenes, as a trained
    checkpoint would carry.  A freshly built model keeps identity statistics,
    so its eval-mode activations grow stage by stage (logits near +-300) and
    float32 rounding differences between batch sizes, about 1e-6 relative,
    reach 2.5e-5 in probability, past the forecast check."""
    norms = [b for b in _blocks(model) if isinstance(b, L.BatchNorm)]
    x, _, _ = next(D.batch_iter(manifest, "train", n, 0, False))
    momentum = [b.momentum for b in norms]
    for b in norms:
        b.momentum = 1.0
    model.forward(x, train=True)
    for b, m in zip(norms, momentum):
        b.momentum = m


def _recording(tracer, op=None, models=()):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.recording("op", op, models)


class Workload:
    """Shared set-up: synthesize, build, calibrate, checkpoint, reload.

    Subclasses set `name`, `min_ops` (the fewest operations a run holds),
    `trace_min_ops` (the same for each half of a traced run), `synth_sizes()`
    and `step()`, and may extend `setup()` and `prepare()`.
    """

    name = ""
    min_ops = 1
    trace_min_ops = 1

    def __init__(self, seed, desk=Desk()):
        self.seed = seed
        self.desk = desk
        self.durations = []     # seconds per operation
        self.attempted = 0
        self.failed = 0
        self.problems = []      # first few failure messages
        self.ops_run = 0

    def synth_sizes(self):
        raise NotImplementedError

    def geometry(self):
        cfg = self.desk.synth(self.seed, **self.synth_sizes())
        return {"grid": cfg.grid, "h_raw": 2 * cfg.grid, "target": 2 * cfg.grid,
                "t_in": cfg.t_in, "t_out": cfg.t_out, "bands": len(cfg.bands),
                "n_train": cfg.n_train, "n_val": cfg.n_val, "n_test": cfg.n_test,
                "batch_size": self.desk.batch_size, "model": self.desk.model.to_dict()}

    def setup(self, workdir):
        cfg = self.desk.synth(self.seed, **self.synth_sizes())
        self.workdir = workdir
        self.manifest = D.load_manifest(D.synth_generate(cfg, os.path.join(workdir, "data")))
        self.checkpoint = os.path.join(workdir, "model.smck")
        model = M.build_model(self.desk.model, self.seed)
        calibrate_batch_norm(model, self.manifest, self.desk.n_calibrate)
        M.save_checkpoint(model, self.checkpoint)
        self.model = M.load_checkpoint(self.checkpoint)
        self.params = self.model.count_params()

    def prepare(self):
        """Untimed work after the last set-up: reference outputs for checks."""

    def fail(self, n_ops, message):
        self.failed += n_ops
        if len(self.problems) < 5:
            self.problems.append(message)

    def extras(self):
        """Workload-specific result values beyond the shared metrics."""
        return {}


class TrainDesk(Workload):
    """optim.fit at batch 32 with AdamW for a fixed two-epoch budget.

    Each operation is one optimizer step, timed between batch hand-overs of
    the benchmark's own batch factory; one fit also runs a validation pass
    per epoch, which samples_per_s includes.  Every fit restarts from the
    set-up checkpoint, so all fits in a run must have identical histories.
    """

    name = "train-desk"
    min_ops = 6             # three fits: a step is long and the machine's pace drifts
    trace_min_ops = 2
    epochs = 2

    def synth_sizes(self):
        return {"n_train": self.desk.n_train, "n_val": self.desk.n_val}

    def prepare(self):
        self.config = O.TrainConfig(batch_size=self.desk.batch_size, max_epochs=self.epochs,
                                    patience=self.epochs, seed=self.seed)
        self.history = None
        self.tracer = None
        self.samples = 0

    def _train_batches(self, epoch_seed):
        for batch in D.batch_iter(self.manifest, "train", self.desk.batch_size, epoch_seed, True):
            if self.tracer is not None:
                self.tracer.op = self.ops_run
            self.ops_run += 1
            self.samples += batch[0].shape[0]
            start = time.perf_counter()
            yield batch
            self.durations.append(time.perf_counter() - start)

    def _val_batches(self):
        return D.batch_iter(self.manifest, "val", self.desk.batch_size, 0, False)

    def step(self, tracer):
        model = M.load_checkpoint(self.checkpoint)
        self.tracer = tracer
        before, samples = len(self.durations), self.samples
        with _recording(tracer, self.ops_run, (model,)):
            start = time.perf_counter()
            _, history = O.fit(model, self._train_batches, self._val_batches, self.config)
            wall = time.perf_counter() - start
        n_steps = len(self.durations) - before
        self.attempted += n_steps
        history = [{k: v for k, v in rec.items() if k != "seconds"} for rec in history]
        losses = [rec[k] for rec in history for k in ("train_loss", "val_loss")]
        if not all(math.isfinite(v) for v in losses):
            self.fail(n_steps, f"non-finite loss in history {history}")
        elif self.history is None:
            self.history = history
        elif history != self.history:
            self.fail(n_steps, f"history {history} differs from first fit {self.history}")
        return self.samples - samples, wall

    def extras(self):
        if self.history is None:
            return {}
        return {"val_loss": {"value": min(r["val_loss"] for r in self.history), "unit": "bce"}}


class ForecastDesk(Workload):
    """One scene at a time through metrics.predict_to_files at batch 1.

    Each forecast file must be a (1, t_out, crop, crop) array of finite
    probabilities that matches a batch-8 prediction of the same scene.
    """

    name = "forecast-desk"
    min_ops = 100
    trace_min_ops = 50
    tolerance = 1e-5

    def synth_sizes(self):
        return {"n_test": self.desk.n_forecast}

    def prepare(self):
        self.records = self.manifest.split_samples("test")
        ref_dir = os.path.join(self.workdir, "reference")
        paths = E.predict_to_files(self.model, self.manifest, "test", ref_dir,
                                   E.EvalConfig(batch_size=8))
        self.reference = {os.path.basename(p): D.read_tensor_file(p) for p in paths}
        self.out_dir = os.path.join(self.workdir, "forecast")
        self.config = E.EvalConfig(batch_size=1)

    def step(self, tracer):
        record = self.records[self.ops_run % len(self.records)]
        with _recording(tracer, self.ops_run, (self.model,)):
            start = time.perf_counter()
            paths = E.predict_to_files(self.model, self.manifest, [record], self.out_dir,
                                       self.config)
            wall = time.perf_counter() - start
        self.ops_run += 1
        self.attempted += 1
        self.durations.append(wall)
        problem = self._check(paths)
        if problem:
            self.fail(1, problem)
        return 1, wall

    def _check(self, paths):
        if len(paths) != 1:
            return f"expected one prediction file, got {paths}"
        pred = D.read_tensor_file(paths[0])
        want = (1, self.manifest.t_out, self.manifest.crop, self.manifest.crop)
        if pred.shape != want:
            return f"{paths[0]}: dims {pred.shape} != {want}"
        if not (np.all(np.isfinite(pred)) and pred.min() >= 0 and pred.max() <= 1):
            return f"{paths[0]}: values outside [0, 1] or not finite"
        diff = float(np.max(np.abs(pred - self.reference[os.path.basename(paths[0])])))
        if diff > self.tolerance:
            return f"{paths[0]}: differs from the batch-8 prediction by {diff}"
        return None


class VerifyDesk(Workload):
    """Repeated metrics.evaluate over prediction files plus the trivial
    baselines, the `nimbus evaluate --predictions` path.  No convolution
    runs.  Every pass must reproduce the benchmark's own vectorized recount.
    """

    name = "verify-desk"
    min_ops = 4
    trace_min_ops = 2

    def synth_sizes(self):
        return {"n_test": self.desk.n_verify}

    def setup(self, workdir):
        super().setup(workdir)
        self.pred_dir = os.path.join(workdir, "predictions")
        E.predict_to_files(self.model, self.manifest, "test", self.pred_dir)

    def prepare(self):
        """Recount the confusion tables with whole-scene NumPy sums, one
        scene at a time so the recount never sets the process's peak memory."""
        cfg = E.EvalConfig()
        records = self.manifest.split_samples("test")
        self.expected = E.ConfusionCounts()
        persistence = E.ConfusionCounts()
        for r in records:
            pred = D.read_tensor_file(E.prediction_path(self.pred_dir, r))
            truth = D.load_sample_target(self.manifest, r) >= cfg.threshold
            event = T.bilinear_resize(pred, truth.shape[2], truth.shape[3]) >= cfg.prob_threshold
            latent = D.read_tensor_file(self.manifest.resolve(r.latent_path)) >= cfg.threshold
            self.expected += _confusion(event, truth)
            persistence += _confusion(np.broadcast_to(latent, truth.shape), truth)
        n_true = self.expected.tp + self.expected.fn
        self.expected_baselines = {
            "all_zeros": 0.0,
            "all_ones": n_true / self.expected.total,
            "persistence": E.csi(persistence),
        }
        self.n_pixels = len(records) * self.manifest.t_out * (2 * self.manifest.crop) ** 2
        self.n_samples = len(records)
        self.report = None

    def step(self, tracer):
        with _recording(tracer, self.ops_run):
            start = time.perf_counter()
            report = E.evaluate(self.pred_dir, self.manifest, "test")
            baselines = E.trivial_baselines(self.manifest, "test")
            wall = time.perf_counter() - start
        self.ops_run += 1
        self.attempted += 1
        self.durations.append(wall)
        problem = self._check(report, baselines)
        if problem:
            self.fail(1, problem)
        return self.n_samples, wall

    def _check(self, report, baselines):
        if report.pooled != self.expected:
            return f"pooled counts {report.pooled} != recount {self.expected}"
        if report.pooled.total != self.n_pixels:
            return f"pooled total {report.pooled.total} != {self.n_pixels} pixels"
        if report.n_samples != self.n_samples:
            return f"report scored {report.n_samples} samples, split has {self.n_samples}"
        if baselines != self.expected_baselines:
            return f"baselines {baselines} != recount {self.expected_baselines}"
        self.report = report
        return None

    def extras(self):
        if self.report is None:
            return {}
        return {"pooled_csi": {"value": self.report.pooled_csi, "unit": "csi"}}


def _confusion(pred, truth):
    tp = int(np.sum(pred & truth))
    fp = int(np.sum(pred & ~truth))
    fn = int(np.sum(~pred & truth))
    return E.ConfusionCounts(tp, fp, fn, truth.size - tp - fp - fn)


WORKLOADS = {cls.name: cls for cls in (TrainDesk, ForecastDesk, VerifyDesk)}
