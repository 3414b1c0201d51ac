"""AdamW, early stopping, the epoch loop, and per-region orchestration.

Training is deterministic end to end: batch order comes from seeded
permutations, per-epoch seeds are derived with a stable hash, and the
optimizer touches parameters in their fixed iteration order.  Rerunning
with the same (seed, data, config) reproduces checkpoints bitwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import zlib

import numpy as np

from . import data as D
from . import tensor as T
from .data import _atomic_write
from .errors import ConfigError, PoisonedGradientError, ShapeError, StateError
from .model import LOSSES, _padded, build_model, save_checkpoint
from .schema import Section


@dataclasses.dataclass(frozen=True)
class TrainConfig(Section):
    batch_size: int = 32
    max_epochs: int = 10
    patience: int = 3
    min_delta: float = 0.0
    seed: int = 0
    shuffle: bool = True
    loss: str = "bce_logits"
    lr: float = 1e-3
    weight_decay: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    threshold: float = 0.2        # rain rate (mm/h) binarizing bce targets

    section = "train"

    def __post_init__(self):
        super().__post_init__()
        if self.max_epochs < 1 or self.batch_size < 1 or self.patience < 1:
            raise ConfigError("max_epochs, batch_size, and patience must be >= 1")
        if self.min_delta < 0 or self.lr < 0:
            raise ConfigError("min_delta and lr must be >= 0")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        # A beta of 1 zeroes Adam's bias correction and an eps of 0 divides
        # a zero gradient's 0 by 0: either makes the first step NaN.
        rules = {"beta1": (0 <= self.beta1 < 1, "lie in [0, 1)"),
                 "beta2": (0 <= self.beta2 < 1, "lie in [0, 1)"),
                 "eps": (self.eps > 0, "be > 0"),
                 "weight_decay": (self.weight_decay >= 0, "be >= 0"),
                 "threshold": (self.threshold >= 0, "be >= 0")}
        for field, (ok, rule) in rules.items():
            if not ok:
                raise ConfigError(f"train.{field} must {rule}, got {getattr(self, field)}")

class AdamW:
    """Adam with decoupled weight decay.

    Each step first shrinks every parameter by lr*weight_decay, then applies
    the bias-corrected Adam update; with zero gradients and fresh moments the
    step is therefore exactly multiplicative decay.  A step is refused whole
    if any gradient contains NaN or Inf.
    """

    def __init__(self, model, config):
        self.cfg = config
        self.step_count = 0
        self.m = {name: np.zeros_like(p) for name, p in model.named_params()}
        self.v = {name: np.zeros_like(p) for name, p in model.named_params()}

    def step(self, model, grads):
        params = dict(model.named_params())
        if set(grads) != set(self.m):
            raise StateError("gradient names do not match the optimizer state")
        for name, g in grads.items():
            if g is None or g.shape != params[name].shape:
                raise StateError(f"gradient for {name} is missing or misshapen")
            if not np.all(np.isfinite(g)):
                raise PoisonedGradientError(f"non-finite gradient in {name}; step refused")
        c = self.cfg
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - c.beta1 ** t
        bc2 = 1.0 - c.beta2 ** t
        for name, p in params.items():
            g = grads[name]
            dt = p.dtype.type
            if c.weight_decay:
                p *= (1 - dt(c.lr) * dt(c.weight_decay))
            m = self.m[name]
            v = self.v[name]
            m *= dt(c.beta1)
            m += dt(1 - c.beta1) * g
            v *= dt(c.beta2)
            v += dt(1 - c.beta2) * np.square(g)
            p -= dt(c.lr) * (m / dt(bc1)) / (np.sqrt(v / dt(bc2)) + dt(c.eps))


class EarlyStopper:
    """Stop after `patience` consecutive epochs without improving the best
    validation loss by more than min_delta; tracks the argmin epoch."""

    def __init__(self, patience, min_delta=0.0):
        self.patience = patience
        self.min_delta = min_delta
        self.best = np.inf
        self.best_epoch = None
        self.stale = 0

    def update(self, epoch, val_loss):
        """Record one epoch; returns True when training should stop."""
        if val_loss < self.best - self.min_delta:
            self.best = val_loss
            self.best_epoch = epoch
            self.stale = 0
        else:
            self.stale += 1
        return self.stale >= self.patience


def _epoch_seed(seed, epoch):
    return int(seed) ^ zlib.crc32(f"epoch:{epoch}".encode("utf-8"))


def batch_loss(model, x, y, config, train):
    """Forward one batch and score it on the fine target grid.

    The model emits crop-resolution logits; they are bilinearly upsampled to
    the target resolution before the loss, the same resolution change the
    evaluator applies.  The forward runs on the whole batch; the loss is
    scored one sample at a time, each sample's share of the batch mean, so
    only one sample's upsampled logits, target and loss scratch exist at
    once.  Returns (loss, gradient wrt the model logits) with the gradient
    None in eval mode.
    """
    logits = model.forward(x, train=train)
    n, c, h, w = logits.shape
    if y.shape[:2] != (n, c):
        raise ShapeError(f"targets {y.shape} do not match logits {logits.shape}")
    count = n * c * y.shape[2] * y.shape[3]
    value = 0.0
    g_logits = np.empty_like(logits) if train else None
    for i in range(n):
        up = T.bilinear_resize(logits[i:i + 1], y.shape[2], y.shape[3])
        if config.loss == "bce_logits":
            target = (y[i:i + 1] >= config.threshold).astype(up.dtype)
            part, g_up = T.bce_with_logits(up, target, grad=train, count=count)
        else:
            part, g_up = T.mse(up, y[i:i + 1].astype(up.dtype, copy=False), count=count)
        value += part
        if train:
            g_logits[i] = T.bilinear_resize_backward(g_up, h, w)[0]
    return value, g_logits


def train_epoch(model, batches, config, opt):
    """One optimization pass over an iterable of (x, y, ...) batches.

    Returns the mean train loss weighted by batch element count.
    """
    total = 0.0
    weight = 0
    for batch in batches:
        x, y = batch[0], batch[1]
        value, g_logits = batch_loss(model, x, y, config, train=True)
        grads = model.backward(g_logits)
        opt.step(model, grads)
        total += value * x.shape[0]
        weight += x.shape[0]
    if weight == 0:
        raise ConfigError("empty training split")
    return total / weight


def eval_loss(model, batches, config):
    """Mean loss over batches without touching parameters or state."""
    total = 0.0
    weight = 0
    for batch in batches:
        x, y = batch[0], batch[1]
        value, _ = batch_loss(model, x, y, config, train=False)
        total += value * x.shape[0]
        weight += x.shape[0]
    if weight == 0:
        raise ConfigError("empty validation split")
    return total / weight


def fit(model, train_batches, val_batches, config, history_path=None):
    """Train with early stopping; returns (model at best epoch, history).

    train_batches(epoch_seed) and val_batches() build fresh batch iterators;
    the train iterator reshuffles per epoch from a derived seed.  History is
    one record per epoch; when history_path is given the records are also
    written there as JSON lines.  A PoisonedGradientError mid-run is
    re-raised after the records of the completed epochs are written.
    """
    opt = AdamW(model, config)
    stopper = EarlyStopper(config.patience, config.min_delta)
    history = []
    best_snapshot = None
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.monotonic()
        try:
            train_loss = train_epoch(model, train_batches(_epoch_seed(config.seed, epoch)),
                                     config, opt)
        except PoisonedGradientError:
            _write_history(history_path, history)
            raise
        val_loss = eval_loss(model, val_batches(), config)
        history.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss,
                        "seconds": round(time.monotonic() - t0, 3), "lr": config.lr})
        stop = stopper.update(epoch, val_loss)
        if stopper.best_epoch == epoch:
            best_snapshot = {name: arr.copy() for name, arr in
                             list(model.named_params()) + list(model.named_states())}
        if stop:
            break
    if best_snapshot is None:
        raise StateError("validation loss never improved on +inf; refusing to pick a model")
    # Fetched only now: train-mode batch norm rebinds its running statistics.
    current = dict(list(model.named_params()) + list(model.named_states()))
    for name, arr in best_snapshot.items():
        current[name][...] = arr
    _write_history(history_path, history)
    return model, history


def _write_history(path, history):
    """Write the epoch records as JSON lines, making the directory, when a path is given."""
    if path is not None:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        lines = "".join(json.dumps(rec) + "\n" for rec in history)
        _atomic_write(path, lines.encode("utf-8"))


def _regional_loaders(manifest, samples, config, bands):
    """Build train/val loader factories for one job's sample pool.

    When the pool has no explicit val split, 10% (at least one sample) is
    carved off with a seeded permutation and held fixed for the whole run.
    A train batch of one sample is refused where the bottleneck is 1x1.
    """
    train = [s for s in samples if s.split == "train"]
    val = [s for s in samples if s.split == "val"]
    if not val and train:
        order = np.random.default_rng(config.seed).permutation(len(train))
        n_val = max(1, len(train) // 10)
        val = [train[i] for i in order[:n_val]]
        train = [train[i] for i in order[n_val:]]
    if manifest.filter_threshold > 0:
        train = D.filter_non_rainy(manifest, train, manifest.filter_threshold)
        kept = D.filter_non_rainy(manifest, val, manifest.filter_threshold)
        # A small pool can lose every val sample to the filter; monitoring on
        # unfiltered val samples then beats not training at all.
        val = kept or val
    if not train or not val:
        raise ConfigError("empty train or val split after filtering")
    # A 16-pixel crop pools to a 1x1 bottleneck, whose batch norm needs two samples.
    if _padded(manifest.crop) == 16 and 1 in (config.batch_size, len(train) % config.batch_size):
        raise ConfigError(f"train.batch_size {config.batch_size} leaves a batch of one of the "
                          f"{len(train)} train samples, which the 1x1 bottleneck of a "
                          f"{manifest.crop}-pixel crop cannot batch-normalize")

    def train_batches(epoch_seed):
        return D.batch_iter(manifest, train, config.batch_size, epoch_seed,
                            config.shuffle, bands)

    def val_batches():
        return D.batch_iter(manifest, val, config.batch_size, 0, False, bands)

    return train_batches, val_batches


def train_single(manifest, model_config, config, out_dir, drop=(), job=None):
    """Fit one model on a sample pool and write checkpoint plus history.

    `job` restricts the pool to one (region, year); None trains on all
    samples.  Returns the checkpoint path, which records the bands left
    after drop and the loss.
    """
    if job is None:
        samples = manifest.samples
        seed = config.seed
        stem = "model"
    else:
        region, year = job
        samples = [s for s in manifest.samples if s.region == region and s.year == year]
        if not samples:
            raise ConfigError(f"manifest has no samples for region {region!r} year {year}")
        seed = D.derive_seed(config.seed, region, year)
        stem = f"model-{region}-{year}"
    job_config = dataclasses.replace(config, seed=seed)
    bands = D.kept_bands(manifest.band_names, drop)
    train_batches, val_batches = _regional_loaders(manifest, samples, job_config, bands)
    model = build_model(model_config, seed)
    path = os.path.join(out_dir, f"{stem}.smck")
    model, _ = fit(model, train_batches, val_batches, job_config,
                   history_path=os.path.join(out_dir, f"{stem}.history.jsonl"))
    model.bands, model.loss = bands, config.loss
    save_checkpoint(model, path)
    return path


def train_regional(manifest, jobs, model_config, config, out_dir, drop=()):
    """Independent fit per (region, year); failures do not stop other jobs.

    Returns (checkpoint paths keyed by job, error strings keyed by job).
    """
    results = {}
    failures = {}
    for job in jobs:
        try:
            results[job] = train_single(manifest, model_config, config, out_dir,
                                        drop, job=job)
        except Exception as exc:  # noqa: BLE001 - per-job error report
            failures[job] = f"{type(exc).__name__}: {exc}"
    return results, failures
