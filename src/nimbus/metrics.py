"""Forecast verification: confusion counts, CSI, evaluation, baselines,
and region ensembling.

The evaluation pipeline mirrors deployment: model logits at crop resolution
become probabilities, are bilinearly upsampled to the target grid, and both
prediction and target are binarized before counting.  Pooled scores always
come from pooled counts, never from averaging per-group scores.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from . import data as D
from . import tensor as T
from .errors import ConfigError, DataError, ShapeError
from .schema import Section

PREDICTION_SUFFIX = ".pred.w4cl"


@dataclasses.dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __add__(self, other):
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp,
                               self.fn + other.fn, self.tn + other.tn)

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn

    def to_dict(self):
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn}


@dataclasses.dataclass(frozen=True)
class EvalConfig(Section):
    threshold: float = 0.2        # rain rate (mm/h) defining an event
    prob_threshold: float = 0.5   # probability cut for bce-trained models
    batch_size: int = 8

    section = "eval"

    def __post_init__(self):
        super().__post_init__()
        if self.threshold < 0:
            raise ConfigError(f"threshold must be >= 0, got {self.threshold}")
        if not 0 < self.prob_threshold < 1:
            raise ConfigError("prob_threshold must lie in (0, 1)")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


def binarize(rates, threshold):
    """Boolean event mask: 1 where rate >= threshold (inclusive boundary)."""
    if threshold < 0:
        raise ConfigError(f"threshold must be >= 0, got {threshold}")
    return np.asarray(rates) >= threshold


def csi(counts):
    """Critical Success Index tp/(tp+fp+fn); 0 when nothing was predicted
    or observed, so an all-quiet comparison scores 0 rather than dividing
    by zero."""
    denom = counts.tp + counts.fp + counts.fn
    if denom == 0:
        return 0.0
    return counts.tp / denom


def count_events(pred_event, true_event):
    """Tally one prediction/truth pair of boolean masks of identical dims."""
    pred_event = np.asarray(pred_event)
    true_event = np.asarray(true_event)
    if pred_event.shape != true_event.shape:
        raise ShapeError(f"prediction {pred_event.shape} vs truth {true_event.shape}")
    tp = int(np.sum(pred_event & true_event))
    fp = int(np.sum(pred_event & ~true_event))
    fn = int(np.sum(~pred_event & true_event))
    return ConfusionCounts(tp, fp, fn, pred_event.size - tp - fp - fn)


@dataclasses.dataclass
class EvalReport:
    split: str
    counts_by_job: dict           # (region, year) -> ConfusionCounts
    counts_by_lead: list          # one ConfusionCounts per lead time
    pooled: ConfusionCounts
    config: EvalConfig
    n_samples: int

    @property
    def pooled_csi(self):
        return csi(self.pooled)

    def csi_by_job(self):
        return {job: csi(c) for job, c in sorted(self.counts_by_job.items())}

    def csi_by_lead(self):
        return [csi(c) for c in self.counts_by_lead]

    def to_json_dict(self):
        return {
            "split": self.split,
            "n_samples": self.n_samples,
            "pooled_csi": self.pooled_csi,
            "pooled_counts": self.pooled.to_dict(),
            "csi_by_job": {f"{r}:{y}": v for (r, y), v in self.csi_by_job().items()},
            "counts_by_job": {f"{r}:{y}": c.to_dict()
                              for (r, y), c in sorted(self.counts_by_job.items())},
            "csi_by_lead": self.csi_by_lead(),
            "config": {k: v for k, v in self.config.to_dict().items() if k != "batch_size"},
        }

    def to_tsv(self):
        """One diff-friendly line per (region, year): counts then CSI."""
        lines = []
        for (region, year), c in sorted(self.counts_by_job.items()):
            lines.append(f"{region}\t{year}\t{c.tp}\t{c.fp}\t{c.fn}\t{c.tn}"
                         f"\t{csi(c):.6f}")
        lines.append(f"pooled\t-\t{self.pooled.tp}\t{self.pooled.fp}"
                     f"\t{self.pooled.fn}\t{self.pooled.tn}\t{self.pooled_csi:.6f}")
        return "\n".join(lines) + "\n"


def sample_stem(record):
    """File-name stem identifying one sample, shared by prediction files."""
    base = os.path.basename(record.input_path)
    for suffix in (".input.w4cl", ".w4cl"):
        if base.endswith(suffix):
            return base[:-len(suffix)]
    return base


def prediction_path(pred_dir, record):
    return os.path.join(pred_dir, sample_stem(record) + PREDICTION_SUFFIX)


def prediction_kind(loss):
    """What a model trained with loss forecasts: rates for mse, else probabilities."""
    return "rate" if loss == "mse" else "probability"


def _reads(models):
    """The (bands, loss, config) all members of an ensemble must share: the input
    bands they read, in order (None: the manifest's), training loss and model config."""
    facts = {(getattr(m, "bands", None), getattr(m, "loss", None), getattr(m, "config", None))
             for m in models}
    if len(facts) != 1:
        raise ConfigError(f"ensemble members must agree on (bands, loss, config), "
                          f"got {sorted(facts, key=str)}")
    return facts.pop()


def model_probabilities(model, x):
    """Eval-mode forward at crop resolution: event probabilities, or the raw
    rates of an mse-trained model (see prediction_kind)."""
    out = model.forward(x, train=False)
    return out if prediction_kind(getattr(model, "loss", None)) == "rate" else T.sigmoid(out)


def predict_to_files(model, manifest, split, out_dir, config=EvalConfig()):
    """Write one prediction tensor file per sample; returns the paths.

    Files hold probabilities (or rates, for mse-trained models) at crop
    resolution with dims (1, t_out, crop, crop), named <stem>.pred.w4cl.
    This is the one-member ensemble, whose mean is the member's own bytes.
    """
    return ensemble_to_files([model], manifest, split, out_dir, config)


def _event_mask(pred, config, kind):
    """Upsample crop-resolution predictions of a kind 2x and binarize them."""
    up = T.bilinear_resize(pred, 2 * pred.shape[2], 2 * pred.shape[3])
    return up >= (config.prob_threshold if kind == "probability" else config.threshold)


def _events(mask):
    """Event count per (sample, lead) of a (batch, lead, H, W) mask, one
    axis-free count (NumPy's byte count) per contiguous plane."""
    planes = np.ascontiguousarray(mask).reshape(mask.shape[0], mask.shape[1], -1)
    return np.array([[np.count_nonzero(p) for p in row] for row in planes], np.intp)


class _Tally:
    """Per-scene, per-lead event counts, folded into confusion counts per
    (region, year) and per lead time once, by report."""

    def __init__(self, manifest):
        self.frame_pixels = (2 * manifest.crop) ** 2
        self.scenes = []

    def add(self, record, tp, n_pred, n_true):
        """One scene's per-lead counts."""
        self.scenes.append((record, tp, n_pred, n_true))

    def report(self, split, config):
        tp, n_pred, n_true = np.moveaxis(np.array([c for _, *c in self.scenes], np.int64), 1, 0)
        fn = n_true - tp
        counts = np.stack([tp, n_pred - tp, fn, self.frame_pixels - n_pred - fn], axis=-1)
        by_lead = [ConfusionCounts(*row) for row in counts.sum(axis=0).tolist()]
        by_job = {}
        for (record, *_), row in zip(self.scenes, counts.sum(axis=1).tolist()):
            job = (record.region, record.year)
            by_job[job] = by_job.get(job, ConfusionCounts()) + ConfusionCounts(*row)
        return EvalReport(split=split if isinstance(split, str) else "custom",
                          counts_by_job=by_job, counts_by_lead=by_lead,
                          pooled=sum(by_lead, ConfusionCounts()), config=config,
                          n_samples=len(self.scenes))


def _split_records(manifest, split):
    """The records of a split name or list; an empty split is a DataError."""
    records = manifest.split_samples(split) if isinstance(split, str) else list(split)
    if not records:
        raise DataError(f"split {split!r} has no samples")
    return records


def _load_prediction(pred_dir, record, manifest, kind):
    """One scene's prediction file; probabilities must lie in [0, 1]."""
    path = prediction_path(pred_dir, record)
    if not os.path.exists(path):
        raise DataError(f"missing prediction file {path}")
    p = D.read_tensor_file(path)
    want = (1, manifest.t_out, manifest.crop, manifest.crop)
    if p.shape != want:
        raise DataError(f"{path}: dims {p.shape} != {want}")
    if kind == "probability" and not (0 <= p.min() and p.max() <= 1):
        index = int(np.flatnonzero((p < 0) | (p > 1))[0])
        raise DataError(f"{path}: value {p.flat[index]:g} at byte {8 + 4 * p.ndim + 4 * index} "
                        f"is not a probability in [0, 1]")
    return p


def _truths(manifest, records, config):
    """(record, target event mask, its per-lead counts) one scene at a
    time: the one target walk of evaluate and the baselines."""
    for record in records:
        true_event = binarize(D.load_sample_target(manifest, record), config.threshold)
        yield record, true_event, _events(true_event)[0]


def _forecasts(models, manifest, records, config):
    """(record, (1, t_out, crop, crop) forecast) one scene at a time: the
    one path from models to forecasts.  Inputs of the bands they read run
    through ensemble_predict eval.batch_size scenes at a time; no target."""
    bands = _reads(models)[0]
    for start in range(0, len(records), config.batch_size):
        chunk = records[start:start + config.batch_size]
        x = np.concatenate([D.load_sample_input(manifest, r, bands) for r in chunk])
        probs = ensemble_predict(models, x)
        for i, record in enumerate(chunk):
            yield record, probs[i:i + 1]


def evaluate(source, manifest, split, config=EvalConfig(), kind="probability"):
    """Score a model or a directory of prediction files against a split.

    source is a model (anything with .forward), whose loss sets its kind of
    forecast, or a directory of <stem>.pred.w4cl files of the given kind,
    "probability" or "rate", from predict_to_files; scoring files reads only
    them and the targets.  Each scene is scored on its own.  Counts add up
    per (region, year) and per lead time; the pooled CSI is of pooled counts.
    """
    records = _split_records(manifest, split)
    if isinstance(source, (str, os.PathLike)):
        if kind not in ("probability", "rate"):
            raise ConfigError(f"unknown prediction kind {kind!r}")
        preds = (_load_prediction(source, r, manifest, kind) for r in records)
    else:
        kind = prediction_kind(_reads([source])[1])
        preds = (forecast for _, forecast in _forecasts([source], manifest, records, config))
    tally = _Tally(manifest)
    for (record, true_event, n_true), pred in zip(_truths(manifest, records, config), preds):
        pred_event = _event_mask(pred, config, kind)
        if pred_event.shape != true_event.shape:
            raise ShapeError(f"prediction {pred_event.shape} vs target {true_event.shape}")
        tally.add(record, _events(pred_event & true_event)[0], _events(pred_event)[0], n_true)
    return tally.report(split, config)


def trivial_baselines(manifest, split, config=EvalConfig()):
    """CSI of the no-skill references: all-zeros, all-ones, persistence.

    One pass reads each target once, and each latent rain field once.
    Because 0 < prob_threshold < 1, all-zeros never predicts an event and
    scores 0; all-ones always does and scores the share of event pixels.
    Persistence repeats the last observed rain field across every lead; when
    any sample carries no such field the entry is None rather than an error.
    """
    records = _split_records(manifest, split)
    persist = _Tally(manifest) if all(r.latent_path is not None for r in records) else None
    observed = 0
    for record, true_event, n_true in _truths(manifest, records, config):
        observed += int(n_true.sum())
        if persist is not None:
            latent_event = binarize(D.load_sample_latent(manifest, record), config.threshold)
            persist.add(record, _events(latent_event & true_event)[0],
                        _events(latent_event)[0].repeat(manifest.t_out), n_true)
    return {"all_zeros": 0.0,
            "all_ones": observed / (len(records) * manifest.t_out * (2 * manifest.crop) ** 2),
            "persistence": None if persist is None else persist.report(split, config).pooled_csi}


def ensemble_predict(models, x):
    """Mean of per-model predictions (see model_probabilities) for one
    input batch, from members that record the same bands, loss and config."""
    _reads(models)
    preds = [model_probabilities(model, x) for model in models]
    if len({p.shape for p in preds}) > 1:
        raise ShapeError(f"ensemble member outputs differ in dims: {[p.shape for p in preds]}")
    return (sum(preds[1:], preds[0].astype(np.float64)) / len(preds)).astype(preds[0].dtype)


def ensemble_to_files(models, manifest, split, out_dir, config=EvalConfig()):
    """Write averaged prediction files for a model ensemble; returns the
    paths.  Only the input files are read, never a target, and out_dir is
    made only once the first forecast exists."""
    paths = []
    for record, forecast in _forecasts(models, manifest, _split_records(manifest, split), config):
        if not paths:
            os.makedirs(out_dir, exist_ok=True)
        paths.append(prediction_path(out_dir, record))
        D.write_tensor_file(paths[-1], forecast)
    return paths
