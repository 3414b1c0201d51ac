"""Command-line entry point.

Subcommands: synth, train, predict, evaluate, ensemble, params, dump-image.
Logs go to stderr (level from NIMBUS_LOG: error, info, or debug); data goes
to files only.  Exit codes: 0 success, 1 validation/usage error, 2 runtime
or data error, 3 partial failure of regional training jobs.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import logging
import os
import sys
import time

import numpy as np

from . import data as D
from . import metrics as M
from . import optim as O
from .config import RunConfig
from .data import _atomic_write
from .errors import (ConfigError, DataError, NimbusError, PoisonedGradientError, ShapeError,
                     SizeError, ValidationError)
from .model import architecture_size, baseline_reference_param_count, load_checkpoint

log = logging.getLogger("nimbus")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_PARTIAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems on stderr and exits 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _setup_logging():
    level_name = os.environ.get("NIMBUS_LOG", "info")
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise ValidationError(
            f"NIMBUS_LOG must be one of {sorted(levels)}, got {level_name!r}")
    logging.basicConfig(stream=sys.stderr, level=levels[level_name],
                        format="%(levelname)s %(name)s: %(message)s")


def _comma_list(text):
    return tuple(part for part in text.split(",") if part)


def _comma_ints(text):
    try:
        return tuple(int(part) for part in _comma_list(text))
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from exc


def _load_run_config(args):
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(
            config, train=dataclasses.replace(config.train, seed=args.seed))
    if getattr(args, "threshold", None) is not None:
        config = dataclasses.replace(
            config,
            train=dataclasses.replace(config.train, threshold=args.threshold),
            eval=dataclasses.replace(config.eval, threshold=args.threshold))
    return config


def _manifest_from(args, config):
    path = getattr(args, "manifest", None) or config.data.manifest
    if not path:
        raise ValidationError("a manifest is required: pass --manifest or set data.manifest")
    manifest = D.load_manifest(path)
    if config.data.filter_threshold is not None:
        manifest = dataclasses.replace(manifest, filter_threshold=config.data.filter_threshold,
                                       root=manifest.root)
    return manifest


def _trained_as(config, model, drop, loss):
    """config with the model, data.drop_bands and train.loss a model was trained with."""
    return dataclasses.replace(config, model=model,
                               data=dataclasses.replace(config.data, drop_bands=drop),
                               train=dataclasses.replace(config.train, loss=loss))


def _load_models(paths, config, manifest):
    """The checkpoints' models and config as they were trained: the model
    config their headers hold, and config's data.drop_bands and train.loss
    standing in for a model saved untrained."""
    models = [load_checkpoint(p) for p in paths]
    for model in models:
        model.bands = model.bands or D.kept_bands(manifest.band_names, config.data.drop_bands)
        model.loss = model.loss or config.train.loss
    drop = tuple(b for b in manifest.band_names if b not in models[0].bands)
    return models, _trained_as(config, models[0].config, drop, models[0].loss)


def _check_ends(model, manifest, drop):
    """Refuse a model config whose ends do not match the data: in_channels
    must be t_in times the bands kept and out_channels t_out.  The error
    names the field and the value the data implies."""
    bands = len(D.kept_bands(manifest.band_names, drop))
    ends = {"in_channels": (manifest.t_in * bands, f"{manifest.t_in} frames x {bands} bands"),
            "out_channels": (manifest.t_out, "lead times")}
    for field, (want, why) in ends.items():
        if getattr(model, field) != want:
            raise ConfigError(f"model.{field} is {getattr(model, field)}, "
                              f"but the data gives {want} ({why})")


def _check_out_dir(path):
    """Refuse an --out that exists and is not a directory, before any sample
    is read; otherwise the command would do all its work and then fail to
    make the directory.  Creates nothing."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)


def _write_json(path, payload):
    _atomic_write(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n")
                  .encode("utf-8"))


def cmd_synth(args):
    n_val = args.n_val if args.n_val is not None else max(16, args.n // 4)
    n_test = args.n_test if args.n_test is not None else max(16, args.n // 4)
    cfg = D.SynthConfig(n_train=args.n, n_val=n_val, n_test=n_test,
                        grid=args.grid, bands=_comma_list(args.bands),
                        regions=_comma_list(args.regions),
                        years=_comma_ints(args.years), seed=args.seed)
    start = time.perf_counter()
    path = D.synth_generate(cfg, args.out)
    seconds = time.perf_counter() - start
    _write_json(os.path.join(args.out, "synth-config.json"), cfg.to_dict())
    n = cfg.n_train + cfg.n_val + cfg.n_test
    log.info("wrote %d samples under %s in %.2f s (%.4f s per sample; manifest %s)",
             n, args.out, seconds, seconds / n, path)
    return EXIT_OK


def _held(flag, values, held):
    """values, once each of them is held by some manifest sample; otherwise
    a ConfigError naming the others and what the manifest holds."""
    unknown = [v for v in values if v not in held]
    if unknown:
        raise ConfigError(f"{flag} names {', '.join(map(repr, unknown))}, which no sample "
                          f"holds; the manifest's {flag[2:]} are {', '.join(map(repr, held))}")
    return values


def cmd_train(args):
    _check_out_dir(args.out)
    config = _load_run_config(args)
    manifest = _manifest_from(args, config)
    _check_ends(config.model, manifest, config.data.drop_bands)
    if args.regions or args.years:
        held_regions = sorted({r for r, _ in manifest.region_years()})
        held_years = sorted({y for _, y in manifest.region_years()})
        regions = _held("--regions", _comma_list(args.regions), held_regions) \
            if args.regions else held_regions
        years = _held("--years", _comma_ints(args.years), held_years) \
            if args.years else held_years
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "run-config.json"), config.to_dict())
        jobs = [(r, y) for r in regions for y in years]
        results, failures = O.train_regional(manifest, jobs, config.model,
                                             config.train, args.out,
                                             drop=config.data.drop_bands)
        report = {
            "jobs": [{"region": r, "year": y, "checkpoint": results.get((r, y)),
                      "error": failures.get((r, y))} for r, y in jobs],
            "config": config.to_dict(),
        }
        _write_json(os.path.join(args.out, "train-report.json"), report)
        for job, err in failures.items():
            log.error("job %s failed: %s", job, err)
        if failures and results:
            return EXIT_PARTIAL
        if failures:
            return EXIT_RUNTIME
        log.info("trained %d regional models into %s", len(results), args.out)
        return EXIT_OK
    try:
        path = O.train_single(manifest, config.model, config.train, args.out,
                              drop=config.data.drop_bands)
    except PoisonedGradientError:   # fit has written the history into --out
        _write_json(os.path.join(args.out, "run-config.json"), config.to_dict())
        raise
    _write_json(os.path.join(args.out, "run-config.json"), config.to_dict())
    log.info("trained model: %s", path)
    return EXIT_OK


def _write_predictions(args, checkpoints, echo, what):
    """The body of predict and ensemble: forecast files from the mean of
    the checkpoints' predictions, then the predictions-config.json echo."""
    _check_out_dir(args.out)
    config = _load_run_config(args)
    manifest = _manifest_from(args, config)
    models, config = _load_models(checkpoints, config, manifest)
    written = M.ensemble_to_files(models, manifest, args.split, args.out, config.eval)
    _write_json(os.path.join(args.out, "predictions-config.json"),
                {**echo, "split": args.split, "config": config.to_dict()})
    log.info("wrote %d %s to %s", len(written), what, args.out)
    return EXIT_OK


def cmd_predict(args):
    return _write_predictions(args, [args.checkpoint], {"checkpoint": args.checkpoint},
                              "prediction files")


def _echoed(pred_dir, config):
    """config with the model config, data.drop_bands and train.loss that
    the predictions-config.json echo in pred_dir records, if there is one."""
    path = os.path.join(pred_dir, "predictions-config.json")
    if not os.path.exists(path):
        return config
    try:
        with open(path, encoding="utf-8") as fh:
            echo = RunConfig.from_dict(json.load(fh)["config"])
    except (OSError, ValueError, RecursionError, LookupError, TypeError, ConfigError) as exc:
        raise DataError(f"{path}: unreadable prediction echo: {exc}") from exc
    return _trained_as(config, echo.model, echo.data.drop_bands, echo.train.loss)


def cmd_evaluate(args):
    _check_out_dir(args.out)
    config = _load_run_config(args)
    manifest = _manifest_from(args, config)
    if bool(args.checkpoint) == bool(args.predictions):
        raise ValidationError("pass exactly one of --checkpoint or --predictions")
    if args.predictions:
        source, config = args.predictions, _echoed(args.predictions, config)
    else:
        (source,), config = _load_models([args.checkpoint], config, manifest)
    report = M.evaluate(source, manifest, args.split, config.eval,
                        M.prediction_kind(config.train.loss))
    payload = report.to_json_dict()
    payload["run_config"] = config.to_dict()
    if not args.no_baselines:
        payload["baselines"] = M.trivial_baselines(manifest, args.split, config.eval)
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "report.json"), payload)
    _atomic_write(os.path.join(args.out, "report.tsv"),
                  report.to_tsv().encode("utf-8"))
    log.info("pooled CSI %.6f over %d samples (reports in %s)",
             report.pooled_csi, report.n_samples, args.out)
    return EXIT_OK


def cmd_ensemble(args):
    paths = _comma_list(args.checkpoints)
    if not paths:
        raise ValidationError("--checkpoints needs at least one path")
    return _write_predictions(args, paths, {"checkpoints": list(paths), "mode": "average"},
                              "averaged prediction files")


def cmd_params(args):
    model_cfg = _load_run_config(args).model
    total, _ = architecture_size(model_cfg)
    baseline = baseline_reference_param_count(model_cfg)
    print(f"total_params {total}\nbaseline_reference {baseline}\nratio {total / baseline:.4f}")
    return EXIT_OK


def dump_image(tensor_path, channel, frame, out_path):
    """Write one (H, W) slice of a tensor file as a binary P5 graymap.

    Values are min-max scaled to 0..255; a constant slice maps to 128.  An
    empty slice has no such scale and is refused, and so would be NaN or
    Inf, which read_tensor_file refuses first."""
    x = D.read_tensor_file(tensor_path)
    if not 2 <= x.ndim <= 4:
        raise ValidationError(f"cannot render a {x.ndim}-d tensor as an image")
    index = [("frame", frame), ("channel", channel)][4 - x.ndim:]
    for axis, (name, i) in enumerate(index):
        if not 0 <= i < x.shape[axis]:
            raise ValidationError(f"{name} {i} out of range for dims {x.shape}")
    plane = x[tuple(i for _, i in index)]
    where = ", ".join(f"{name} {i}" for name, i in index) or "the whole tensor"
    if plane.size == 0:
        raise ValidationError(f"{tensor_path}: slice ({where}) of dims {x.shape} is empty")
    lo = float(plane.min())
    hi = float(plane.max())
    if hi > lo:
        scaled = np.rint((plane.astype(np.float64) - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.full(plane.shape, 128.0)
    body = scaled.astype(np.uint8).tobytes()
    header = f"P5\n{plane.shape[1]} {plane.shape[0]}\n255\n".encode("ascii")
    _atomic_write(out_path, header + body)


def cmd_dump_image(args):
    dump_image(args.input, args.channel, args.frame, args.out)
    log.info("wrote graymap %s", args.out)
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="nimbus",
                     description="Precipitation nowcasting with a small "
                                 "attention U-Net: data synthesis, training, "
                                 "prediction, and CSI evaluation.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic advected-rain dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, default=256, help="train samples (default 256)")
    p.add_argument("--n-val", type=int, default=None,
                   help="val samples (default max(16, n/4))")
    p.add_argument("--n-test", type=int, default=None,
                   help="test samples (default max(16, n/4))")
    p.add_argument("--grid", type=int, default=64,
                   help="crop size in pixels, multiple of 16 (default 64)")
    p.add_argument("--bands", default=",".join(D.DEFAULT_BAND_NAMES),
                   help="comma-separated band names (default: all 9)")
    p.add_argument("--regions", default="regionA", help="comma-separated regions")
    p.add_argument("--years", default="2019", help="comma-separated years")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one model, or one per (region, year)")
    p.add_argument("--config", help="RunConfig JSON path")
    p.add_argument("--manifest", help="dataset manifest path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="seed override (default 0)")
    p.add_argument("--threshold", type=float, default=None,
                   help="rain-rate event threshold in mm/h (default 0.2)")
    p.add_argument("--regions", default="",
                   help="comma-separated regions: train one model per "
                        "(region, year) instead of one pooled model")
    p.add_argument("--years", default="", help="comma-separated years")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write per-sample prediction files")
    p.add_argument("--checkpoint", required=True, help="model checkpoint path")
    p.add_argument("--manifest", help="dataset manifest path")
    p.add_argument("--config", help="RunConfig JSON path")
    p.add_argument("--split", default="test", help="split to predict (default test)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a checkpoint or prediction files")
    p.add_argument("--checkpoint", help="model checkpoint path")
    p.add_argument("--predictions", help="directory of prediction files")
    p.add_argument("--manifest", help="dataset manifest path")
    p.add_argument("--config", help="RunConfig JSON path")
    p.add_argument("--split", default="test", help="split to score (default test)")
    p.add_argument("--threshold", type=float, default=None,
                   help="rain-rate event threshold in mm/h (default 0.2)")
    p.add_argument("--no-baselines", action="store_true",
                   help="skip the all-zeros / all-ones / persistence baselines")
    p.add_argument("--out", required=True, help="report output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ensemble", help="average predictions from checkpoints")
    p.add_argument("--checkpoints", required=True,
                   help="comma-separated checkpoint paths")
    p.add_argument("--manifest", help="dataset manifest path")
    p.add_argument("--config", help="RunConfig JSON path")
    p.add_argument("--split", default="test", help="split to predict (default test)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("params", help="parameter audit vs the standard-conv reference")
    p.add_argument("--config", help="RunConfig JSON path (default: every field at its default)")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("dump-image", help="render a tensor slice as a P5 graymap")
    p.add_argument("--input", required=True, help="tensor file path")
    p.add_argument("--frame", type=int, default=0, help="frame index (default 0)")
    p.add_argument("--channel", type=int, default=0, help="channel index (default 0)")
    p.add_argument("--out", required=True, help="graymap output path")
    p.set_defaults(func=cmd_dump_image)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_VALIDATION
    try:
        _setup_logging()
        return args.func(args)
    except (ConfigError, ValidationError, ShapeError, SizeError) as exc:
        print(f"nimbus: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NimbusError, OSError) as exc:
        print(f"nimbus: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
