"""Dataset storage, preprocessing, batching, and the synthetic generator.

Geometry convention: raw inputs are coarse radiance grids of size
(2*crop x 2*crop); the pipeline center-crops them to (crop x crop), and
targets are rain-rate grids at twice the crop resolution, so a model fed
crop-sized inputs predicts onto a grid it never sees at full resolution.
Input channels are stacked frame-major: channel index = t*B + b for frame
t of B bands.

The synthetic generator simulates a latent rain field (gaussian blobs under
constant advection) on a fine grid covering the full raw extent, block-
averages it into per-band pseudo-radiances, and cuts targets from the
central region.  Everything is a pure function of the seed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import zlib

import numpy as np

from .errors import ConfigError, DataError, FormatError, ShapeError
from .model import _atomic_write

TENSOR_MAGIC = b"W4CL"
TENSOR_VERSION = 1
TENSOR_DTYPE_F32 = 1
MANIFEST_VERSION = 1

DEFAULT_BAND_NAMES = ("VIS006", "VIS008", "IR016", "IR039", "IR087",
                      "IR097", "IR108", "IR120", "IR134")
SYNTH_EPOCH = "2019-01-01T00:00:00"


def write_tensor_file(path, tensor):
    """Serialize one float32 array; see read_tensor_file for the layout."""
    arr = np.ascontiguousarray(tensor, dtype="<f4")
    if arr.ndim < 1 or arr.ndim > 8:
        raise ShapeError(f"tensor files hold 1..8 dims, got {arr.ndim}")
    header = TENSOR_MAGIC + bytes([TENSOR_VERSION, TENSOR_DTYPE_F32, arr.ndim, 0])
    dims = struct.pack(f"<{arr.ndim}I", *arr.shape)
    _atomic_write(path, header + dims + arr.tobytes())


def read_tensor_file(path):
    """Read a tensor file: magic "W4CL", version u8, dtype u8 (1 = float32
    little-endian), ndim u8, one pad byte, ndim u32 little-endian dims, then
    raw row-major data.  Malformed files raise FormatError with the byte
    offset of the problem."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise FormatError(f"{path}: truncated at byte {len(raw)}, fixed header needs 8 bytes")
    if raw[:4] != TENSOR_MAGIC:
        raise FormatError(f"{path}: bad magic at byte 0, expected {TENSOR_MAGIC!r}")
    if raw[4] != TENSOR_VERSION:
        raise FormatError(f"{path}: unsupported version {raw[4]} at byte 4")
    if raw[5] != TENSOR_DTYPE_F32:
        raise FormatError(f"{path}: unsupported dtype code {raw[5]} at byte 5")
    ndim = raw[6]
    if not 1 <= ndim <= 8:
        raise FormatError(f"{path}: implausible ndim {ndim} at byte 6")
    dims_end = 8 + 4 * ndim
    if len(raw) < dims_end:
        raise FormatError(f"{path}: dims truncated at byte {len(raw)}")
    dims = struct.unpack_from(f"<{ndim}I", raw, 8)
    want = int(np.prod(dims, dtype=np.int64)) * 4
    if len(raw) - dims_end != want:
        raise FormatError(
            f"{path}: payload of {len(raw) - dims_end} bytes at byte {dims_end} "
            f"does not match dims {list(dims)} ({want} bytes)")
    return np.frombuffer(raw[dims_end:], dtype="<f4").reshape(dims).copy()


@dataclasses.dataclass
class SampleRecord:
    input_path: str
    target_path: str
    region: str
    year: int
    split: str
    timestamp: str
    latent_path: str | None = None


@dataclasses.dataclass
class Manifest:
    """Typed view of manifest.json; paths are resolved against its directory."""
    band_names: tuple
    t_in: int
    t_out: int
    h_raw: int
    crop: int
    stats: dict
    samples: list
    filter_threshold: float
    root: str = "."

    def resolve(self, rel):
        return os.path.join(self.root, rel)

    def split_samples(self, split):
        return [s for s in self.samples if s.split == split]

    def region_years(self):
        return sorted({(s.region, s.year) for s in self.samples})

    def to_json_dict(self):
        return {
            "version": MANIFEST_VERSION,
            "band_names": list(self.band_names),
            "geometry": {"t_in": self.t_in, "t_out": self.t_out,
                         "h_raw": self.h_raw, "w_raw": self.h_raw, "crop": self.crop},
            "stats": {b: {"mean": float(v["mean"]), "std": float(v["std"])}
                      for b, v in self.stats.items()},
            "filter_threshold": self.filter_threshold,
            "samples": [
                {k: v for k, v in
                 [("input", s.input_path), ("target", s.target_path),
                  ("latent", s.latent_path), ("region", s.region),
                  ("year", s.year), ("split", s.split), ("timestamp", s.timestamp)]
                 if v is not None}
                for s in self.samples],
        }


def save_manifest(manifest, path):
    payload = json.dumps(manifest.to_json_dict(), indent=1).encode("utf-8")
    _atomic_write(path, payload)


def load_manifest(path):
    """Parse and validate manifest.json; every referenced file must exist."""
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != MANIFEST_VERSION:
        raise DataError(f"{path}: missing or unsupported manifest version")
    root = os.path.dirname(os.path.abspath(path))
    try:
        geom = doc["geometry"]
        bands = tuple(doc["band_names"])
        stats = doc["stats"]
        raw_samples = doc["samples"]
    except KeyError as exc:
        raise DataError(f"{path}: manifest missing section {exc}") from exc
    if not isinstance(geom, dict):
        raise DataError(f"{path}: geometry must be an object")
    dims = {}
    for key in ("t_in", "t_out", "h_raw", "crop"):
        if key not in geom:
            raise DataError(f"{path}: geometry missing field {key!r}")
        try:
            dims[key] = int(geom[key])
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: geometry field {key!r} must be an integer, "
                            f"got {geom[key]!r}") from exc
    for band, st in stats.items():
        if band not in bands:
            raise DataError(f"{path}: stats for unknown band {band!r}")
        if not st.get("std", 0) > 0:
            raise DataError(f"{path}: band {band!r} has non-positive std")
    samples = []
    for i, s in enumerate(raw_samples):
        try:
            rec = SampleRecord(input_path=s["input"], target_path=s["target"],
                               region=s["region"], year=int(s["year"]),
                               split=s["split"], timestamp=s.get("timestamp", ""),
                               latent_path=s.get("latent"))
        except KeyError as exc:
            raise DataError(f"{path}: sample {i} missing field {exc}") from exc
        for rel in (rec.input_path, rec.target_path, rec.latent_path):
            if rel is not None and not os.path.exists(os.path.join(root, rel)):
                raise DataError(f"{path}: sample {i} references missing file {rel}")
        samples.append(rec)
    return Manifest(band_names=bands, **dims, stats=stats, samples=samples,
                    filter_threshold=float(doc.get("filter_threshold", 0.0)), root=root)


def center_crop(x, crop):
    """Slice the centered (crop x crop) window; no interpolation.  For
    252 -> 126 this keeps row/col indices 63..188."""
    h, w = x.shape[-2], x.shape[-1]
    if crop > h or crop > w:
        raise ShapeError(f"cannot crop {h}x{w} to {crop}x{crop}")
    top = (h - crop) // 2
    left = (w - crop) // 2
    return np.ascontiguousarray(x[..., top:top + crop, left:left + crop])


def select_bands(x, band_names, drop, t_in):
    """Remove the named bands from every frame of a frame-major stack."""
    unknown = [d for d in drop if d not in band_names]
    if unknown:
        raise ConfigError(f"unknown band names in drop list: {unknown}")
    n_bands = len(band_names)
    if x.shape[1] != t_in * n_bands:
        raise ShapeError(f"expected {t_in}*{n_bands} channels, got {x.shape[1]}")
    keep = [t * n_bands + b
            for t in range(t_in)
            for b, name in enumerate(band_names)
            if name not in drop]
    return np.ascontiguousarray(x[:, keep])


def kept_bands(band_names, drop):
    return tuple(b for b in band_names if b not in drop)


def normalize(x, band_names, stats, t_in):
    """Per-band z-score with the same stats across all frames of a band."""
    means, stds = _stat_vectors(x, band_names, stats, t_in)
    return ((x - means) / stds).astype(x.dtype, copy=False)


def denormalize(x, band_names, stats, t_in):
    """Inverse of normalize, for diagnostics."""
    means, stds = _stat_vectors(x, band_names, stats, t_in)
    return (x * stds + means).astype(x.dtype, copy=False)


def _stat_vectors(x, band_names, stats, t_in):
    missing = [b for b in band_names if b not in stats]
    if missing:
        raise DataError(f"manifest stats missing bands {missing}")
    bad = [b for b in band_names if not stats[b]["std"] > 0]
    if bad:
        raise DataError(f"non-positive std for bands {bad}")
    if x.shape[1] != t_in * len(band_names):
        raise ShapeError(f"expected {t_in}*{len(band_names)} channels, got {x.shape[1]}")
    means = np.array([stats[b]["mean"] for b in band_names] * t_in, dtype=x.dtype)
    stds = np.array([stats[b]["std"] for b in band_names] * t_in, dtype=x.dtype)
    return means[None, :, None, None], stds[None, :, None, None]


def filter_non_rainy(manifest, samples, volume_threshold):
    """Retain samples whose target rain sums to at least the threshold.

    Returns (retained samples, report), where the report counts retained and
    removed per (region, year).  Order is preserved.
    """
    if volume_threshold < 0:
        raise ConfigError(f"volume threshold must be >= 0, got {volume_threshold}")
    retained = []
    report = {}
    for s in samples:
        total = float(read_tensor_file(manifest.resolve(s.target_path)).sum())
        key = (s.region, s.year)
        entry = report.setdefault(key, {"retained": 0, "removed": 0})
        if total >= volume_threshold:
            retained.append(s)
            entry["retained"] += 1
        else:
            entry["removed"] += 1
    return retained, report


def load_sample_input(manifest, record, drop):
    """Read one input file and run it through select_bands -> center_crop ->
    normalize; returns a (1, T_in*B_kept, crop, crop) float32 batch row."""
    x = read_tensor_file(manifest.resolve(record.input_path))
    want = (1, manifest.t_in * len(manifest.band_names), manifest.h_raw, manifest.h_raw)
    if x.shape != want:
        raise DataError(f"sample {record.input_path}: dims {x.shape} != manifest {want}")
    x = select_bands(x, manifest.band_names, drop, manifest.t_in)
    x = center_crop(x, manifest.crop)
    return normalize(x, kept_bands(manifest.band_names, drop), manifest.stats, manifest.t_in)


def load_sample_target(manifest, record):
    y = read_tensor_file(manifest.resolve(record.target_path))
    want = (1, manifest.t_out, 2 * manifest.crop, 2 * manifest.crop)
    if y.shape != want:
        raise DataError(f"sample {record.target_path}: dims {y.shape} != manifest {want}")
    return y


def batch_iter(manifest, split, batch_size, seed, shuffle, drop=()):
    """Yield (inputs, targets, records) batches for one split.

    Shuffling is a seeded permutation of the manifest order; the final short
    batch is kept.  Inputs arrive fully preprocessed, targets as raw rates.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    samples = manifest.split_samples(split) if isinstance(split, str) else list(split)
    if shuffle:
        order = np.random.default_rng(seed).permutation(len(samples))
        samples = [samples[i] for i in order]
    for start in range(0, len(samples), batch_size):
        chunk = samples[start:start + batch_size]
        xs = [load_sample_input(manifest, s, drop) for s in chunk]
        ys = [load_sample_target(manifest, s) for s in chunk]
        yield np.concatenate(xs), np.concatenate(ys), chunk


def compute_band_stats(manifest, samples):
    """Two-pass per-band mean/std over raw (uncropped, unnormalized) inputs."""
    n_bands = len(manifest.band_names)
    sums = np.zeros(n_bands, dtype=np.float64)
    count = 0
    for s in samples:
        x = read_tensor_file(manifest.resolve(s.input_path)).astype(np.float64)
        per_band = x.reshape(manifest.t_in, n_bands, -1)
        sums += per_band.sum(axis=(0, 2))
        count += per_band.shape[0] * per_band.shape[2]
    means = sums / max(count, 1)
    sq = np.zeros(n_bands, dtype=np.float64)
    for s in samples:
        x = read_tensor_file(manifest.resolve(s.input_path)).astype(np.float64)
        per_band = x.reshape(manifest.t_in, n_bands, -1)
        sq += ((per_band - means[None, :, None]) ** 2).sum(axis=(0, 2))
    stds = np.sqrt(sq / max(count, 1))
    return {b: {"mean": float(means[i]), "std": float(stds[i])}
            for i, b in enumerate(manifest.band_names)}


@dataclasses.dataclass(frozen=True)
class SynthConfig:
    """Knobs of the synthetic advected-rain generator."""
    n_train: int = 256
    n_val: int = 64
    n_test: int = 64
    grid: int = 64                 # crop size; raw inputs are 2x, targets 2x
    bands: tuple = DEFAULT_BAND_NAMES
    t_in: int = 4
    t_out: int = 16
    velocity: tuple | None = None  # fixed (vy, vx) fine px/frame, else per-sample
    v_max: float = 1.2
    blob_count: tuple = (2, 4)
    blob_scale: tuple = (8.0, 18.0)
    blob_amp: tuple = (0.5, 3.0)
    noise_sigma: float = 0.05
    regions: tuple = ("regionA",)
    years: tuple = (2019,)
    seed: int = 0

    def __post_init__(self):
        if min(self.n_train, self.n_val, self.n_test) < 1:
            raise ConfigError("all split sizes must be >= 1")
        if self.grid < 16 or self.grid % 16:
            raise ConfigError(f"grid must be a positive multiple of 16, got {self.grid}")
        if self.noise_sigma < 0 or self.v_max < 0:
            raise ConfigError("noise_sigma and v_max must be >= 0")
        if not self.regions or not self.years:
            raise ConfigError("at least one region and year required")


# Fixed per-band affine responses mapping rain to pseudo-radiance.  Negative
# gains mimic channels that darken under precipitation.
_BAND_GAIN = (1.6, 1.3, 0.9, -0.7, -1.1, 0.8, -1.5, 1.2, -0.9)
_BAND_OFFSET = (6.0, 5.0, 4.0, 9.0, 8.5, 3.5, 10.0, 2.5, 7.5)


def _block_mean2(field):
    h, w = field.shape
    return field.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


def _rain_field(extent, centers, sigmas, amps, shift):
    yy = np.arange(extent, dtype=np.float64)[:, None]
    xx = np.arange(extent, dtype=np.float64)[None, :]
    field = np.zeros((extent, extent), dtype=np.float64)
    for (cy, cx), s, a in zip(centers, sigmas, amps):
        field += a * np.exp(-(((yy - cy - shift[0]) ** 2) + ((xx - cx - shift[1]) ** 2))
                            / (2.0 * s * s))
    return field


def _synth_sample(cfg, index):
    """Generate one sample; deterministic in (seed, index) only."""
    rng = np.random.default_rng([cfg.seed, index])
    extent = 4 * cfg.grid            # fine grid covering the full raw extent
    n_blobs = int(rng.integers(cfg.blob_count[0], cfg.blob_count[1] + 1))
    centers = rng.uniform(0.2 * extent, 0.8 * extent, size=(n_blobs, 2))
    sigmas = rng.uniform(*cfg.blob_scale, size=n_blobs)
    amps = rng.uniform(*cfg.blob_amp, size=n_blobs)
    if cfg.velocity is not None:
        vel = np.asarray(cfg.velocity, dtype=np.float64)
    else:
        vel = rng.uniform(-cfg.v_max, cfg.v_max, size=2)

    gains = np.array(_BAND_GAIN[:len(cfg.bands)])
    offsets = np.array(_BAND_OFFSET[:len(cfg.bands)])
    frames = []
    for t in range(-(cfg.t_in - 1), 1):
        fine = _rain_field(extent, centers, sigmas, amps, vel * t)
        coarse = _block_mean2(fine)
        noise = rng.normal(0.0, cfg.noise_sigma, size=(len(cfg.bands),) + coarse.shape)
        frames.append(gains[:, None, None] * coarse[None] + offsets[:, None, None] + noise)
    inputs = np.concatenate(frames, axis=0)[None].astype(np.float32)

    lo = extent // 4
    hi = lo + 2 * cfg.grid           # central target window on the fine grid
    targets = np.stack([
        np.maximum(_rain_field(extent, centers, sigmas, amps, vel * t)[lo:hi, lo:hi], 0.0)
        for t in range(1, cfg.t_out + 1)])[None].astype(np.float32)
    latent = np.maximum(_rain_field(extent, centers, sigmas, amps, (0.0, 0.0))[lo:hi, lo:hi],
                        0.0)[None, None].astype(np.float32)
    return inputs, targets, latent


def synth_generate(cfg, out_dir):
    """Write a synthetic dataset and its manifest; returns the manifest path.

    The non-rainy filter threshold is calibrated to the median per-sample
    target volume of the train split and recorded in the manifest.
    """
    sample_dir = os.path.join(out_dir, "samples")
    os.makedirs(sample_dir, exist_ok=True)
    splits = (["train"] * cfg.n_train + ["val"] * cfg.n_val + ["test"] * cfg.n_test)
    records = []
    train_volumes = []
    jobs = [(r, y) for r in cfg.regions for y in cfg.years]
    for i, split in enumerate(splits):
        inputs, targets, latent = _synth_sample(cfg, i)
        names = {kind: os.path.join("samples", f"s{i:05d}.{kind}.w4cl")
                 for kind in ("input", "target", "latent")}
        write_tensor_file(os.path.join(out_dir, names["input"]), inputs)
        write_tensor_file(os.path.join(out_dir, names["target"]), targets)
        write_tensor_file(os.path.join(out_dir, names["latent"]), latent)
        region, year = jobs[i % len(jobs)]
        hour = i % 24
        day = (i // 24) % 28
        records.append(SampleRecord(
            input_path=names["input"], target_path=names["target"],
            latent_path=names["latent"], region=region, year=year, split=split,
            timestamp=f"{year}-01-{day + 1:02d}T{hour:02d}:00:00"))
        if split == "train":
            train_volumes.append(float(targets.sum()))

    manifest = Manifest(band_names=tuple(cfg.bands), t_in=cfg.t_in, t_out=cfg.t_out,
                        h_raw=2 * cfg.grid, crop=cfg.grid, stats={}, samples=records,
                        filter_threshold=float(np.median(train_volumes)), root=out_dir)
    manifest.stats = compute_band_stats(manifest, manifest.split_samples("train"))
    path = os.path.join(out_dir, "manifest.json")
    save_manifest(manifest, path)
    return path


def derive_seed(seed, region, year):
    """Stable per-(region, year) seed: base xor crc32 of the job name."""
    return int(seed) ^ zlib.crc32(f"{region}:{year}".encode("utf-8"))
