"""Dataset storage, preprocessing, batching, and the synthetic generator.

Geometry convention: raw inputs are coarse radiance grids of size
(2*crop x 2*crop); the pipeline center-crops them to (crop x crop), and
targets are rain-rate grids at twice the crop resolution, so a model fed
crop-sized inputs predicts onto a grid it never sees at full resolution.
Input channels are stacked frame-major: channel index = t*B + b for frame
t of B bands.

The synthetic generator simulates a latent rain field (gaussian blobs under
constant advection) on a fine grid covering the full raw extent, block-
averages it into per-band pseudo-radiances, and renders targets on the
central region only.  Everything is a pure function of the seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import tempfile
import zlib

import numpy as np

from .errors import ConfigError, DataError, FormatError, ShapeError
from .schema import Section

TENSOR_MAGIC = b"W4CL"
TENSOR_VERSION = 1
TENSOR_DTYPE_F32 = 1
MANIFEST_VERSION = 1

DEFAULT_BAND_NAMES = ("VIS006", "VIS008", "IR016", "IR039", "IR087",
                      "IR097", "IR108", "IR120", "IR134")
SYNTH_EPOCH = "2019-01-01T00:00:00"


def _atomic_write(path, payload):
    """Write payload to path by way of a temporary file: no reader sees a part."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    raw row-major data, every value finite.  A malformed file, NaN or Inf
    included, raises FormatError with the byte offset of the problem.  The
    file is read once into a buffer that the returned array views, so the
    array is writable and shares its memory with nothing else."""
    with open(path, "rb") as fh:
        raw = bytearray(os.fstat(fh.fileno()).st_size)
        del raw[fh.readinto(raw):]  # short if the file shrank after fstat
        # A pipe reports size 0 and a file can grow after fstat: read to EOF.
        raw += fh.read()
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
    want = math.prod(dims) * 4     # exact: a fixed-width product can wrap
    if len(raw) - dims_end != want:
        raise FormatError(
            f"{path}: payload of {len(raw) - dims_end} bytes at byte {dims_end} "
            f"does not match dims {list(dims)} ({want} bytes)")
    x = np.frombuffer(raw, dtype="<f4", offset=dims_end).reshape(dims)
    # min and max pass a NaN on and allocate nothing; an empty array has neither.
    if x.size and not (np.isfinite(x.min()) and np.isfinite(x.max())):
        index = int(np.flatnonzero(~np.isfinite(x))[0])
        raise FormatError(f"{path}: value {x.flat[index]:g} at byte {dims_end + 4 * index} "
                          f"is not finite")
    return x


class _ManifestSection(Section):
    """A section of manifest.json: errors are data errors, and an integral
    number such as 4.0 passes as an integer."""
    error = DataError
    integral_floats = True


@dataclasses.dataclass(frozen=True, kw_only=True)
class Geometry(_ManifestSection):
    """Frame counts and grid sizes.  Grids are square: w_raw is written for
    readers, and when given must equal h_raw."""
    t_in: int
    t_out: int
    h_raw: int
    w_raw: int | None = None
    crop: int

    section = what = "geometry"

    def __post_init__(self):
        super().__post_init__()
        for name in ("t_in", "t_out", "h_raw", "crop"):
            if getattr(self, name) < 1:
                raise DataError(f"geometry.{name} must be positive, got {getattr(self, name)}")
        if self.crop > self.h_raw:
            raise DataError(f"geometry.crop ({self.crop}) exceeds h_raw ({self.h_raw})")
        if self.w_raw is None:
            object.__setattr__(self, "w_raw", self.h_raw)
        elif self.w_raw != self.h_raw:
            raise DataError(f"geometry.w_raw ({self.w_raw}) differs from h_raw ({self.h_raw}); "
                            f"only square grids are supported")


@dataclasses.dataclass(frozen=True)
class BandStats(_ManifestSection):
    """One band's normalization statistics."""
    mean: float
    std: float

    section = "stats"


@dataclasses.dataclass(frozen=True, kw_only=True)
class SampleRecord(_ManifestSection):
    """One sample.  The file keys `input`, `target` and `latent` hold paths
    relative to the manifest; the pipeline reads them as `*_path`."""
    input: str
    target: str
    latent: str | None = None
    region: str
    year: int
    split: str
    timestamp: str = ""

    section = "sample"

    input_path = property(lambda self: self.input)
    target_path = property(lambda self: self.target)
    latent_path = property(lambda self: self.latent)


@dataclasses.dataclass(frozen=True, kw_only=True)
class Manifest(_ManifestSection):
    """Typed view of manifest.json.  root, the directory sample paths resolve
    against, is not part of the file: dataclasses.replace must pass it."""
    version: int
    band_names: tuple[str, ...]
    geometry: Geometry
    stats: dict[str, BandStats]
    filter_threshold: float = 0.0
    samples: tuple[SampleRecord, ...]
    root: dataclasses.InitVar[str] = "."

    section, what = "", "manifest"

    def __post_init__(self, root):
        super().__post_init__()
        object.__setattr__(self, "root", root)
        if self.version != MANIFEST_VERSION:
            raise DataError(f"unsupported manifest version {self.version}")
        repeated = [b for i, b in enumerate(self.band_names) if b in self.band_names[:i]]
        if repeated:
            raise DataError(f"band_names repeats {repeated[0]!r}")
        for band, stats in self.stats.items():
            if band not in self.band_names:
                raise DataError(f"stats for unknown band {band!r}")
            if not stats.std > 0:
                raise DataError(f"stats.{band}.std must be positive, got {stats.std}")
        if self.filter_threshold < 0:
            raise DataError(f"filter_threshold must be >= 0, got {self.filter_threshold}")

    t_in = property(lambda self: self.geometry.t_in)
    t_out = property(lambda self: self.geometry.t_out)
    h_raw = property(lambda self: self.geometry.h_raw)
    crop = property(lambda self: self.geometry.crop)

    def resolve(self, rel):
        return os.path.join(self.root, rel)

    def split_samples(self, split):
        return [s for s in self.samples if s.split == split]

    def region_years(self):
        return sorted({(s.region, s.year) for s in self.samples})


def save_manifest(manifest, path):
    _atomic_write(path, json.dumps(manifest.to_dict(), indent=1).encode("utf-8"))


def load_manifest(path):
    """Parse and validate manifest.json; every referenced file must exist.

    Any malformed section or field raises DataError naming it."""
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:   # bad UTF-8, syntax, huge ints, deep nesting
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    try:
        manifest = Manifest.from_dict(doc, root=os.path.dirname(os.path.abspath(path)))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    for i, s in enumerate(manifest.samples):
        for rel in (s.input, s.target, s.latent):
            if rel is not None and not os.path.exists(manifest.resolve(rel)):
                raise DataError(f"{path}: samples[{i}] references missing file {rel}")
    return manifest


def center_crop(x, crop):
    """Slice the centered (crop x crop) window; no interpolation, no copy:
    the result is a view of x.  For 252 -> 126 this keeps row/col indices
    63..188."""
    h, w = x.shape[-2], x.shape[-1]
    if crop > h or crop > w:
        raise ShapeError(f"cannot crop {h}x{w} to {crop}x{crop}")
    top = (h - crop) // 2
    left = (w - crop) // 2
    return x[..., top:top + crop, left:left + crop]


def select_bands(x, band_names, bands, t_in):
    """Gather bands, in their order, from every frame of a frame-major stack
    of band_names; a name band_names lacks raises ConfigError."""
    unknown = [b for b in bands if b not in band_names]
    if unknown:
        raise ConfigError(f"bands {unknown} are not among the manifest's {list(band_names)}")
    n_bands = len(band_names)
    if x.shape[1] != t_in * n_bands:
        raise ShapeError(f"expected {t_in}*{n_bands} channels, got {x.shape[1]}")
    keep = [t * n_bands + band_names.index(b) for t in range(t_in) for b in bands]
    return np.ascontiguousarray(x[:, keep])


def kept_bands(band_names, drop):
    """The bands left after dropping drop; a name in drop that band_names
    lacks raises ConfigError."""
    unknown = [d for d in drop if d not in band_names]
    if unknown:
        raise ConfigError(f"unknown band names in drop list: {unknown}")
    return tuple(b for b in band_names if b not in drop)


def normalize(x, band_names, stats, t_in):
    """Per-band z-score with the same stats across all frames of a band."""
    missing = [b for b in band_names if b not in stats]
    if missing:
        raise DataError(f"manifest stats missing bands {missing}")
    bad = [b for b in band_names if not stats[b].std > 0]
    if bad:
        raise DataError(f"non-positive std for bands {bad}")
    if x.shape[1] != t_in * len(band_names):
        raise ShapeError(f"expected {t_in}*{len(band_names)} channels, got {x.shape[1]}")
    means = np.array([stats[b].mean for b in band_names] * t_in, dtype=x.dtype)
    stds = np.array([stats[b].std for b in band_names] * t_in, dtype=x.dtype)
    return ((x - means[:, None, None]) / stds[:, None, None]).astype(x.dtype, copy=False)


def filter_non_rainy(manifest, samples, volume_threshold):
    """The samples whose target rain sums to at least the threshold, in order."""
    if volume_threshold < 0:
        raise ConfigError(f"volume threshold must be >= 0, got {volume_threshold}")
    return [s for s in samples
            if float(load_sample_target(manifest, s).sum()) >= volume_threshold]


def _read_sample(manifest, rel, want):
    """Read the sample file at rel, which must have the dims want."""
    x = read_tensor_file(manifest.resolve(rel))
    if x.shape != want:
        raise DataError(f"sample {rel}: dims {x.shape} != manifest {want}")
    return x


def load_sample_input(manifest, record, bands=None):
    """Read one input file and run it through select_bands -> center_crop ->
    normalize: a (1, T_in*len(bands), crop, crop) float32 row.  bands are
    the names to keep, in order, None meaning the manifest's list; only
    another list runs the gather, and normalize reads the crop in place."""
    x = _read_sample(manifest, record.input_path,
                     (1, manifest.t_in * len(manifest.band_names), manifest.h_raw, manifest.h_raw))
    bands = manifest.band_names if bands is None else tuple(bands)
    if bands != manifest.band_names:
        x = select_bands(x, manifest.band_names, bands, manifest.t_in)
    x = center_crop(x, manifest.crop)
    return normalize(x, bands, manifest.stats, manifest.t_in)


def load_sample_target(manifest, record):
    return _read_sample(manifest, record.target_path,
                        (1, manifest.t_out, 2 * manifest.crop, 2 * manifest.crop))


def load_sample_latent(manifest, record):
    """Read one sample's last observed rain field, (1, 1, 2*crop, 2*crop):
    the frame the persistence baseline repeats across every lead."""
    return _read_sample(manifest, record.latent_path, (1, 1, 2 * manifest.crop, 2 * manifest.crop))


def batch_iter(manifest, split, batch_size, seed, shuffle, bands=None):
    """Yield (inputs, targets, records) batches for one split.

    Shuffling is a seeded permutation of the manifest order; the final short
    batch is kept.  Inputs of bands arrive fully preprocessed, targets as raw rates.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    samples = manifest.split_samples(split) if isinstance(split, str) else list(split)
    if shuffle:
        order = np.random.default_rng(seed).permutation(len(samples))
        samples = [samples[i] for i in order]
    for start in range(0, len(samples), batch_size):
        chunk = samples[start:start + batch_size]
        # The per-sample lists go unbound, so the suspended generator holds
        # no second copy of the batch it yielded.
        yield (np.concatenate([load_sample_input(manifest, s, bands) for s in chunk]),
               np.concatenate([load_sample_target(manifest, s) for s in chunk]), chunk)


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
    return {b: BandStats(mean=float(means[i]), std=float(stds[i]))
            for i, b in enumerate(manifest.band_names)}


@dataclasses.dataclass(frozen=True)
class SynthConfig(Section):
    """Knobs of the synthetic advected-rain generator.

    A config section (see nimbus.schema): every field is checked against
    its annotation, and a value the generator cannot render, such as more
    bands than it has responses for or a repeated band name, is a
    ConfigError naming `synth.<field>`.
    """
    n_train: int = 256
    n_val: int = 64
    n_test: int = 64
    grid: int = 64                 # crop size; raw inputs are 2x, targets 2x
    bands: tuple[str, ...] = DEFAULT_BAND_NAMES
    t_in: int = 4
    t_out: int = 16
    velocity: tuple[float, ...] | None = None  # fixed (vy, vx) fine px/frame, else per-sample
    v_max: float = 1.2
    blob_count: tuple[int, ...] = (2, 4)       # (lo, hi) ranges drawn per sample
    blob_scale: tuple[float, ...] = (8.0, 18.0)
    blob_amp: tuple[float, ...] = (0.5, 3.0)
    noise_sigma: float = 0.05
    regions: tuple[str, ...] = ("regionA",)
    years: tuple[int, ...] = (2019,)
    seed: int = 0

    section = "synth"

    def __post_init__(self):
        super().__post_init__()

        def span(pair):
            return len(pair) == 2 and pair[0] <= pair[1]
        bands = set(self.bands)
        rules = {
            **{f: (getattr(self, f) >= 1, "be >= 1")
               for f in ("n_train", "n_val", "n_test", "t_in", "t_out")},
            **{f: (getattr(self, f) >= 0, "be >= 0") for f in ("v_max", "noise_sigma")},
            "grid": (self.grid >= 16 and self.grid % 16 == 0, "be a positive multiple of 16"),
            "bands": (1 <= len(bands) == len(self.bands) <= len(_BAND_GAIN),
                      f"hold 1 to {len(_BAND_GAIN)} distinct names"),
            "velocity": (self.velocity is None or len(self.velocity) == 2,
                         "be null or 2 values"),
            "blob_count": (span(self.blob_count) and self.blob_count[0] >= 0,
                           "be a (lo, hi) pair with 0 <= lo <= hi"),
            "blob_scale": (span(self.blob_scale) and self.blob_scale[0] > 0,
                           "be a (lo, hi) pair with 0 < lo <= hi"),
            "blob_amp": (span(self.blob_amp), "be a (lo, hi) pair with lo <= hi"),
            "regions": (len(self.regions) >= 1, "name at least one region"),
            "years": (len(self.years) >= 1, "name at least one year"),
        }
        for field, (ok, rule) in rules.items():
            if not ok:
                raise ConfigError(f"synth.{field} must {rule}, got {getattr(self, field)!r}")
        # Without rain or noise every band is its constant offset, whose
        # zero standard deviation no manifest may record.
        if self.noise_sigma == 0 and (self.blob_count[1] == 0 or self.blob_amp == (0, 0)):
            raise ConfigError(
                "synth.noise_sigma must be > 0 when no blob renders rain (blob_count "
                f"{self.blob_count!r}, blob_amp {self.blob_amp!r}), got {self.noise_sigma!r}")


# Fixed per-band affine responses mapping rain to pseudo-radiance.  Negative
# gains mimic channels that darken under precipitation.
_BAND_GAIN = (1.6, 1.3, 0.9, -0.7, -1.1, 0.8, -1.5, 1.2, -0.9)
_BAND_OFFSET = (6.0, 5.0, 4.0, 9.0, 8.5, 3.5, 10.0, 2.5, 7.5)


def _block_mean2(field):
    """Mean of each 2x2 block.  NumPy's reshape-and-mean over the two
    block axes sums a block [[a, b], [c, d]] as (a + b) + (c + d) and
    divides by 4; three strided adds and a divide give those bytes in a
    ninth of its time."""
    h, w = field.shape
    blocks = field.reshape(h // 2, 2, w // 2, 2)
    out = blocks[:, 0, :, 0] + blocks[:, 0, :, 1]
    out += blocks[:, 1, :, 0] + blocks[:, 1, :, 1]
    out /= 4
    return out


def _rain_field(coords, centers, sigmas, amps, shift):
    """The blob field on the square grid coords x coords (fine-grid pixel
    positions, float64).  A pixel's value depends on its own position only,
    through the same operations in the same order, so the field of a slice
    of coords is the same bytes as that window of the full field.  Each
    blob is evaluated in place in one scratch buffer."""
    field = np.zeros((coords.size, coords.size), dtype=np.float64)
    blob = np.empty_like(field)
    for (cy, cx), s, a in zip(centers, sigmas, amps):
        np.add(((coords - cy - shift[0]) ** 2)[:, None],
               ((coords - cx - shift[1]) ** 2)[None, :], out=blob)
        np.negative(blob, out=blob)
        blob /= 2.0 * s * s
        np.exp(blob, out=blob)
        blob *= a
        field += blob
    return field


def _synth_sample(cfg, index):
    """Generate one sample; deterministic in (seed, index) only.

    Input frames render the whole fine grid; targets and the latent render
    only the central window they keep.  The noise of a frame is drawn
    into the frame's own buffer: Generator.normal(0, s) is 0.0 + s*z, so
    s*z plus the band response is the same value, from the same stream.
    """
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

    gains = np.array(_BAND_GAIN[:len(cfg.bands)])[:, None, None]
    offsets = np.array(_BAND_OFFSET[:len(cfg.bands)])[:, None, None]
    coords = np.arange(extent, dtype=np.float64)
    frames = np.empty((cfg.t_in, len(cfg.bands), 2 * cfg.grid, 2 * cfg.grid))
    for frame, t in zip(frames, range(-(cfg.t_in - 1), 1)):
        coarse = _block_mean2(_rain_field(coords, centers, sigmas, amps, vel * t))
        rng.standard_normal(out=frame)
        frame *= cfg.noise_sigma
        frame += gains * coarse + offsets
    inputs = frames.reshape((1, -1) + frames.shape[2:]).astype(np.float32)

    lo = extent // 4
    window = coords[lo:lo + 2 * cfg.grid]    # central target window on the fine grid
    targets = np.stack([
        np.maximum(_rain_field(window, centers, sigmas, amps, vel * t), 0.0)
        for t in range(1, cfg.t_out + 1)])[None].astype(np.float32)
    latent = np.maximum(_rain_field(window, centers, sigmas, amps, (0.0, 0.0)),
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
            input=names["input"], target=names["target"], latent=names["latent"],
            region=region, year=year, split=split,
            timestamp=f"{year}-01-{day + 1:02d}T{hour:02d}:00:00"))
        if split == "train":
            train_volumes.append(float(targets.sum()))

    manifest = Manifest(version=MANIFEST_VERSION, band_names=cfg.bands,
                        geometry=Geometry(t_in=cfg.t_in, t_out=cfg.t_out, h_raw=2 * cfg.grid,
                                          crop=cfg.grid),
                        stats={}, samples=records,
                        filter_threshold=float(np.median(train_volumes)), root=out_dir)
    manifest = dataclasses.replace(
        manifest, stats=compute_band_stats(manifest, manifest.split_samples("train")),
        root=out_dir)
    path = os.path.join(out_dir, "manifest.json")
    save_manifest(manifest, path)
    return path


def derive_seed(seed, region, year):
    """Stable per-(region, year) seed: base xor crc32 of the job name."""
    return int(seed) ^ zlib.crc32(f"{region}:{year}".encode("utf-8"))
