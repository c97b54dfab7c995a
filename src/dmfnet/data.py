"""Volume/label/parameter persistence, normalization and the training-time
augmentation pipeline.

Case layout on disk (one directory per case):

    <case>/t1.f32  t1ce.f32  t2.f32  flair.f32   raw little-endian float32
    <case>/seg.u8                                 raw uint8 labels (optional)
    <case>/meta.json                              {dims, dtype, channels, voxel_order}

Voxel order is "dhw" (w fastest). Checkpoints are a single file: magic,
little-endian uint64 header length, JSON header listing named blobs in
order, then the raw blobs. Metric records are JSON lines, one per case.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import CheckpointError, ConfigError, DataError
from .losses import check_labels
from .network import MODALITIES

META_NAME = "meta.json"
SEG_NAME = "seg.u8"
CHECKPOINT_MAGIC = b"MFVOLCK1"
ZERO_STD_GUARD = 1e-8


# ---------------------------------------------------------------------------
# Case persistence
# ---------------------------------------------------------------------------


def save_case(case_dir, volume, labels=None):
    """Write a 4-modality volume (4, d, h, w) and optional labels (d, h, w)."""
    volume = np.asarray(volume, dtype=np.float32)
    if volume.ndim != 4 or volume.shape[0] != len(MODALITIES):
        raise DataError(f"volume must have shape (4, d, h, w), got {volume.shape}")
    case_dir = Path(case_dir)
    case_dir.mkdir(parents=True, exist_ok=True)
    for i, name in enumerate(MODALITIES):
        channel = np.ascontiguousarray(volume[i], dtype="<f4")
        (case_dir / f"{name}.f32").write_bytes(channel.tobytes())
    if labels is not None:
        labels = check_labels(np.asarray(labels), "labels").astype(np.uint8)
        if labels.shape != volume.shape[1:]:
            raise DataError(f"labels shape {labels.shape} != volume spatial {volume.shape[1:]}")
        (case_dir / SEG_NAME).write_bytes(np.ascontiguousarray(labels).tobytes())
    meta = {
        "dims": list(volume.shape[1:]),
        "dtype": "float32",
        "channels": list(MODALITIES),
        "voxel_order": "dhw",
    }
    (case_dir / META_NAME).write_text(json.dumps(meta, indent=2) + "\n")


def load_case(case_dir):
    """Read what ``save_case`` wrote -> (volume (4, d, h, w) float32, labels or None)."""
    case_dir = Path(case_dir)
    meta_path = case_dir / META_NAME
    if not meta_path.is_file():
        raise DataError(f"missing {META_NAME} in {case_dir}")
    try:
        meta = json.loads(meta_path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{meta_path} is not valid JSON: {exc}") from exc
    dims = meta.get("dims") if isinstance(meta, dict) else None
    if not (type(dims) is list and len(dims) == 3 and all(type(v) is int and v > 0 for v in dims)):
        raise DataError(f"{meta_path} needs 'dims', three positive integers, got {dims!r}")
    if "channels" in meta and meta["channels"] != list(MODALITIES):
        raise DataError(f"{meta_path} lists channels {meta['channels']!r}, not {list(MODALITIES)}")
    dims = tuple(dims)
    count = dims[0] * dims[1] * dims[2]  # in Python ints: np.prod wraps in int64
    channels = []
    for name in MODALITIES:
        path = case_dir / f"{name}.f32"
        if not path.is_file():
            raise DataError(f"missing modality file {path.name} in {case_dir}")
        blob = path.read_bytes()
        if len(blob) != 4 * count:
            held = (f"{len(blob) // 4} voxels" if len(blob) % 4 == 0
                    else f"{len(blob)} bytes, not whole float32 voxels,")
            raise DataError(f"{path.name} holds {held} but meta dims {dims} imply {count}")
        raw = np.frombuffer(blob, dtype="<f4")
        if not np.isfinite(raw).all():
            raise DataError(f"{path} holds non-finite voxels")
        channels.append(raw.reshape(dims))
    volume = np.stack(channels).astype(np.float32, copy=False)
    labels = None
    seg_path = case_dir / SEG_NAME
    if seg_path.is_file():
        raw = np.frombuffer(seg_path.read_bytes(), dtype=np.uint8)
        if raw.size != count:
            raise DataError(f"{SEG_NAME} holds {raw.size} voxels, expected {count}")
        labels = check_labels(raw.reshape(dims), SEG_NAME)
    return volume, labels


def list_cases(data_dir):
    """Case subdirectories of data_dir (those containing meta.json), sorted."""
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise DataError(f"data directory {data_dir} does not exist or is not a directory")
    return sorted(p for p in data_dir.iterdir() if (p / META_NAME).is_file())


# ---------------------------------------------------------------------------
# Normalization and augmentation
# ---------------------------------------------------------------------------


def normalize(volume):
    """Per-channel z-score over nonzero (brain) voxels; zero voxels stay zero."""
    volume = np.asarray(volume, dtype=np.float32)
    out = volume.copy()
    for c in range(volume.shape[0]):
        mask = volume[c] != 0
        if not mask.any():
            continue
        vals = volume[c][mask]
        out[c][mask] = (vals - vals.mean()) / (vals.std() + ZERO_STD_GUARD)
    return out


@dataclass(frozen=True)
class AugmentConfig:
    """The four-step training augmentation recipe. ``crop_size`` is its one config
    key; the flip probability and the three ranges are class constants."""

    crop_size: tuple = (128, 128, 128)
    flip_prob = 0.5
    rotate_degrees = (-10.0, 10.0)
    intensity_shift = (-0.1, 0.1)
    intensity_scale = (0.9, 1.1)

    def __post_init__(self):
        object.__setattr__(self, "crop_size", tuple(int(s) for s in self.crop_size))
        if len(self.crop_size) != 3 or min(self.crop_size) < 1:
            raise ConfigError(f"crop_size must be three positive sizes, got {self.crop_size}")


def random_crop(volume, labels, size, rng):
    """Crop to `size` at a uniformly drawn corner; labels cropped identically."""
    size = tuple(int(s) for s in size)
    spatial = volume.shape[1:]
    if any(s > d for s, d in zip(size, spatial)):
        raise DataError(f"crop size {size} exceeds source dims {spatial}")
    corner = tuple(int(rng.integers(0, d - s + 1)) for s, d in zip(size, spatial))
    sl = tuple(slice(c, c + s) for c, s in zip(corner, size))
    out_v = volume[(slice(None),) + sl]
    out_l = labels[sl] if labels is not None else None
    return out_v, out_l


def random_flip(volume, labels, prob, rng):
    """Independent mirror per spatial plane (d, h, w order) with probability prob."""
    for axis in range(3):
        if rng.random() < prob:
            volume = np.flip(volume, axis=axis + 1)
            if labels is not None:
                labels = np.flip(labels, axis=axis)
    out_l = np.ascontiguousarray(labels) if labels is not None else None
    return np.ascontiguousarray(volume), out_l


def _rotation_matrix(angles_rad):
    """Compose one rotation per axis (about d, then h, then w) into one matrix."""
    ad, ah, aw = angles_rad
    cd, sd = np.cos(ad), np.sin(ad)
    ch, sh = np.cos(ah), np.sin(ah)
    cw, sw = np.cos(aw), np.sin(aw)
    rd = np.array([[1, 0, 0], [0, cd, -sd], [0, sd, cd]])
    rh = np.array([[ch, 0, sh], [0, 1, 0], [-sh, 0, ch]])
    rw = np.array([[cw, -sw, 0], [sw, cw, 0], [0, 0, 1]])
    return rd @ rh @ rw


def random_rotate(volume, labels, degrees, rng):
    """Rotate about the volume center, one angle per axis drawn from `degrees`.

    Images are resampled trilinearly, labels nearest-neighbor; voxels pulled
    from outside the volume are filled with 0 / background.
    """
    angles = np.deg2rad(rng.uniform(degrees[0], degrees[1], size=3))
    rot = _rotation_matrix(angles)
    center = (np.asarray(volume.shape[1:]) - 1) / 2.0
    # output coord p samples input at rot^T (p - c) + c
    matrix = rot.T
    offset = center - matrix @ center
    out_v = np.stack([
        ndimage.affine_transform(volume[c], matrix, offset=offset, order=1,
                                 mode="constant", cval=0.0, prefilter=False)
        for c in range(volume.shape[0])
    ]).astype(volume.dtype)
    out_l = None
    if labels is not None:
        out_l = ndimage.affine_transform(labels, matrix, offset=offset, order=0,
                                         mode="constant", cval=0, prefilter=False)
    return out_v, out_l


def intensity_jitter(volume, shift_range, scale_range, rng):
    """Per channel: x -> scale * x + shift * sigma, sigma the nonzero-voxel std.

    One (shift, scale) pair is drawn per channel. On z-scored data the shift
    is therefore in the same units as the raw recipe.
    """
    out = volume.copy()
    for c in range(volume.shape[0]):
        shift = rng.uniform(shift_range[0], shift_range[1])
        scale = rng.uniform(scale_range[0], scale_range[1])
        mask = volume[c] != 0
        sigma = volume[c][mask].std() if mask.any() else 0.0
        out[c] = scale * volume[c] + shift * sigma
    return out


def augment(volume, labels, cfg, rng):
    """crop -> flip -> rotate -> intensity jitter, deterministic given rng."""
    volume, labels = random_crop(volume, labels, cfg.crop_size, rng)
    volume, labels = random_flip(volume, labels, cfg.flip_prob, rng)
    volume, labels = random_rotate(volume, labels, cfg.rotate_degrees, rng)
    volume = intensity_jitter(volume, cfg.intensity_shift, cfg.intensity_scale, rng)
    return volume, labels


# ---------------------------------------------------------------------------
# Parameter checkpoints
# ---------------------------------------------------------------------------


def save_params(net, path):
    """Write every parameter and running-statistic blob, named and ordered."""
    items = net.state_items()
    header = {
        "version": 1,
        "blobs": [
            {"name": name, "shape": list(arr.shape), "dtype": str(arr.dtype)}
            for name, arr in items
        ],
    }
    payload = json.dumps(header).encode()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
        for _, arr in items:
            fh.write(np.ascontiguousarray(arr).tobytes())


def load_params(net, path):
    """Restore a checkpoint into `net` in place; bit-exact round trip.

    Every blob's name, shape, dtype, length and values (finite, no negative running
    variance) are checked before any is written, so a bad file leaves `net` as it was.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror}") from exc
    if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not a parameter checkpoint (bad magic)")
    off = len(CHECKPOINT_MAGIC) + 8
    if len(raw) < off:
        raise CheckpointError(f"checkpoint {path} is truncated inside its header length")
    (hlen,) = struct.unpack_from("<Q", raw, off - 8)
    if len(raw) < off + hlen:
        raise CheckpointError(f"checkpoint {path} is truncated inside its header")
    try:
        header = json.loads(raw[off : off + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint {path} has a corrupt header: {exc}") from exc
    off += hlen
    if not isinstance(header, dict):
        raise CheckpointError(f"checkpoint {path} header is not a JSON object")
    if header.get("version") != 1:
        raise CheckpointError(f"unsupported checkpoint version {header.get('version')}")
    items = net.state_items()
    blobs = header.get("blobs")
    if not isinstance(blobs, list) or len(blobs) != len(items):
        held = f"{len(blobs)} blobs" if isinstance(blobs, list) else f"blobs {blobs!r}"
        raise CheckpointError(f"checkpoint holds {held}, network expects {len(items)} blobs")
    loaded = []
    for (name, arr), blob in zip(items, blobs):
        want = {"name": name, "shape": list(arr.shape), "dtype": str(arr.dtype)}
        if blob != want:
            raise CheckpointError(f"checkpoint blob {blob!r} does not match network tensor {want}")
        if len(raw) < off + arr.nbytes:
            raise CheckpointError(f"checkpoint {path} is truncated inside blob {name}")
        data = np.frombuffer(raw[off : off + arr.nbytes], dtype=arr.dtype).reshape(arr.shape)
        if not np.isfinite(data).all():
            raise CheckpointError(f"checkpoint blob {name} holds non-finite values")
        if name.endswith(".running_var") and (data < 0).any():
            raise CheckpointError(f"checkpoint blob {name} holds a negative running variance")
        loaded.append((arr, data))
        off += arr.nbytes
    if off != len(raw):
        raise CheckpointError(f"{len(raw) - off} trailing bytes in checkpoint {path}")
    for arr, data in loaded:
        arr[...] = data


# ---------------------------------------------------------------------------
# JSON-lines records
# ---------------------------------------------------------------------------


def write_jsonl(path, records):
    """One JSON line per record, keys sorted: the metrics file's per-case
    {case_id, dice_et, dice_wt, dice_tc} and the train log's records."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
