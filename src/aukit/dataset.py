"""Synthetic sequence dataset: correlated binary labels plus rendered frames.

Each label channel follows a two-state Markov chain whose persistence
controls how long runs last.  Pairwise coupling nudges every chain's
next-state probability toward co-active (or anti-active) partners, so
label columns exhibit a target correlation structure.  Frames are noise
images where every active channel adds a Gaussian-profile blob at its
own fixed center, giving attention maps a spatial target to find.

Directory layout: ``labels.csv`` (header ``video_id,frame_idx,au_1..au_m``),
``frames/<video_id>.stnt`` with shape (frames, 3, size, size), and
``spec.json`` recording the generator inputs.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence

import numpy as np

from . import serialize
from .errors import ConfigError, DataError, FormatError, IoError
from .rng import Xoshiro256pp, derive_seed

#: Gain applied to the coupling drive; scaled by (1 - persistence) so a
#: fully persistent chain stays exactly constant.
COUPLING_GAIN = 1.1


@dataclass(frozen=True)
class SyntheticSpec:
    m: int
    videos: int
    frames_per_video: int
    image_size: int
    cooccurrence: np.ndarray  # (m, m) targets in [-1, 1]
    persistence: np.ndarray   # (m,) in [0, 1]
    centers: np.ndarray       # (m, 2) pixel coordinates (y, x)
    radius: np.ndarray        # (m,) blob radius in pixels
    noise: float
    seed: int

    def validate(self) -> None:
        if self.m < 1 or self.videos < 1 or self.frames_per_video < 1:
            raise ConfigError("m, videos and frames_per_video must be positive")
        if self.image_size < 1:
            raise ConfigError("image_size must be positive")
        if self.cooccurrence.shape != (self.m, self.m):
            raise ConfigError(
                f"cooccurrence must be {self.m}x{self.m}, got {self.cooccurrence.shape}"
            )
        if np.abs(self.cooccurrence).max() > 1.0:
            raise ConfigError("cooccurrence targets must lie in [-1, 1]")
        if not np.array_equal(self.cooccurrence, self.cooccurrence.T):
            raise ConfigError("cooccurrence matrix must be symmetric")
        if self.persistence.shape != (self.m,):
            raise ConfigError(f"persistence must have {self.m} entries")
        if self.persistence.min() < 0.0 or self.persistence.max() > 1.0:
            raise ConfigError("persistence probabilities must lie in [0, 1]")
        if self.centers.shape != (self.m, 2):
            raise ConfigError(f"centers must be {self.m}x2, got {self.centers.shape}")
        if self.centers.min() < 0 or self.centers.max() >= self.image_size:
            raise ConfigError("blob centers must lie inside the image")
        if self.radius.shape != (self.m,) or self.radius.min() <= 0:
            raise ConfigError("radius must hold one positive value per label")
        if self.noise < 0.0:
            raise ConfigError("noise level must be >= 0")


def default_spec(
    m: int = 4,
    videos: int = 16,
    frames_per_video: int = 32,
    image_size: int = 32,
    cooccurrence: float = 0.7,
    persistence: float = 0.9,
    noise: float = 0.1,
    seed: int = 0,
) -> SyntheticSpec:
    """A ready-to-use spec with blobs on a grid and uniform coupling."""
    grid = int(np.ceil(np.sqrt(m)))
    cell = image_size // grid
    centers = np.array(
        [(cell // 2 + cell * (j // grid), cell // 2 + cell * (j % grid)) for j in range(m)]
    )
    target = np.full((m, m), float(cooccurrence))
    np.fill_diagonal(target, 0.0)
    spec = SyntheticSpec(
        m=m,
        videos=videos,
        frames_per_video=frames_per_video,
        image_size=image_size,
        cooccurrence=target,
        persistence=np.full(m, float(persistence)),
        centers=centers,
        radius=np.full(m, max(2.0, 0.15 * image_size)),
        noise=noise,
        seed=seed,
    )
    spec.validate()
    return spec


def save_spec(path, spec: SyntheticSpec) -> None:
    payload = {
        "m": spec.m,
        "videos": spec.videos,
        "frames_per_video": spec.frames_per_video,
        "image_size": spec.image_size,
        "cooccurrence": spec.cooccurrence.tolist(),
        "persistence": spec.persistence.tolist(),
        "centers": spec.centers.tolist(),
        "radius": spec.radius.tolist(),
        "noise": spec.noise,
        "seed": spec.seed,
    }
    try:
        with serialize.atomic_write(path, "w", encoding="utf-8") as fp:
            json.dump(payload, fp, indent=1)
            fp.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write spec file {path}: {exc}") from exc


def load_spec(path) -> SyntheticSpec:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            raw = fp.read()
    except OSError as exc:
        raise IoError(f"cannot read spec file {path}: {exc}") from exc
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"spec file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"spec file {path} must hold a JSON object")
    required = (
        "m", "videos", "frames_per_video", "image_size", "cooccurrence",
        "persistence", "centers", "radius", "noise", "seed",
    )
    for field in required:
        if field not in payload:
            raise ConfigError(f"spec file {path} is missing key {field!r}")
    try:
        spec = SyntheticSpec(
            m=int(payload["m"]),
            videos=int(payload["videos"]),
            frames_per_video=int(payload["frames_per_video"]),
            image_size=int(payload["image_size"]),
            cooccurrence=np.asarray(payload["cooccurrence"], dtype=np.float64),
            persistence=np.asarray(payload["persistence"], dtype=np.float64),
            centers=np.asarray(payload["centers"], dtype=np.int64),
            radius=np.asarray(payload["radius"], dtype=np.float64),
            noise=float(payload["noise"]),
            seed=int(payload["seed"]),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"spec file {path} has a malformed field: {exc}") from exc
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# Label and frame synthesis
# ---------------------------------------------------------------------------


def generate_video_labels(spec: SyntheticSpec, video_index: int) -> np.ndarray:
    """Label matrix (frames, m) for one video, deterministic in (seed, index)."""
    rng = Xoshiro256pp(derive_seed(spec.seed, video_index, 0))
    t, m = spec.frames_per_video, spec.m
    rho = spec.persistence
    partner_count = np.maximum((spec.cooccurrence != 0.0).sum(axis=1), 1)
    # Ergodicity floor: keeps coupled chains from locking up, but shrinks
    # to nothing at persistence 1 so absorbing chains stay exactly constant.
    lo = (1.0 - rho) * 0.02
    labels = np.empty((t, m), dtype=np.float64)
    state = np.array([1.0 if rng.random() < 0.5 else 0.0 for _ in range(m)])
    labels[0] = state
    for i in range(1, t):
        signed = 2.0 * state - 1.0
        drive = (spec.cooccurrence @ signed) / partner_count
        p_active = rho * state + (1.0 - rho) * (1.0 - state)
        p_active = p_active + (1.0 - rho) * COUPLING_GAIN * drive
        p_active = np.clip(p_active, lo, 1.0 - lo)
        state = np.array([1.0 if rng.random() < p else 0.0 for p in p_active])
        labels[i] = state
    return labels


def generate_labels(spec: SyntheticSpec) -> List[np.ndarray]:
    return [generate_video_labels(spec, v) for v in range(spec.videos)]


def _blob_profiles(spec: SyntheticSpec) -> np.ndarray:
    size = spec.image_size
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    profiles = np.empty((spec.m, size, size))
    for j in range(spec.m):
        cy, cx = spec.centers[j]
        sigma = spec.radius[j] / 2.0
        dist2 = (ys - cy) ** 2 + (xs - cx) ** 2
        profiles[j] = np.exp(-dist2 / (2.0 * sigma * sigma))
    return profiles


def render_video(spec: SyntheticSpec, video_index: int, labels: np.ndarray) -> np.ndarray:
    """Frames (t, 3, size, size): noise plus one blob per active label."""
    rng = Xoshiro256pp(derive_seed(spec.seed, video_index, 1))
    t = labels.shape[0]
    size = spec.image_size
    frames = spec.noise * rng.normal_array((t, 3, size, size))
    profiles = _blob_profiles(spec)
    active = np.einsum("tj,jhw->thw", labels, profiles)
    frames += active[:, None, :, :]
    return frames


def video_id(index: int) -> str:
    return f"v{index:04d}"


def generate(spec: SyntheticSpec, out_dir) -> None:
    """Write the full dataset (labels.csv, frames/, spec.json) to out_dir."""
    spec.validate()
    frames_dir = os.path.join(out_dir, "frames")
    try:
        os.makedirs(frames_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create dataset directory {out_dir}: {exc}") from exc
    ids, rows_index, all_labels = [], [], []
    for v in range(spec.videos):
        labels = generate_video_labels(spec, v)
        frames = render_video(spec, v, labels)
        serialize.save_tensor(os.path.join(frames_dir, f"{video_id(v)}.stnt"), frames)
        for i in range(spec.frames_per_video):
            ids.append(video_id(v))
            rows_index.append(i)
            all_labels.append(labels[i])
    save_labels(os.path.join(out_dir, "labels.csv"), ids, rows_index, np.array(all_labels))
    save_spec(os.path.join(out_dir, "spec.json"), spec)


# ---------------------------------------------------------------------------
# Labels CSV
# ---------------------------------------------------------------------------


def save_labels(path, video_ids: Sequence[str], frame_idx: Sequence[int], labels: np.ndarray) -> None:
    n, m = labels.shape
    if len(video_ids) != n or len(frame_idx) != n:
        raise DataError("video_ids, frame_idx and labels must have equal length")
    header = ["video_id", "frame_idx"] + [f"au_{j + 1}" for j in range(m)]
    try:
        with serialize.atomic_write(path, "w", encoding="utf-8", newline="") as fp:
            writer = csv.writer(fp)
            writer.writerow(header)
            for i in range(n):
                writer.writerow(
                    [video_ids[i], frame_idx[i]] + [int(v) for v in labels[i]]
                )
    except OSError as exc:
        raise IoError(f"cannot write labels file {path}: {exc}") from exc


def load_labels(path) -> tuple[List[str], np.ndarray, np.ndarray]:
    """Read a labels CSV; returns (video_ids, frame_idx, labels (n, m))."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fp:
            reader = csv.reader(fp)
            try:
                header = next(reader)
            except StopIteration:
                raise FormatError(f"labels file {path} is empty") from None
            rows = list(reader)
    except OSError as exc:
        raise IoError(f"cannot read labels file {path}: {exc}") from exc
    for expected, name in ((0, "video_id"), (1, "frame_idx")):
        if expected >= len(header) or header[expected] != name:
            raise FormatError(f"labels file {path} is missing column {name!r}")
    m = len(header) - 2
    if m < 1:
        raise FormatError(f"labels file {path} has no label columns")
    for j in range(m):
        want = f"au_{j + 1}"
        if header[2 + j] != want:
            raise FormatError(
                f"labels file {path} is missing column {want!r} (found {header[2 + j]!r})"
            )
    ids: List[str] = []
    frame_idx = np.empty(len(rows), dtype=np.int64)
    labels = np.empty((len(rows), m), dtype=np.float64)
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise FormatError(f"labels file {path} row {i + 2} has {len(row)} cells")
        ids.append(row[0])
        try:
            frame_idx[i] = int(row[1])
            values = [float(cell) for cell in row[2:]]
        except ValueError as exc:
            raise FormatError(f"labels file {path} row {i + 2}: {exc}") from exc
        if any(v not in (0.0, 1.0) for v in values):
            raise FormatError(f"labels file {path} row {i + 2} has non-binary labels")
        labels[i] = values
    return ids, frame_idx, labels


# ---------------------------------------------------------------------------
# Dataset loading
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VideoSequence:
    video_id: str
    frames: np.ndarray  # (t, 3, size, size)
    labels: np.ndarray  # (t, m)


def load_dataset(directory) -> List[VideoSequence]:
    labels_path = os.path.join(directory, "labels.csv")
    ids, frame_idx, labels = load_labels(labels_path)
    rows_of: Dict[str, List[int]] = {}  # video id -> rows, in first-appearance order
    for i, vid in enumerate(ids):
        rows_of.setdefault(vid, []).append(i)
    sequences = []
    for vid, rows in rows_of.items():
        order = sorted(rows, key=lambda i: frame_idx[i])
        expected = list(range(len(order)))
        if [int(frame_idx[i]) for i in order] != expected:
            raise FormatError(
                f"labels file {labels_path}: video {vid!r} frame indices are not 0..t-1"
            )
        frames = serialize.load_tensor(os.path.join(directory, "frames", f"{vid}.stnt"))
        if frames.ndim != 4 or frames.shape[0] != len(order) or frames.shape[1] != 3:
            raise FormatError(
                f"frames for video {vid!r} have shape {frames.shape}, "
                f"expected ({len(order)}, 3, size, size)"
            )
        sequences.append(VideoSequence(vid, frames, labels[order]))
    return sequences


def stacked_labels(sequences: Sequence[VideoSequence]) -> np.ndarray:
    return np.concatenate([seq.labels for seq in sequences], axis=0)


def iter_windows(
    sequences: Sequence[VideoSequence], t: int
) -> Iterator[tuple[VideoSequence, int]]:
    """Non-overlapping length-t windows: yields (sequence, start_frame)."""
    for seq in sequences:
        total = seq.frames.shape[0]
        for start in range(0, total - t + 1, t):
            yield seq, start
