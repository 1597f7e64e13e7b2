"""Ground-truth scene simulator: streams of LiDAR/camera object centers
related by a known homography, with Gaussian noise, per-sensor dropout,
clutter, and an identity oracle whose error rate emulates an imperfect
cross-sensor matcher.

The two sensors deliberately do not share a field of view: the camera sees an
inset sub-rectangle of the image, the LiDAR a disc on the ground plane, so
some objects are detected by only one sensor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_field_types
from .geometry import Frame, FrameStream, Homography, PairSet, Source, transform_points

#: Half-size (meters) of the ground patch that must land inside the image.
PATCH_HALF = 30.0

#: Camera FOV inset as a fraction of each image dimension, per side.
CAMERA_INSET = 0.04

#: Fraction of scene samples the LiDAR disc is sized to cover.
LIDAR_COVERAGE = 0.85

#: Expected detections per sensor, ``n_frames * (n_objects + clutter_per_frame)``,
#: above which a scene is refused: ``generate`` holds 122-202 bytes per expected
#: row at its peak, so the cap bounds it near 130-210 MB.
MAX_SCENE_DETECTIONS = 2**20

_MAX_HOMOGRAPHY_TRIES = 20000
_HOMOGRAPHY_BATCH = 250  # trials drawn and tested at once; divides the cap
_CONDITION_LIMIT = 1e4
_FRAME_BLOCK_CELLS = 1 << 13  # (frame, object) cells whose frames generate assembles at once


@dataclass(frozen=True)
class SceneConfig:
    image_width: int = 1920
    image_height: int = 1080
    n_objects: int = 12
    n_frames: int = 600
    pixel_noise_sigma: float = 0.5
    lidar_noise_sigma: float = 0.05
    camera_dropout: float = 0.1
    lidar_dropout: float = 0.1
    clutter_per_frame: float = 2.0
    oracle_error_rate: float = 0.02
    seed: int = 0
    max_projective: float = 1e-3

    def __post_init__(self):
        check_field_types(self)
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValueError("image_width and image_height must be positive")
        if self.n_objects < 1:
            raise ValueError(f"n_objects must be >= 1, got {self.n_objects}")
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")
        for name in ("pixel_noise_sigma", "lidar_noise_sigma", "clutter_per_frame", "max_projective"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        for name in ("camera_dropout", "lidar_dropout", "oracle_error_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        detections = float(self.n_frames) * (float(self.n_objects) + float(self.clutter_per_frame))
        if detections > MAX_SCENE_DETECTIONS:
            raise ValueError(
                f"n_frames * (n_objects + clutter_per_frame) must be at most {MAX_SCENE_DETECTIONS} "
                f"expected detections per sensor, got {detections:.6g}"
            )


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Where every object really is in every frame, as arrays indexed by
    (frame, object): ``plane`` and ``pixel`` are ``(F, O, 2)`` positions and
    ``in_camera``/``in_lidar`` the ``(F, O)`` field-of-view masks (dropout is
    applied on top of these)."""

    h_true: Homography
    plane: np.ndarray
    pixel: np.ndarray
    in_camera: np.ndarray
    in_lidar: np.ndarray

    def correspondences(self) -> PairSet:
        """Noise-free evaluation pairs of the objects in both fields of view,
        frame by frame in object order."""
        frame_ids, objects = np.nonzero(self.in_camera & self.in_lidar)
        return PairSet(
            self.plane[frame_ids, objects], self.pixel[frame_ids, objects], frame_ids, Source.ORACLE
        )


@dataclass(frozen=True)
class SimFrame:
    """A frame plus hidden per-detection identity labels (None = clutter).

    Calibration code must only ever see ``.frame``; the labels exist for the
    oracle and for evaluation.
    """

    frame: Frame
    lidar_labels: tuple[int | None, ...]
    camera_labels: tuple[int | None, ...]


def random_homography(seed: int, cfg: SceneConfig) -> Homography:
    """Seeded ground-to-image homography: rotation, anisotropic scale in
    [0.5, 2], in-image translation, and projective terms up to
    ``cfg.max_projective``, rejection-sampled until the central
    60 m x 60 m ground patch lands inside the image and the condition
    number is below 1e4."""
    rng = np.random.default_rng([seed, 0])
    w_img, h_img = float(cfg.image_width), float(cfg.image_height)
    x, y = PATCH_HALF * np.array([[-1.0, 1.0, 1.0, -1.0], [-1.0, -1.0, 1.0, 1.0]])  # corners
    # Translations are drawn from the near-origin part of the image: large
    # offsets push the condition number past the limit, so sampling the full
    # image would almost always be rejected.
    t_hi_x = min(0.25 * w_img, 480.0)
    t_hi_y = min(0.4 * h_img, 480.0)
    # One trial per row: theta, ax, ay, tx, ty, p1, p2, each drawn as
    # ``rng.uniform(lo, hi)`` draws it, ``lo + (hi - lo) * rng.random()``.
    lo = np.array([0.0, 0.5, 0.5, 0.0, 0.0, -cfg.max_projective, -cfg.max_projective])
    hi = np.array([2.0 * math.pi, 2.0, 2.0, t_hi_x, t_hi_y, cfg.max_projective, cfg.max_projective])
    inside_any = False
    # trials that overflow (a huge max_projective) fail the corner test
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_HOMOGRAPHY_TRIES // _HOMOGRAPHY_BATCH):
            theta, ax, ay, tx, ty, p1, p2 = (lo + (hi - lo) * rng.random((_HOMOGRAPHY_BATCH, 7))).T
            c, s = _cos_sin(theta)
            # Right-multiplying leaves the projective row as (p1, p2, 1), so the
            # translated linear part picks up t * p^T. One row-major 3x3 per trial:
            m = np.stack([c * ax + tx * p1, -s * ay + tx * p2, tx,
                          s * ax + ty * p1, c * ay + ty * p2, ty,
                          p1, p2, np.ones_like(p1)], axis=1)[:, :, None]
            # transform_points of the four corners under every trial at once
            w = m[:, 6] * x + m[:, 7] * y + m[:, 8]
            u = (m[:, 0] * x + m[:, 1] * y + m[:, 2]) / w
            v = (m[:, 3] * x + m[:, 4] * y + m[:, 5]) / w
            inside = ~np.any(w <= 1e-3, axis=1)
            inside &= np.all((u >= 0.0) & (u < w_img) & (v >= 0.0) & (v < h_img), axis=1)
            inside_any |= bool(inside.any())
            for h in m[inside].reshape(-1, 3, 3):
                if not np.linalg.cond(h) >= _CONDITION_LIMIT:
                    return Homography(h)
    patch = f"the central {2 * PATCH_HALF:g} m square in the {cfg.image_width}x{cfg.image_height} image"
    unmet = f"that puts {patch} is conditioned below {_CONDITION_LIMIT:g}" if inside_any else f"puts {patch}"
    raise ValueError(f"no homography in {_MAX_HOMOGRAPHY_TRIES} trials {unmet}")


def _scene_samples(
    rng: np.random.Generator, hinv: np.ndarray, cfg: SceneConfig, count: int
) -> np.ndarray:
    """Ground-plane points whose projections are uniform over the image.

    Back-projected image samples are kept only on the same side of the
    horizon as the image center, so straight segments between any two of
    them project back into the image.
    """
    center = hinv @ np.array([cfg.image_width / 2.0, cfg.image_height / 2.0, 1.0])
    sheet = math.copysign(1.0, center[2])
    floor = 0.2 * abs(center[2])
    points = np.empty((count, 2))
    have = 0
    for _ in range(1000):
        u = rng.uniform(0.0, cfg.image_width, size=4 * (count - have))
        v = rng.uniform(0.0, cfg.image_height, size=len(u))
        q = np.column_stack([u, v, np.ones_like(u)]) @ hinv.T
        ok = sheet * q[:, 2] > floor
        good = q[ok]
        take = min(count - have, len(good))
        points[have : have + take] = good[:take, :2] / good[:take, 2:3]
        have += take
        if have == count:
            return points
    raise ValueError(f"too little of the image maps to the ground: {count} points not sampled")


def _trajectory(
    rng: np.random.Generator, hinv: np.ndarray, cfg: SceneConfig
) -> np.ndarray:
    """Piecewise-linear path through scene waypoints, one row per frame."""
    breaks = [0]
    while breaks[-1] < cfg.n_frames:
        breaks.append(breaks[-1] + int(rng.integers(40, 121)))
    waypoints = _scene_samples(rng, hinv, cfg, len(breaks))
    t = np.arange(cfg.n_frames, dtype=float)
    x = np.interp(t, breaks, waypoints[:, 0])
    y = np.interp(t, breaks, waypoints[:, 1])
    return np.column_stack([x, y])


def _cos_sin(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin from ``math``, as the scenes were made (numpy's may differ in the last bit)."""
    values = angles.tolist()
    return np.fromiter(map(math.cos, values), float), np.fromiter(map(math.sin, values), float)


def _shuffled(
    keep: np.ndarray, observed: np.ndarray, clutter: np.ndarray, clutter_counts: np.ndarray, order: np.ndarray
) -> tuple[np.ndarray, list[int | None]]:
    """One sensor's rows over a block of frames: frame f lays out its kept
    rows ``observed[f, keep[f]]`` in object order, then its
    ``clutter_counts[f]`` rows of ``clutter``, and is shuffled by its slice of
    ``order`` (which is overwritten). Returns the rows, frame after frame, and
    their labels (None for clutter)."""
    frame_ids, objects = np.nonzero(keep)
    frame_ids = np.concatenate([frame_ids, np.repeat(np.arange(len(keep)), clutter_counts)])
    counts = np.bincount(frame_ids, minlength=len(keep))
    order += np.repeat(np.cumsum(counts) - counts, counts)  # frame rows to stream rows
    # a stable sort by frame keeps each frame's observed rows ahead of its clutter
    rows = np.argsort(frame_ids, kind="stable")[order]
    labels = np.concatenate([objects, np.full(len(clutter), -1)])[rows]
    return np.concatenate([observed[keep], clutter])[rows], np.where(labels < 0, None, labels).tolist()


def generate(cfg: SceneConfig) -> tuple[list[SimFrame], GroundTruth]:
    """Synthesize a deterministic frame stream and its ground truth."""
    h_true = random_homography(cfg.seed, cfg)
    hinv = np.linalg.inv(h_true.m)
    rng = np.random.default_rng([cfg.seed, 1])

    size = np.array([cfg.image_width, cfg.image_height])
    cam_lo, cam_hi = CAMERA_INSET * size, (1 - CAMERA_INSET) * size  # (u, v) bounds

    probe = _scene_samples(rng, hinv, cfg, 256)
    disc_center = probe.mean(axis=0)
    disc_radius = float(np.quantile(np.linalg.norm(probe - disc_center, axis=1), LIDAR_COVERAGE))

    positions = np.stack([_trajectory(rng, hinv, cfg) for _ in range(cfg.n_objects)], axis=1)
    flat = positions.reshape(-1, 2)
    uv_flat, _ = transform_points(h_true.m, flat)
    pixels = uv_flat.reshape(cfg.n_frames, cfg.n_objects, 2)

    cam_drop = rng.random((cfg.n_frames, cfg.n_objects)) < cfg.camera_dropout
    lidar_drop = rng.random((cfg.n_frames, cfg.n_objects)) < cfg.lidar_dropout
    cam_det = pixels + rng.normal(0.0, 1.0, (cfg.n_frames, cfg.n_objects, 2)) * cfg.pixel_noise_sigma
    lidar_det = positions + rng.normal(0.0, 1.0, (cfg.n_frames, cfg.n_objects, 2)) * cfg.lidar_noise_sigma
    clutter_counts = rng.poisson(cfg.clutter_per_frame, (cfg.n_frames, 2))

    in_cam = np.all((pixels >= cam_lo) & (pixels < cam_hi), axis=2)
    in_lidar = np.linalg.norm(positions - disc_center, axis=2) <= disc_radius

    lidar_keep = in_lidar & ~lidar_drop
    cam_keep = in_cam & ~cam_drop

    def frames_of(part: slice) -> list[SimFrame]:
        # Only the draws stay per frame, in the order that defines the scene:
        # the frame's clutter doubles (radius and angle per LiDAR point, then u
        # and v per camera point), then the LiDAR shuffle, then the camera one.
        counts = clutter_counts[part]
        lidar_rows = np.count_nonzero(lidar_keep[part], axis=1) + counts[:, 0]
        cam_rows = np.count_nonzero(cam_keep[part], axis=1) + counts[:, 1]
        draws = np.empty((int(counts.sum()), 2))
        lidar_order = np.empty(int(lidar_rows.sum()), dtype=np.intp)
        cam_order = np.empty(int(cam_rows.sum()), dtype=np.intp)
        d = a = c = 0
        for k, n_l, n_c in zip(counts.sum(axis=1).tolist(), lidar_rows.tolist(), cam_rows.tolist()):
            rng.random(out=draws[d : d + k])
            lidar_order[a : a + n_l] = rng.permutation(n_l)
            cam_order[c : c + n_c] = rng.permutation(n_c)
            d, a, c = d + k, a + n_l, c + n_c

        # each draw as rng.uniform(lo, hi) makes it, lo + (hi - lo) * d
        is_lidar = np.repeat(np.tile([True, False], len(counts)), counts.ravel())
        radius = disc_radius * np.sqrt(draws[is_lidar, :1])
        lidar_clutter = disc_center + radius * np.column_stack(_cos_sin(2.0 * math.pi * draws[is_lidar, 1]))
        cam_clutter = cam_lo + (cam_hi - cam_lo) * draws[~is_lidar]

        lidar, lidar_labels = _shuffled(lidar_keep[part], lidar_det[part], lidar_clutter, counts[:, 0],
                                        lidar_order)
        camera, cam_labels = _shuffled(cam_keep[part], cam_det[part], cam_clutter, counts[:, 1], cam_order)
        frame_ids = range(part.start, part.start + len(counts))
        frames = FrameStream(frame_ids, lidar, camera, lidar_rows, cam_rows)
        la = np.concatenate([[0], np.cumsum(lidar_rows)]).tolist()
        ca = np.concatenate([[0], np.cumsum(cam_rows)]).tolist()
        return [
            SimFrame(frame, tuple(lidar_labels[la[f] : la[f + 1]]), tuple(cam_labels[ca[f] : ca[f + 1]]))
            for f, frame in enumerate(frames)
        ]

    # A block of frames at a time: each block's frames view that block's two
    # checked arrays, and the block's other arrays (draws, orders, labels)
    # are freed before the next is made, so the peak holds one block's
    # temporaries, not a stream's (one stream-wide block peaks about 2 MB
    # higher on 3000x12 and 150x200).
    step = max(1, _FRAME_BLOCK_CELLS // cfg.n_objects)
    frames = [sf for first in range(0, cfg.n_frames, step) for sf in frames_of(slice(first, first + step))]

    return frames, GroundTruth(
        h_true=h_true, plane=positions, pixel=pixels, in_camera=in_cam, in_lidar=in_lidar
    )


def oracle_pairs(
    frame: SimFrame,
    gt: GroundTruth,
    error_rate: float,
    seed: int,
) -> PairSet:
    """Identity-oracle correspondences for one frame.

    Returns one pair per object detected by both sensors, in LiDAR row
    order; with probability ``error_rate`` a pair's camera endpoint is
    swapped for another detection or clutter point in the same frame (when
    one exists).
    """
    if not 0.0 <= error_rate <= 1.0:
        raise ValueError(f"error_rate must be in [0, 1], got {error_rate}")
    fid = frame.frame.frame_id
    if not 0 <= fid < len(gt.plane):
        raise ValueError(f"frame {fid} is not part of this ground truth")
    rng = np.random.default_rng([seed, fid, 2])
    camera_by_id = {
        label: j for j, label in enumerate(frame.camera_labels) if label is not None
    }
    n_cam = len(frame.frame.camera_centers)
    lidar_rows: list[int] = []
    camera_rows: list[int] = []
    for i, label in enumerate(frame.lidar_labels):
        if label is None or label not in camera_by_id:
            continue
        j = camera_by_id[label]
        if rng.random() < error_rate and n_cam >= 2:
            wrong = int(rng.integers(0, n_cam - 1))
            if wrong >= j:
                wrong += 1
            j = wrong
        lidar_rows.append(i)
        camera_rows.append(j)
    return PairSet(
        frame.frame.lidar_centers[lidar_rows],
        frame.frame.camera_centers[camera_rows],
        np.full(len(lidar_rows), fid),
        Source.ORACLE,
    )
