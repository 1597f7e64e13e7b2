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

from .geometry import Frame, Homography, PairSet, Source, transform_points

#: Half-size (meters) of the ground patch that must land inside the image.
PATCH_HALF = 30.0

#: Camera FOV inset as a fraction of each image dimension, per side.
CAMERA_INSET = 0.04

#: Fraction of scene samples the LiDAR disc is sized to cover.
LIDAR_COVERAGE = 0.85

_MAX_HOMOGRAPHY_TRIES = 20000
_CONDITION_LIMIT = 1e4


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
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValueError("image_width and image_height must be positive")
        if self.n_objects < 1:
            raise ValueError(f"n_objects must be >= 1, got {self.n_objects}")
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")
        for name in ("pixel_noise_sigma", "lidar_noise_sigma", "clutter_per_frame", "max_projective"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("camera_dropout", "lidar_dropout", "oracle_error_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


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
    corners = np.array(
        [
            [-PATCH_HALF, -PATCH_HALF],
            [PATCH_HALF, -PATCH_HALF],
            [PATCH_HALF, PATCH_HALF],
            [-PATCH_HALF, PATCH_HALF],
        ]
    )
    # Translations are drawn from the near-origin part of the image: large
    # offsets push the condition number past the limit, so sampling the full
    # image would almost always be rejected.
    t_hi_x = min(0.25 * w_img, 480.0)
    t_hi_y = min(0.4 * h_img, 480.0)
    for _ in range(_MAX_HOMOGRAPHY_TRIES):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        ax, ay = rng.uniform(0.5, 2.0, size=2)
        tx = rng.uniform(0.0, t_hi_x)
        ty = rng.uniform(0.0, t_hi_y)
        p1, p2 = rng.uniform(-cfg.max_projective, cfg.max_projective, size=2)
        c, s = math.cos(theta), math.sin(theta)
        linear = np.array([[c * ax, -s * ay], [s * ax, c * ay]])
        h = np.eye(3)
        h[:2, :2] = linear
        h[:2, 2] = (tx, ty)
        h[2, :2] = (p1, p2)
        # Right-multiplying leaves the projective row as (p1, p2, 1), so the
        # translated linear part picks up t * p^T.
        h[:2, :2] += np.outer((tx, ty), (p1, p2))

        uv, w = transform_points(h, corners)
        if np.any(w <= 1e-3):
            continue
        inside = (
            np.all(uv[:, 0] >= 0.0)
            and np.all(uv[:, 0] < w_img)
            and np.all(uv[:, 1] >= 0.0)
            and np.all(uv[:, 1] < h_img)
        )
        if not inside:
            continue
        if np.linalg.cond(h) >= _CONDITION_LIMIT:
            continue
        return Homography(h)
    raise RuntimeError("could not sample a homography satisfying the constraints")


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
    raise RuntimeError("scene sampling starved; homography maps too little image area")


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


def generate(cfg: SceneConfig) -> tuple[list[SimFrame], GroundTruth]:
    """Synthesize a deterministic frame stream and its ground truth."""
    h_true = random_homography(cfg.seed, cfg)
    hinv = np.linalg.inv(h_true.m)
    rng = np.random.default_rng([cfg.seed, 1])

    cam_lo_u, cam_hi_u = CAMERA_INSET * cfg.image_width, (1 - CAMERA_INSET) * cfg.image_width
    cam_lo_v, cam_hi_v = CAMERA_INSET * cfg.image_height, (1 - CAMERA_INSET) * cfg.image_height

    probe = _scene_samples(rng, hinv, cfg, 256)
    disc_center = probe.mean(axis=0)
    disc_radius = float(np.quantile(np.linalg.norm(probe - disc_center, axis=1), LIDAR_COVERAGE))

    positions = np.stack([_trajectory(rng, hinv, cfg) for _ in range(cfg.n_objects)], axis=1)
    flat = positions.reshape(-1, 2)
    uv_flat, _ = transform_points(h_true.m, flat)
    pixels = uv_flat.reshape(cfg.n_frames, cfg.n_objects, 2)

    cam_drop = rng.random((cfg.n_frames, cfg.n_objects)) < cfg.camera_dropout
    lidar_drop = rng.random((cfg.n_frames, cfg.n_objects)) < cfg.lidar_dropout
    pixel_noise = rng.normal(0.0, 1.0, (cfg.n_frames, cfg.n_objects, 2)) * cfg.pixel_noise_sigma
    lidar_noise = rng.normal(0.0, 1.0, (cfg.n_frames, cfg.n_objects, 2)) * cfg.lidar_noise_sigma
    clutter_counts = rng.poisson(cfg.clutter_per_frame, (cfg.n_frames, 2))

    in_cam = (
        (pixels[..., 0] >= cam_lo_u)
        & (pixels[..., 0] < cam_hi_u)
        & (pixels[..., 1] >= cam_lo_v)
        & (pixels[..., 1] < cam_hi_v)
    )
    in_lidar = np.linalg.norm(positions - disc_center, axis=2) <= disc_radius

    lidar_det = positions + lidar_noise
    cam_det = pixels + pixel_noise
    lidar_keep = in_lidar & ~lidar_drop
    cam_keep = in_cam & ~cam_drop

    frames: list[SimFrame] = []
    for f in range(cfg.n_frames):
        lidar_idx = np.flatnonzero(lidar_keep[f])
        cam_idx = np.flatnonzero(cam_keep[f])
        lidar_clutter = []
        for _ in range(int(clutter_counts[f, 0])):
            r = disc_radius * math.sqrt(rng.random())
            ang = rng.uniform(0.0, 2.0 * math.pi)
            lidar_clutter.append(
                (disc_center[0] + r * math.cos(ang), disc_center[1] + r * math.sin(ang))
            )
        cam_clutter = [
            (rng.uniform(cam_lo_u, cam_hi_u), rng.uniform(cam_lo_v, cam_hi_v))
            for _ in range(int(clutter_counts[f, 1]))
        ]
        # observed rows first, then clutter, then one shuffle per sensor
        lidar = np.concatenate([lidar_det[f, lidar_idx], np.reshape(lidar_clutter, (-1, 2))])
        camera = np.concatenate([cam_det[f, cam_idx], np.reshape(cam_clutter, (-1, 2))])
        lidar_labels: list[int | None] = lidar_idx.tolist() + [None] * len(lidar_clutter)
        cam_labels: list[int | None] = cam_idx.tolist() + [None] * len(cam_clutter)

        lidar_order = rng.permutation(len(lidar))
        cam_order = rng.permutation(len(camera))
        frames.append(
            SimFrame(
                frame=Frame(f, lidar[lidar_order], camera[cam_order]),
                lidar_labels=tuple(lidar_labels[i] for i in lidar_order.tolist()),
                camera_labels=tuple(cam_labels[i] for i in cam_order.tolist()),
            )
        )

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
