"""Shared helpers: seeded generators and the independent brute-force oracles
the property tests check against."""
from __future__ import annotations

import math

import numpy as np
from hypothesis import settings

from calibrefine import correction, simulator
from calibrefine.errors import InsufficientPairs
from calibrefine.geometry import (
    Frame,
    Homography,
    PairSet,
    Source,
    compose,
    project_points,
    projectable,
    transform_points,
)
from calibrefine.matching import greedy_match

# Every property test runs under this profile and sets only ``max_examples``:
# no deadline (timings vary from run to run), no example database, and
# derandomized so that every run checks the same examples.
settings.register_profile("calibrefine", deadline=None, database=None, derandomize=True)
settings.load_profile("calibrefine")


def well_conditioned_homography(rng: np.random.Generator, cond_limit: float = 1e4) -> Homography:
    """Random dense homography with condition number below the limit."""
    while True:
        m = rng.normal(0.0, 1.0, (3, 3))
        if abs(np.linalg.det(m)) < 1e-3:
            continue
        if np.linalg.cond(m) < cond_limit:
            return Homography(m)


def pair_set(xy, uv, frame_id=0, source: Source = Source.MANUAL) -> PairSet:
    """The ``PairSet`` of (N, 2) ground points ``xy`` and pixels ``uv``, each
    row in frame ``frame_id`` (or one frame id per row) with one ``source``."""
    xy = point_array(xy)
    return PairSet(xy, point_array(uv), np.broadcast_to(frame_id, len(xy)), source)


def exact_pairs(
    h: Homography,
    rng: np.random.Generator,
    n: int,
    span: float = 5.0,
) -> PairSet:
    """Exact correspondences from ``h`` at ground points clear of the horizon.

    The horizon clearance is relative to the largest |w| attainable in the
    sampling box, since a canonical matrix can have an arbitrarily small
    third row.
    """
    w_floor = 0.05 * (span * abs(h.m[2, 0]) + span * abs(h.m[2, 1]) + abs(h.m[2, 2]))
    points = []
    for _ in range(100000):
        if len(points) == n:
            break
        x, y = rng.uniform(-span, span, size=2)
        w = h.m[2, 0] * x + h.m[2, 1] * y + h.m[2, 2]
        if abs(w) < w_floor:
            continue
        points.append((float(x), float(y)))
    assert len(points) == n, "could not sample enough points clear of the horizon"
    xy = point_array(points)
    return pair_set(xy, project_points(h, xy))


def project_one(h: Homography, x: float, y: float) -> tuple[float, float]:
    """``project_points`` on the one-row array of the ground point ``(x, y)``."""
    (u, v), = project_points(h, np.array([[x, y]], dtype=float)).tolist()
    return u, v


def assert_same_pairs(a: PairSet, b: PairSet) -> None:
    """Same rows, bit for bit (this tells -0.0 from 0.0), frame ids and sources."""
    for name in ("xy", "uv", "frame_ids"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert a.source.tolist() == b.source.tolist()


def assert_as_checked(pairs: PairSet) -> None:
    """``pairs``, built without a check, holds what the checking constructor
    gives on the same columns: the same dtypes, shapes and bytes, read-only
    columns and the very ``Source`` objects."""
    checked = PairSet(pairs.xy, pairs.uv, pairs.frame_ids, pairs.source)
    for name in ("xy", "uv", "frame_ids", "source"):
        x, y = getattr(pairs, name), getattr(checked, name)
        assert x.shape == y.shape and x.dtype == y.dtype, name
        assert not x.flags.writeable and not y.flags.writeable, name
    assert_same_pairs(pairs, checked)
    assert all(a is b for a, b in zip(pairs.source.tolist(), checked.source.tolist()))


def assert_same_frames(read, written) -> None:
    """Same int ids and bit-identical read-only arrays (this tells -0.0
    from 0.0)."""
    assert [(type(f.frame_id), f.frame_id) for f in read] == [(int, f.frame_id) for f in written]
    for a, b in zip(read, written):
        for name in ("lidar_centers", "camera_centers"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
            assert not x.flags.writeable and not y.flags.writeable


def translation_homography(dx: float, dy: float) -> Homography:
    return Homography([[1.0, 0.0, dx], [0.0, 1.0, dy], [0.0, 0.0, 1.0]])


def naive_metrics(h: Homography, pairs: PairSet) -> tuple[list[float], float, float]:
    """Straight-loop reference for the reprojection metrics, projecting each
    row by its own scalar arithmetic."""
    m = h.m.tolist()
    residuals = []
    for (x, y), (u, v) in zip(pairs.xy.tolist(), pairs.uv.tolist()):
        w = m[2][0] * x + m[2][1] * y + m[2][2]
        pu = (m[0][0] * x + m[0][1] * y + m[0][2]) / w
        pv = (m[1][0] * x + m[1][1] * y + m[1][2]) / w
        residuals.append(math.hypot(u - pu, v - pv))
    aed = sum(residuals) / len(residuals)
    rmse = math.sqrt(sum(r * r for r in residuals) / len(residuals))
    return residuals, aed, rmse


def point_array(points) -> np.ndarray:
    """(N, 2) float array of (x, y) or (u, v) points; (0, 2) for none."""
    return np.array(list(points), dtype=float).reshape(-1, 2)


def naive_greedy(costs: np.ndarray, gate: float) -> list[tuple[int, int, float]]:
    """Reference greedy matcher: rescan the whole cost matrix every step."""
    n_l, n_c = costs.shape
    free_l = set(range(n_l))
    free_c = set(range(n_c))
    out = []
    while True:
        best = None
        for i in sorted(free_l):
            for j in sorted(free_c):
                c = float(costs[i, j])
                if not c <= gate:  # a NaN cost fails the gate too
                    continue
                key = (c, i, j)
                if best is None or key < best:
                    best = key
        if best is None:
            return out
        c, i, j = best
        free_l.remove(i)
        free_c.remove(j)
        out.append((i, j, c))


def grid_pairs(h: Homography, frames, gate):
    """Reference implicit pairing from scratch: each ``Frame`` projected on
    its own and matched by the one-frame cost grid of ``greedy_match``.
    Returns the paired ground points, pixels and projections."""
    xy_out, uv_out, uv_hat_out = [np.empty((0, 2))], [np.empty((0, 2))], [np.empty((0, 2))]
    for frame in frames:
        uv, kept = projectable(h.m, frame.lidar_centers)
        matched = greedy_match(uv, frame.camera_centers, gate)
        xy_out.append(frame.lidar_centers[kept[matched.lidar]])
        uv_out.append(frame.camera_centers[matched.camera])
        uv_hat_out.append(uv[matched.lidar])
    return np.concatenate(xy_out), np.concatenate(uv_out), np.concatenate(uv_hat_out)


def grid_fit(h: Homography, frames, cfg, lenient: bool = False) -> correction.CorrectionResult:
    """Reference correction fit: the fit's rounds (``correction._alternate``)
    with every pairing made from scratch by ``grid_pairs``."""
    frames = list(frames)

    def pair_fn(g: Homography):
        return grid_pairs(g, frames, cfg.gate)

    pairs = pair_fn(h)
    n_pairs = len(pairs[0])
    if n_pairs < cfg.min_pairs:
        if not lenient:
            raise InsufficientPairs(f"only {n_pairs} implicit pairs; need >= {cfg.min_pairs}")
        return correction.CorrectionResult(Homography.identity(), h, (), n_pairs)
    g, trace, final_pairs = correction._alternate(h, pair_fn, cfg, pairs)
    h_delta = Homography(np.linalg.solve(h.m, g.m))
    return correction.CorrectionResult(h_delta, compose(h, h_delta), tuple(trace), len(final_pairs[0]))


def naive_block(grid, u: float, v: float) -> tuple[int, int] | None:
    """Reference block index of one camera point: None outside the image
    (``0 <= u < image_width`` and ``0 <= v < image_height``), else each
    coordinate floor-divided by the block size and clamped to the last block."""
    if not (0.0 <= u < grid.image_width and 0.0 <= v < grid.image_height):
        return None
    ix = int(u // (grid.image_width / grid.blocks_x))
    iy = int(v // (grid.image_height / grid.blocks_y))
    return min(ix, grid.blocks_x - 1), min(iy, grid.blocks_y - 1)


def naive_retained(grid, block: tuple[int, int]) -> bool:
    """Reference checkerboard rule: a block is kept when ``ix + iy`` has the
    grid's parity."""
    return (block[0] + block[1]) % 2 == grid.parity.value


def naive_center_d2(grid, block: tuple[int, int], u: float, v: float) -> float:
    """Squared distance of ``(u, v)`` from the center of its block."""
    du = u - (block[0] + 0.5) * (grid.image_width / grid.blocks_x)
    dv = v - (block[1] + 0.5) * (grid.image_height / grid.blocks_y)
    return du * du + dv * dv


def naive_block_winners(pixels, frames, grid, skip_parity: bool = True) -> list[int]:
    """Reference block rule over rows ``(u, v)`` of the given frames: a row
    wins when it lies in the image, its block is retained (or parity is not
    skipped), and no other row of its frame and block is nearer the block
    center or as near and earlier. Returns the winning rows in order."""
    candidates = []
    for row, ((u, v), frame) in enumerate(zip(pixels, frames)):
        block = naive_block(grid, u, v)
        if block is None or (skip_parity and not naive_retained(grid, block)):
            continue
        candidates.append((row, frame, block, naive_center_d2(grid, block, u, v)))
    return [
        row
        for row, frame, block, d2 in candidates
        if not any(
            (f, b) == (frame, block) and (e, r) < (d2, row) for r, f, b, e in candidates
        )
    ]


def naive_block_sample(pairs: PairSet, grid, skip_parity: bool = True) -> PairSet:
    """Reference block sampling: the winning pairs, all in one frame."""
    pixels = pairs.uv.tolist()
    return pairs[naive_block_winners(pixels, [0] * len(pixels), grid, skip_parity)]


def naive_occupancy_admit(accumulated: PairSet, survivors: PairSet, grid, capacity: int) -> PairSet:
    """Reference occupancy rule: each survivor, in order, rescans the pixels
    of the whole accumulated set (including survivors admitted before it)
    for those in its block; an empty block admits, a full one refuses,
    otherwise the new camera point must be half a block diagonal from every
    stored one. Returns the set with the admitted survivors appended."""
    out = accumulated.uv.tolist()
    admitted = []
    radius = 0.5 * math.hypot(grid.image_width / grid.blocks_x, grid.image_height / grid.blocks_y)
    for row, (u, v) in enumerate(survivors.uv.tolist()):
        block = naive_block(grid, u, v)
        members = [(mu, mv) for mu, mv in out if naive_block(grid, mu, mv) == block]
        if not members:
            out.append((u, v))
            admitted.append(row)
        elif len(members) < capacity and all(
            math.hypot(u - mu, v - mv) >= radius for mu, mv in members
        ):
            out.append((u, v))
            admitted.append(row)
    return PairSet.concat([accumulated, survivors[admitted]])


def backprojected_points(
    h: Homography,
    rng: np.random.Generator,
    n: int,
    width: float = 1920.0,
    height: float = 1080.0,
) -> np.ndarray:
    """(N, 2) ground points whose projections under ``h`` are uniform in the image."""
    hinv = np.linalg.inv(h.m)
    center = hinv @ np.array([width / 2.0, height / 2.0, 1.0])
    points = []
    while len(points) < n:
        u = rng.uniform(0.0, width)
        v = rng.uniform(0.0, height)
        q = hinv @ np.array([u, v, 1.0])
        if q[2] * center[2] <= 0.0 or abs(q[2]) < 0.2 * abs(center[2]):
            continue
        points.append((float(q[0] / q[2]), float(q[1] / q[2])))
    return point_array(points)


def random_pair_cloud(
    rng: np.random.Generator, n: int, width: float = 1920.0, height: float = 1080.0
) -> PairSet:
    """Pairs with camera points scattered over (and slightly beyond) an image."""
    xy, uv = [], []
    for _ in range(n):
        u = rng.uniform(-0.1 * width, 1.1 * width)
        v = rng.uniform(-0.1 * height, 1.1 * height)
        x, y = rng.uniform(-50.0, 50.0, size=2)
        xy.append((float(x), float(y)))
        uv.append((float(u), float(v)))
    return pair_set(xy, uv)


def naive_random_homography(seed: int, cfg) -> Homography:
    """Reference homography sampler: one trial per iteration, drawn with
    scalar ``rng.uniform`` calls and tested one by one (the simulator's
    sampler before it tested trials in batches)."""
    rng = np.random.default_rng([seed, 0])
    w_img, h_img = float(cfg.image_width), float(cfg.image_height)
    half = simulator.PATCH_HALF
    corners = np.array([[-half, -half], [half, -half], [half, half], [-half, half]])
    t_hi_x = min(0.25 * w_img, 480.0)
    t_hi_y = min(0.4 * h_img, 480.0)
    for _ in range(simulator._MAX_HOMOGRAPHY_TRIES):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        ax, ay = rng.uniform(0.5, 2.0, size=2)
        tx = rng.uniform(0.0, t_hi_x)
        ty = rng.uniform(0.0, t_hi_y)
        p1, p2 = rng.uniform(-cfg.max_projective, cfg.max_projective, size=2)
        c, s = math.cos(theta), math.sin(theta)
        h = np.eye(3)
        h[:2, :2] = np.array([[c * ax, -s * ay], [s * ax, c * ay]])
        h[:2, 2] = (tx, ty)
        h[2, :2] = (p1, p2)
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
        if np.linalg.cond(h) >= simulator._CONDITION_LIMIT:
            continue
        return Homography(h)
    raise RuntimeError("could not sample a homography satisfying the constraints")


def naive_generate(cfg) -> tuple[list, "simulator.GroundTruth"]:
    """Reference scene generator: the stream arrays as ``generate`` builds
    them, then a frame-by-frame loop that draws each clutter point with
    scalar RNG calls, concatenates observed and clutter rows and shuffles
    them (the simulator before it assembled the frames in bulk)."""
    h_true = naive_random_homography(cfg.seed, cfg)
    hinv = np.linalg.inv(h_true.m)
    rng = np.random.default_rng([cfg.seed, 1])

    inset = simulator.CAMERA_INSET
    cam_lo_u, cam_hi_u = inset * cfg.image_width, (1 - inset) * cfg.image_width
    cam_lo_v, cam_hi_v = inset * cfg.image_height, (1 - inset) * cfg.image_height

    probe = simulator._scene_samples(rng, hinv, cfg, 256)
    disc_center = probe.mean(axis=0)
    disc_radius = float(
        np.quantile(np.linalg.norm(probe - disc_center, axis=1), simulator.LIDAR_COVERAGE)
    )

    positions = np.stack(
        [simulator._trajectory(rng, hinv, cfg) for _ in range(cfg.n_objects)], axis=1
    )
    uv_flat, _ = transform_points(h_true.m, positions.reshape(-1, 2))
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

    frames = []
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
        lidar = np.concatenate([lidar_det[f, lidar_idx], np.reshape(lidar_clutter, (-1, 2))])
        camera = np.concatenate([cam_det[f, cam_idx], np.reshape(cam_clutter, (-1, 2))])
        lidar_labels = lidar_idx.tolist() + [None] * len(lidar_clutter)
        cam_labels = cam_idx.tolist() + [None] * len(cam_clutter)
        lidar_order = rng.permutation(len(lidar))
        cam_order = rng.permutation(len(camera))
        frames.append(
            simulator.SimFrame(
                frame=Frame(f, lidar[lidar_order], camera[cam_order]),
                lidar_labels=tuple(lidar_labels[i] for i in lidar_order.tolist()),
                camera_labels=tuple(cam_labels[i] for i in cam_order.tolist()),
            )
        )
    return frames, simulator.GroundTruth(
        h_true=h_true, plane=positions, pixel=pixels, in_camera=in_cam, in_lidar=in_lidar
    )


def naive_oracle_pairs(frame, gt, error_rate: float, seed: int) -> PairSet:
    """Reference oracle: one scalar ``rng.random()`` coin per pair, in a
    per-pair loop over the labels as Python ints with None for clutter (the
    simulator's oracle before it drew its coins in batches)."""
    if not 0.0 <= error_rate <= 1.0:
        raise ValueError(f"error_rate must be in [0, 1], got {error_rate}")
    fid = frame.frame.frame_id
    if not 0 <= fid < len(gt.plane):
        raise ValueError(f"frame {fid} is not part of this ground truth")
    lidar_labels = [None if label < 0 else label for label in frame.lidar_labels.tolist()]
    camera_labels = [None if label < 0 else label for label in frame.camera_labels.tolist()]
    rng = np.random.default_rng([seed, fid, 2])
    camera_by_id = {
        label: j for j, label in enumerate(camera_labels) if label is not None
    }
    n_cam = len(frame.frame.camera_centers)
    lidar_rows: list[int] = []
    camera_rows: list[int] = []
    for i, label in enumerate(lidar_labels):
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
