import dataclasses
import math

import numpy as np
import pytest

from calibrefine.geometry import Frame, Source, project_points, transform_points
from calibrefine.simulator import (
    MAX_SCENE_DETECTIONS,
    SceneConfig,
    SimFrame,
    generate,
    oracle_pairs,
    random_homography,
)
from conftest import naive_generate, naive_random_homography, project_one


def light_scene(**overrides):
    defaults = dict(seed=0, n_frames=60, n_objects=8)
    defaults.update(overrides)
    return SceneConfig(**defaults)


class TestSceneConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(n_frames=0)
        with pytest.raises(ValueError):
            SceneConfig(camera_dropout=1.5)
        with pytest.raises(ValueError):
            SceneConfig(pixel_noise_sigma=-1.0)

    @pytest.mark.parametrize(
        "at_cap, over_cap",
        [
            ({"n_frames": 2**20, "n_objects": 1, "clutter_per_frame": 0.0}, {"n_frames": 2**20 + 1}),
            ({"n_frames": 2**16, "n_objects": 14}, {"n_objects": 15}),
            (
                {"n_frames": 2**18, "n_objects": 3, "clutter_per_frame": 1.0},
                {"clutter_per_frame": 1.0 + 2.0**-40},
            ),
        ],
    )
    def test_scene_size_cap(self, at_cap, over_cap):
        # n_frames * (n_objects + clutter_per_frame) expected detections per
        # sensor may reach MAX_SCENE_DETECTIONS = 2**20 but not pass it
        assert MAX_SCENE_DETECTIONS == 2**20
        SceneConfig(**at_cap)
        with pytest.raises(ValueError, match=r"n_frames \* \(n_objects \+ clutter_per_frame\)"):
            SceneConfig(**{**at_cap, **over_cap})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_objects", 2.5),
            ("n_objects", 12.0),
            ("n_frames", 5.5),
            ("image_width", 1920.5),
            ("image_width", math.inf),
            ("image_height", math.nan),
            ("seed", 3.0),
            ("seed", "3"),
        ],
    )
    def test_integer_fields_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SceneConfig(**{name: value})

    @pytest.mark.parametrize(
        "name", ["pixel_noise_sigma", "lidar_noise_sigma", "clutter_per_frame", "max_projective"]
    )
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_float_fields_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
            SceneConfig(**{name: value})


class TestRandomHomography:
    def test_deterministic(self):
        cfg = light_scene()
        a = random_homography(42, cfg)
        b = random_homography(42, cfg)
        assert np.array_equal(a.m, b.m)

    def test_zero_projective_terms_give_affine(self):
        cfg = light_scene(max_projective=0.0)
        h = random_homography(7, cfg)
        assert h.m[2, 0] == 0.0 and h.m[2, 1] == 0.0

    @pytest.mark.parametrize("seed", range(30))
    def test_containment_and_conditioning(self, seed):
        cfg = light_scene()
        h = random_homography(seed, cfg)
        assert np.linalg.cond(h.m) < 1e4
        corners = np.array([(x, y) for x in (-30.0, 30.0) for y in (-30.0, 30.0)])
        for u, v in project_points(h, corners).tolist():
            assert 0.0 <= u < cfg.image_width
            assert 0.0 <= v < cfg.image_height


class TestRandomHomographyMatchesReference:
    # Bit for bit against the one-trial-per-iteration sampler in conftest.
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"image_width": 1280, "image_height": 720},
            {"image_width": 640, "image_height": 480, "max_projective": 0.0},
            {"image_width": 640, "image_height": 480, "max_projective": 0.01},
            {"image_width": 320, "image_height": 240},
        ],
        ids=["default", "1280x720", "640x480-affine", "640x480-projective-0.01", "320x240"],
    )
    def test_same_matrix_or_same_failure(self, overrides):
        cfg = SceneConfig(**overrides)
        for seed in range(300):
            try:
                expected = naive_random_homography(seed, cfg)
            except RuntimeError:
                with pytest.raises(ValueError):
                    random_homography(seed, cfg)
                continue
            assert random_homography(seed, cfg).m.tobytes() == expected.m.tobytes(), seed

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"image_width": 64, "image_height": 48}, "puts the central 60 m square in the 64x48 image"),
            ({"max_projective": 0.5}, "that puts the central 60 m square .* is conditioned below 10000"),
        ],
        ids=["corners", "condition"],
    )
    def test_failure_names_the_unmet_constraint(self, overrides, message):
        # Seed 0 fails in both samplers: no trial puts the patch inside the
        # image, or none that does is conditioned well enough.
        cfg = SceneConfig(**overrides)
        with pytest.raises(RuntimeError):
            naive_random_homography(0, cfg)
        with pytest.raises(ValueError, match=message):
            random_homography(0, cfg)


class TestGenerateMatchesReference:
    # Bit for bit against the frame-by-frame generator in conftest: frames,
    # labels (with their Python types) and ground truth.
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"n_frames": 3000},
            {"n_frames": 150, "n_objects": 200},
            {"clutter_per_frame": 0.0},
            {"clutter_per_frame": 6.0},
            {"camera_dropout": 1.0},
            {"lidar_dropout": 1.0, "n_objects": 1},
            {"camera_dropout": 1.0, "lidar_dropout": 1.0},
            {"image_width": 640, "image_height": 480},
            {"max_projective": 0.0},
        ],
        ids=[
            "default", "3000x12", "150x200", "no-clutter", "clutter-6", "camera-dropout-1",
            "lidar-dropout-1-one-object", "both-dropouts-1", "640x480", "affine",
        ],
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_frames_labels_and_ground_truth(self, overrides, seed):
        cfg = SceneConfig(seed=seed, **overrides)
        frames, gt = generate(cfg)
        ref_frames, ref_gt = naive_generate(cfg)
        assert len(frames) == len(ref_frames) == cfg.n_frames
        for a, b in zip(frames, ref_frames):
            assert a.frame.frame_id == b.frame.frame_id
            for name in ("lidar_centers", "camera_centers"):
                x, y = getattr(a.frame, name), getattr(b.frame, name)
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), (a.frame.frame_id, name)
            assert a.lidar_labels == b.lidar_labels and a.camera_labels == b.camera_labels
            assert [type(x) for x in a.lidar_labels + a.camera_labels] == [
                type(x) for x in b.lidar_labels + b.camera_labels
            ]
        assert gt.h_true.m.tobytes() == ref_gt.h_true.m.tobytes()
        for name in ("plane", "pixel", "in_camera", "in_lidar"):
            x, y = getattr(gt, name), getattr(ref_gt, name)
            assert x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


class TestGenerate:
    def test_deterministic_bit_identical(self):
        cfg = light_scene()
        frames_a, gt_a = generate(cfg)
        frames_b, gt_b = generate(cfg)
        assert len(frames_a) == len(frames_b) == cfg.n_frames
        for a, b in zip(frames_a, frames_b):
            assert a.frame.frame_id == b.frame.frame_id
            assert a.frame.lidar_centers.tobytes() == b.frame.lidar_centers.tobytes()
            assert a.frame.camera_centers.tobytes() == b.frame.camera_centers.tobytes()
            assert (a.lidar_labels, a.camera_labels) == (b.lidar_labels, b.camera_labels)
        assert np.array_equal(gt_a.h_true.m, gt_b.h_true.m)
        for name in ("plane", "pixel", "in_camera", "in_lidar"):
            assert np.array_equal(getattr(gt_a, name), getattr(gt_b, name))

    def test_full_dropout_leaves_only_clutter(self):
        cfg = light_scene(camera_dropout=1.0, lidar_dropout=1.0)
        frames, _ = generate(cfg)
        for sf in frames:
            assert all(label is None for label in sf.lidar_labels)
            assert all(label is None for label in sf.camera_labels)

    def test_noiseless_limit_exact_projection(self):
        cfg = light_scene(
            pixel_noise_sigma=0.0,
            lidar_noise_sigma=0.0,
            camera_dropout=0.0,
            lidar_dropout=0.0,
            clutter_per_frame=0.0,
        )
        frames, gt = generate(cfg)
        for sf in frames:
            cam_by_label = dict(zip(sf.camera_labels, sf.frame.camera_centers.tolist()))
            for label, (x, y) in zip(sf.lidar_labels, sf.frame.lidar_centers.tolist()):
                if label in cam_by_label:
                    assert list(project_one(gt.h_true, x, y)) == cam_by_label[label]

    def test_ground_truth_consistency(self):
        cfg = light_scene()
        _, gt = generate(cfg)
        assert gt.plane.shape == gt.pixel.shape == (cfg.n_frames, cfg.n_objects, 2)
        assert gt.in_camera.shape == gt.in_lidar.shape == (cfg.n_frames, cfg.n_objects)
        uv, _ = transform_points(gt.h_true.m, gt.plane.reshape(-1, 2))
        assert np.array_equal(uv.reshape(gt.pixel.shape), gt.pixel)

    def test_gt_correspondences_follow_the_arrays(self):
        _, gt = generate(light_scene(seed=3, n_frames=30))
        expected = []
        for f in range(gt.plane.shape[0]):
            for o in range(gt.plane.shape[1]):
                if gt.in_camera[f, o] and gt.in_lidar[f, o]:
                    expected.append((f, *map(float, gt.plane[f, o]), *map(float, gt.pixel[f, o])))
        pairs = gt.correspondences()
        assert 0 < len(pairs) < gt.in_camera.size
        columns = pairs.frame_ids.tolist(), *pairs.xy.T.tolist(), *pairs.uv.T.tolist()
        assert list(zip(*columns)) == expected
        assert pairs.source.tolist() == [Source.ORACLE] * len(pairs)

    def test_label_secrecy_frame_type_has_no_identity_fields(self):
        field_names = {f.name for f in dataclasses.fields(Frame)}
        assert field_names == {"frame_id", "lidar_centers", "camera_centers"}
        sim_fields = {f.name for f in dataclasses.fields(SimFrame)}
        assert "lidar_labels" in sim_fields  # labels live on the wrapper only

    def test_detection_counts_match_binomial_expectation(self):
        # dropout is the binomial part; clutter the Poisson part
        n_fov = 0
        n_emitted = 0
        n_clutter = 0
        n_frames_total = 0
        for seed in range(10):
            cfg = light_scene(seed=seed, n_frames=120)
            frames, gt = generate(cfg)
            n_frames_total += cfg.n_frames
            n_fov += int(np.count_nonzero(gt.in_camera))
            for sf in frames:
                n_emitted += sum(label is not None for label in sf.camera_labels)
                n_clutter += sum(label is None for label in sf.camera_labels)
        p_keep = 1.0 - SceneConfig().camera_dropout
        expected = n_fov * p_keep
        sigma = math.sqrt(n_fov * p_keep * (1 - p_keep))
        assert abs(n_emitted - expected) <= 3 * sigma
        mu = SceneConfig().clutter_per_frame * n_frames_total
        assert abs(n_clutter - mu) <= 3 * math.sqrt(mu)

    def test_fov_asymmetry_present(self):
        frames, gt = generate(light_scene(n_frames=200))
        only_cam = np.count_nonzero(gt.in_camera & ~gt.in_lidar)
        only_lidar = np.count_nonzero(gt.in_lidar & ~gt.in_camera)
        assert only_cam > 0 and only_lidar > 0


class TestOraclePairs:
    def test_zero_error_rate_matches_labels(self):
        frames, gt = generate(light_scene())
        for sf in frames[:20]:
            cam_by_label = dict(zip(sf.camera_labels, sf.frame.camera_centers.tolist()))
            pairs = oracle_pairs(sf, gt, 0.0, seed=1)
            lidar_by_label = dict(zip(sf.lidar_labels, sf.frame.lidar_centers.tolist()))
            expected_ids = set(lidar_by_label) & set(cam_by_label) - {None}
            assert len(pairs) == len(expected_ids)
            for xy, uv in zip(pairs.xy.tolist(), pairs.uv.tolist()):
                assert any(
                    xy == lidar_by_label[i] and uv == cam_by_label[i] for i in expected_ids
                )

    def test_error_rate_one_corrupts_every_pair(self):
        frames, gt = generate(light_scene())
        for sf in frames[:20]:
            if len(sf.frame.camera_centers) < 2:
                continue
            pairs, clean = oracle_pairs(sf, gt, 1.0, seed=2), oracle_pairs(sf, gt, 0.0, seed=2)
            assert len(pairs) == len(clean)
            assert np.array_equal(pairs.xy, clean.xy)
            assert (pairs.uv != clean.uv).any(axis=1).all()

    def test_corruption_fraction_near_rate(self):
        rate = 0.02
        corrupted = 0
        total = 0
        for seed in range(6):
            frames, gt = generate(light_scene(seed=seed, n_frames=200))
            for sf in frames:
                clean = oracle_pairs(sf, gt, 0.0, seed=seed)
                noisy = oracle_pairs(sf, gt, rate, seed=seed)
                assert len(clean) == len(noisy)
                total += len(clean)
                corrupted += int((clean.uv != noisy.uv).any(axis=1).sum())
        sigma = math.sqrt(total * rate * (1 - rate))
        assert abs(corrupted - total * rate) <= 3 * sigma

    def test_error_rate_validation(self):
        frames, gt = generate(light_scene())
        with pytest.raises(ValueError):
            oracle_pairs(frames[0], gt, 1.5, seed=0)
