import dataclasses
import math

import numpy as np
import pytest

from calibrefine.geometry import Frame, Source, project, transform_points
from calibrefine.simulator import (
    SceneConfig,
    SimFrame,
    generate,
    oracle_pairs,
    random_homography,
)


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
        from calibrefine.geometry import PlanePoint

        for x in (-30.0, 30.0):
            for y in (-30.0, 30.0):
                p = project(h, PlanePoint(x, y))
                assert 0.0 <= p.u < cfg.image_width
                assert 0.0 <= p.v < cfg.image_height


class TestGenerate:
    def test_deterministic_bit_identical(self):
        cfg = light_scene()
        frames_a, gt_a = generate(cfg)
        frames_b, gt_b = generate(cfg)
        assert frames_a == frames_b
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
            cam_by_label = {
                label: p for label, p in zip(sf.camera_labels, sf.frame.camera_centers)
            }
            for label, lp in zip(sf.lidar_labels, sf.frame.lidar_centers):
                if label in cam_by_label:
                    pp = project(gt.h_true, lp)
                    cp = cam_by_label[label]
                    assert pp.u == cp.u and pp.v == cp.v

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
        assert [(c.frame_id, c.lidar.x, c.lidar.y, c.pixel.u, c.pixel.v) for c in pairs] == expected
        assert all(type(c.frame_id) is int and c.source is Source.ORACLE for c in pairs)

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
            cam_by_label = {
                label: p for label, p in zip(sf.camera_labels, sf.frame.camera_centers)
            }
            pairs = oracle_pairs(sf, gt, 0.0, seed=1)
            lidar_by_label = {
                label: p for label, p in zip(sf.lidar_labels, sf.frame.lidar_centers)
            }
            expected_ids = set(lidar_by_label) & set(cam_by_label) - {None}
            assert len(pairs) == len(expected_ids)
            for pair in pairs:
                assert any(
                    pair.lidar == lidar_by_label[i] and pair.pixel == cam_by_label[i]
                    for i in expected_ids
                )

    def test_error_rate_one_corrupts_every_pair(self):
        frames, gt = generate(light_scene())
        for sf in frames[:20]:
            if len(sf.frame.camera_centers) < 2:
                continue
            cam_by_label = {
                label: p for label, p in zip(sf.camera_labels, sf.frame.camera_centers)
            }
            for pair, clean in zip(
                oracle_pairs(sf, gt, 1.0, seed=2), oracle_pairs(sf, gt, 0.0, seed=2)
            ):
                assert pair.lidar == clean.lidar
                assert pair.pixel != clean.pixel

    def test_corruption_fraction_near_rate(self):
        rate = 0.02
        corrupted = 0
        total = 0
        for seed in range(6):
            frames, gt = generate(light_scene(seed=seed, n_frames=200))
            for sf in frames:
                clean = oracle_pairs(sf, gt, 0.0, seed=seed)
                noisy = oracle_pairs(sf, gt, rate, seed=seed)
                for a, b in zip(clean, noisy):
                    total += 1
                    corrupted += a.pixel != b.pixel
        sigma = math.sqrt(total * rate * (1 - rate))
        assert abs(corrupted - total * rate) <= 3 * sigma

    def test_error_rate_validation(self):
        frames, gt = generate(light_scene())
        with pytest.raises(ValueError):
            oracle_pairs(frames[0], gt, 1.5, seed=0)
