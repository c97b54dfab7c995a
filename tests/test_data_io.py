"""Case files, normalization, augmentation pipeline, checkpoints, metrics."""

import json

import numpy as np
import pytest

from dmfnet import data as dio, network
from dmfnet.errors import CheckpointError, DataError

from helpers import state_dict


def small_case(rng, size=12):
    vol = rng.standard_normal((4, size, size, size)).astype(np.float32)
    lab = rng.choice([0, 1, 2, 4], size=(size, size, size)).astype(np.uint8)
    return vol, lab


class TestCaseFiles:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        vol, lab = small_case(rng)
        dio.save_case(tmp_path / "c0", vol, lab)
        vol2, lab2 = dio.load_case(tmp_path / "c0")
        np.testing.assert_array_equal(vol, vol2)
        np.testing.assert_array_equal(lab, lab2)

    def test_labels_optional(self, tmp_path, rng):
        vol, _ = small_case(rng)
        dio.save_case(tmp_path / "c0", vol)
        _, lab = dio.load_case(tmp_path / "c0")
        assert lab is None

    def test_missing_modality_reported(self, tmp_path, rng):
        vol, lab = small_case(rng)
        dio.save_case(tmp_path / "c0", vol, lab)
        (tmp_path / "c0" / "t1ce.f32").unlink()
        with pytest.raises(DataError, match="t1ce"):
            dio.load_case(tmp_path / "c0")

    def test_length_mismatch_reported(self, tmp_path, rng):
        vol, lab = small_case(rng)
        dio.save_case(tmp_path / "c0", vol, lab)
        meta = json.loads((tmp_path / "c0" / "meta.json").read_text())
        meta["dims"] = [5, 5, 5]
        (tmp_path / "c0" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DataError, match="voxels"):
            dio.load_case(tmp_path / "c0")

    @pytest.mark.parametrize("meta,expect", [
        ({"dims": [12.9, 12, 12]}, "three positive integers"),
        ({"dims": [True, 1728, 1]}, "three positive integers"),
        ({"dims": [144, 12]}, "three positive integers"),
        ({"dims": [12, 12, 12], "channels": 5}, "channels 5"),
        ({"dims": [12, 12, 12], "channels": ["../../x"]}, "channels"),
        ({"dims": [12, 12, 12], "channels": ["flair", "t2", "t1ce", "t1"]}, "channels"),
        (None, "t2.f32 holds non-finite voxels"),
    ], ids=["dims-float", "dims-bool", "dims-rank-2", "channels-int", "channels-up",
            "channels-reordered", "nan-voxel"])
    def test_case_outside_the_format_rejected(self, tmp_path, rng, meta, expect):
        vol, lab = small_case(rng)
        if meta is None:
            vol[2, 3, 4, 5] = np.inf
        dio.save_case(tmp_path / "c0", vol, lab)
        if meta is not None:
            (tmp_path / "c0" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DataError, match=expect):
            dio.load_case(tmp_path / "c0")

    def test_list_cases_sorted(self, tmp_path, rng):
        for name in ("b", "a", "c"):
            vol, lab = small_case(rng, size=8)
            dio.save_case(tmp_path / name, vol, lab)
        assert [p.name for p in dio.list_cases(tmp_path)] == ["a", "b", "c"]


class TestNormalize:
    def test_nonzero_voxels_standardized(self, rng):
        vol = rng.standard_normal((4, 10, 10, 10)).astype(np.float32) * 4 + 2
        vol[:, :3] = 0.0  # background slab
        out = dio.normalize(vol)
        for c in range(4):
            mask = vol[c] != 0
            assert abs(out[c][mask].mean()) < 1e-5
            assert abs(out[c][mask].std() - 1.0) < 1e-3
            np.testing.assert_array_equal(out[c][~mask], 0.0)

    def test_constant_brain_becomes_zero(self):
        vol = np.zeros((4, 6, 6, 6), dtype=np.float32)
        vol[:, 2:4] = 3.5
        out = dio.normalize(vol)
        np.testing.assert_array_equal(out, 0.0)

    def test_all_zero_channel_unchanged(self):
        vol = np.zeros((4, 5, 5, 5), dtype=np.float32)
        np.testing.assert_array_equal(dio.normalize(vol), vol)


class TestRandomCrop:
    def test_full_size_crop_is_identity(self, rng):
        vol, lab = small_case(rng, size=8)
        v2, l2 = dio.random_crop(vol, lab, (8, 8, 8), np.random.default_rng(0))
        np.testing.assert_array_equal(v2, vol)
        np.testing.assert_array_equal(l2, lab)

    def test_output_dims(self, rng):
        vol, lab = small_case(rng, size=12)
        v2, l2 = dio.random_crop(vol, lab, (8, 6, 4), np.random.default_rng(0))
        assert v2.shape == (4, 8, 6, 4)
        assert l2.shape == (8, 6, 4)

    def test_seed_reproducible(self, rng):
        vol, lab = small_case(rng, size=12)
        a = dio.random_crop(vol, lab, (6, 6, 6), np.random.default_rng(5))
        b = dio.random_crop(vol, lab, (6, 6, 6), np.random.default_rng(5))
        np.testing.assert_array_equal(a[0], b[0])

    def test_crop_larger_than_source_rejected(self, rng):
        vol, lab = small_case(rng, size=8)
        with pytest.raises(DataError, match="exceeds"):
            dio.random_crop(vol, lab, (9, 8, 8), np.random.default_rng(0))

    def test_image_and_labels_crop_identically(self, rng):
        # labels encode a coordinate grid that channel 0 mirrors
        size = 10
        grid = np.indices((size, size, size)).sum(axis=0) % 2
        vol = np.stack([grid.astype(np.float32)] * 4)
        lab = grid.astype(np.uint8)
        v2, l2 = dio.random_crop(vol, lab, (4, 4, 4), np.random.default_rng(3))
        np.testing.assert_array_equal(v2[0].astype(np.uint8), l2)


class TestRandomFlip:
    def test_double_flip_is_identity(self, rng):
        vol, lab = small_case(rng, size=6)
        g1 = np.random.default_rng(1)
        v1, l1 = dio.random_flip(vol, lab, 1.0, g1)
        v2, l2 = dio.random_flip(v1, l1, 1.0, g1)
        np.testing.assert_array_equal(v2, vol)
        np.testing.assert_array_equal(l2, lab)

    def test_prob_zero_is_identity(self, rng):
        vol, lab = small_case(rng, size=6)
        v, l = dio.random_flip(vol, lab, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(v, vol)
        np.testing.assert_array_equal(l, lab)

    def test_prob_one_mirrors_impulse_coordinates(self):
        vol = np.zeros((4, 8, 8, 8), dtype=np.float32)
        lab = np.zeros((8, 8, 8), dtype=np.uint8)
        vol[:, 2, 3, 4] = 1.0
        lab[2, 3, 4] = 4
        v, l = dio.random_flip(vol, lab, 1.0, np.random.default_rng(0))
        assert v[0, 5, 4, 3] == 1.0
        assert v.sum() == 4.0
        assert l[5, 4, 3] == 4
        assert l.sum() == 4


class TestRandomRotate:
    def test_zero_angle_is_identity(self, rng):
        vol, lab = small_case(rng, size=8)
        v, l = dio.random_rotate(vol, lab, (0.0, 0.0), np.random.default_rng(0))
        np.testing.assert_allclose(v, vol, atol=1e-6)
        np.testing.assert_array_equal(l, lab)

    def test_labels_stay_legal(self, rng):
        vol, lab = small_case(rng, size=10)
        v, l = dio.random_rotate(vol, lab, (-10.0, 10.0), np.random.default_rng(2))
        assert set(np.unique(l)) <= {0, 1, 2, 4}

    def test_rotate_back_restores_bar(self):
        size = 24
        lab = np.zeros((size, size, size), dtype=np.uint8)
        lab[8:16, 8:16, 2:22] = 4  # axis-aligned bar
        vol = np.stack([lab.astype(np.float32)] * 4)
        v, l = dio.random_rotate(vol, lab, (10.0, 10.0), np.random.default_rng(0))
        v, l = dio.random_rotate(v, l, (-10.0, -10.0), np.random.default_rng(0))
        a = lab == 4
        b = l == 4
        dice = 2 * (a & b).sum() / (a.sum() + b.sum())
        assert dice > 0.9


class TestIntensityJitter:
    def test_collapsed_ranges_identity(self, rng):
        vol, _ = small_case(rng, size=6)
        out = dio.intensity_jitter(vol, (0.0, 0.0), (1.0, 1.0), np.random.default_rng(0))
        np.testing.assert_array_equal(out, vol)

    def test_pure_scale_multiplies(self, rng):
        vol, _ = small_case(rng, size=6)
        out = dio.intensity_jitter(vol, (0.0, 0.0), (1.1, 1.1), np.random.default_rng(0))
        np.testing.assert_allclose(out, vol * np.float32(1.1), rtol=1e-6)

    def test_shift_in_units_of_channel_std(self, rng):
        vol = rng.standard_normal((4, 8, 8, 8)).astype(np.float32)
        vol /= vol.std(axis=(1, 2, 3), keepdims=True)  # unit std, dense nonzero
        out = dio.intensity_jitter(vol, (0.1, 0.1), (1.0, 1.0), np.random.default_rng(0))
        for c in range(4):
            sigma = vol[c][vol[c] != 0].std()
            np.testing.assert_allclose(out[c], vol[c] + np.float32(0.1) * sigma, rtol=1e-5)


class TestAugmentPipeline:
    def test_deterministic_given_seed(self, rng):
        vol, lab = small_case(rng, size=16)
        cfg = dio.AugmentConfig(crop_size=(8, 8, 8))
        a = dio.augment(vol, lab, cfg, np.random.default_rng(9))
        b = dio.augment(vol, lab, cfg, np.random.default_rng(9))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_labels_stay_legal_through_pipeline(self, rng):
        vol, lab = small_case(rng, size=16)
        cfg = dio.AugmentConfig(crop_size=(8, 8, 8))
        for seed in range(5):
            _, l2 = dio.augment(vol, lab, cfg, np.random.default_rng(seed))
            assert set(np.unique(l2)) <= {0, 1, 2, 4}

    def test_identical_spatial_transform_via_coordinate_grid(self):
        """Crop+flip move image and labels through the same index mapping."""
        size = 10
        zz, yy, xx = np.indices((size, size, size))
        vol = np.stack([zz, yy, xx, zz]).astype(np.float32)
        lab = (((zz + 2 * yy + 3 * xx) % 5 == 0) * 4).astype(np.uint8)
        g = np.random.default_rng(2)
        v, l = dio.random_crop(vol, lab, (6, 6, 6), g)
        v, l = dio.random_flip(v, l, 1.0, g)
        z, y, x = (v[i].astype(np.intp) for i in range(3))
        expect = (((z + 2 * y + 3 * x) % 5 == 0) * 4).astype(np.uint8)
        np.testing.assert_array_equal(l, expect)

    def test_bad_config_rejected(self):
        with pytest.raises(Exception):
            dio.AugmentConfig(intensity_scale=(1.1, 0.9))
        with pytest.raises(Exception):
            dio.AugmentConfig(flip_prob=1.5)


class TestCheckpoints:
    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = network.toy_config(groups=2, stage_channels=(4, 8, 8, 8, 8, 8, 4))
        net = network.build_network(cfg, seed=0)
        # make running stats nontrivial
        x = np.random.default_rng(0).standard_normal((1, 4, 16, 16, 16)).astype(np.float32)
        net.forward(x, mode="train")
        saved = {name: arr.copy() for name, arr in net.state_items()}
        dio.save_params(net, tmp_path / "ckpt.bin")

        other = network.build_network(cfg, seed=123)
        assert not np.array_equal(state_dict(other)["stem.weight"], saved["stem.weight"])
        dio.load_params(other, tmp_path / "ckpt.bin")
        for name, arr in other.state_items():
            np.testing.assert_array_equal(arr, saved[name], err_msg=name)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        net = network.build_network(network.toy_config(
            groups=2, stage_channels=(4, 8, 8, 8, 8, 8, 4)), seed=0)
        with pytest.raises(CheckpointError, match="magic"):
            dio.load_params(net, path)

    @pytest.mark.parametrize("keep", [12, 40, -5], ids=["header-length", "header", "blob"])
    def test_truncated_file_rejected_and_net_untouched(self, tmp_path, keep):
        cfg = network.toy_config(groups=2, stage_channels=(4, 8, 8, 8, 8, 8, 4))
        path = tmp_path / "ckpt.bin"
        dio.save_params(network.build_network(cfg, seed=0), path)
        path.write_bytes(path.read_bytes()[:keep])
        net = network.build_network(cfg, seed=1)
        before = {name: arr.copy() for name, arr in net.state_items()}
        with pytest.raises(CheckpointError, match="truncated"):
            dio.load_params(net, path)
        for name, arr in net.state_items():
            np.testing.assert_array_equal(arr, before[name], err_msg=name)

    def test_architecture_mismatch_rejected(self, tmp_path):
        small = network.build_network(network.toy_config(
            groups=2, stage_channels=(4, 8, 8, 8, 8, 8, 4)), seed=0)
        big = network.build_network(network.toy_config(
            groups=2, stage_channels=(8, 16, 16, 16, 16, 16, 8)), seed=0)
        dio.save_params(small, tmp_path / "ckpt.bin")
        with pytest.raises(CheckpointError):
            dio.load_params(big, tmp_path / "ckpt.bin")


class TestMetricsRecords:
    def test_roundtrip(self, tmp_path):
        records = [
            {"case_id": "a", "dice_et": 0.5, "dice_wt": 0.75, "dice_tc": 1.0},
            {"case_id": "b", "dice_et": 1.0, "dice_wt": 1.0, "dice_tc": 0.0},
        ]
        dio.write_metrics(tmp_path / "m.jsonl", records)
        lines = (tmp_path / "m.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == records
