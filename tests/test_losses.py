"""Generalized dice loss and region dice metrics."""

import numpy as np
import pytest

from dmfnet import autograd as ag, losses, ops
from dmfnet.errors import DataError, ShapeError


def softmax_prob_block(target):
    """logits -> softmax -> GDL, as one checkable block with scalar output."""

    class LossBlock:
        def forward(self, x, mode="train", tape=None):
            p = ag.t_softmax_channels(tape, x)
            return losses.generalized_dice_loss(p, target, tape=tape)

        def parameters(self):
            return []

        def buffers(self):
            return []

    return LossBlock()


class TestOneHot:
    def test_label_four_goes_to_channel_three(self):
        target = np.full((1, 2, 2, 2), 4, dtype=np.uint8)
        oh = losses.one_hot(target)
        np.testing.assert_array_equal(oh[:, 3], 1.0)
        np.testing.assert_array_equal(oh[:, :3], 0.0)

    def test_sums_to_one_per_voxel(self, rng):
        target = rng.choice([0, 1, 2, 4], size=(2, 3, 3, 3)).astype(np.uint8)
        oh = losses.one_hot(target)
        np.testing.assert_array_equal(oh.sum(axis=1), 1.0)

    def test_argmax_roundtrip(self, rng):
        target = rng.choice([0, 1, 2, 4], size=(1, 4, 4, 4)).astype(np.uint8)
        oh = losses.one_hot(target)
        labels = np.asarray((0, 1, 2, 4), dtype=np.uint8)[oh.argmax(axis=1)]
        np.testing.assert_array_equal(labels, target)

    def test_illegal_label_rejected(self):
        with pytest.raises(DataError, match="illegal"):
            losses.one_hot(np.full((1, 2, 2, 2), 3, dtype=np.uint8))


class TestGeneralizedDiceLoss:
    def test_perfect_prediction_is_zero(self, rng):
        target = rng.choice([0, 1, 2, 4], size=(1, 4, 4, 4)).astype(np.uint8)
        assert len(np.unique(target)) == 4  # all classes present
        probs = losses.one_hot(target, dtype=np.float64)
        got = losses.generalized_dice_loss(probs, target)
        # the outer eps floors the loss at eps/(2*num + eps) even for a
        # perfect prediction; assert that exact floor and near-zero overall
        eps = 1e-5
        r_sum = probs.sum(axis=(0, 2, 3, 4))
        num = float((r_sum / (r_sum**2 + eps)).sum())
        assert got == pytest.approx(eps / (2 * num + eps), rel=1e-9)
        assert got < 5e-5

    def test_uniform_prediction_matches_closed_form(self):
        """2^3 volume, every voxel label 1, uniform probs; hand-evaluated GDL."""
        target = np.ones((1, 2, 2, 2), dtype=np.uint8)
        probs = np.full((1, 4, 2, 2, 2), 0.25, dtype=np.float64)
        eps = 1e-5
        n = 8.0
        # classes 0,2,3 are absent: R=0, w=1/eps; class 1: R=8, w=1/(64+eps)
        w_absent = 1.0 / eps
        w_present = 1.0 / (n * n + eps)
        num = w_present * (n * 0.25)
        den = 3 * w_absent * (0.25 * n) + w_present * (n + 0.25 * n)
        expect = 1.0 - 2.0 * num / (den + eps)
        got = losses.generalized_dice_loss(probs, target)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_rejects_unnormalized_probs(self, rng):
        target = np.zeros((1, 2, 2, 2), dtype=np.uint8)
        bad = np.full((1, 4, 2, 2, 2), 0.3)
        with pytest.raises(ShapeError, match="softmax"):
            losses.generalized_dice_loss(bad, target)

    @pytest.mark.parametrize("channels", [3, 5])
    def test_rejects_channels_other_than_class_labels(self, channels):
        target = np.full((1, 2, 2, 2), 4, dtype=np.uint8)
        probs = np.full((1, channels, 2, 2, 2), 1.0 / channels)
        with pytest.raises(ShapeError, match="channels"):
            losses.generalized_dice_loss(probs, target)

    def test_gradient_matches_finite_differences(self, rng):
        target = rng.choice([0, 1, 2, 4], size=(1, 4, 4, 4)).astype(np.uint8)
        logits = rng.standard_normal((1, 4, 4, 4, 4))
        block = softmax_prob_block(target)
        rep = ag.finite_diff_check(block, logits, tolerance=1e-5, step=1e-5,
                                   max_per_tensor=80, rng=0)
        assert rep.passed, str(rep)

    def test_permutation_invariant(self, rng):
        target = rng.choice([0, 1, 2, 4], size=(1, 3, 3, 3)).astype(np.uint8)
        logits = rng.standard_normal((1, 4, 3, 3, 3))
        probs = ops.softmax_channels(logits)
        base = losses.generalized_dice_loss(probs, target)
        perm = rng.permutation(27)
        p2 = probs.reshape(1, 4, 27)[:, :, perm].reshape(1, 4, 3, 3, 3)
        t2 = target.reshape(1, 27)[:, perm].reshape(1, 3, 3, 3)
        assert losses.generalized_dice_loss(np.ascontiguousarray(p2), t2) == pytest.approx(base, rel=1e-12)

    def test_monotone_toward_one_hot(self, rng):
        """GDL decreases as p interpolates linearly from uniform to the truth."""
        target = rng.choice([0, 1, 2, 4], size=(1, 4, 4, 4)).astype(np.uint8)
        truth = losses.one_hot(target, dtype=np.float64)
        uniform = np.full_like(truth, 0.25)
        vals = []
        for t in np.linspace(0.0, 0.95, 10):
            p = (1 - t) * uniform + t * truth
            vals.append(losses.generalized_dice_loss(p, target))
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_value_in_unit_interval(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            target = r.choice([0, 1, 2, 4], size=(2, 3, 3, 3)).astype(np.uint8)
            probs = ops.softmax_channels(r.standard_normal((2, 4, 3, 3, 3)))
            v = losses.generalized_dice_loss(probs, target)
            assert 0.0 <= v <= 1.0 + 1e-6


class TestDiceRegion:
    def test_identical_masks(self):
        gt = np.array([[[[0, 1], [2, 4]]]], dtype=np.uint8)
        for region in losses.REGIONS:
            assert losses.dice_region(gt, gt, region) == 1.0

    def test_disjoint_masks(self):
        a = np.zeros((1, 2, 2, 2), dtype=np.uint8)
        b = np.zeros((1, 2, 2, 2), dtype=np.uint8)
        a[0, 0] = 4
        b[0, 1] = 4
        et = losses.region_specs()[0]
        assert losses.dice_region(a, b, et) == 0.0

    def test_half_overlap(self):
        # |A| = |B| = 4, |A n B| = 2 -> dice 0.5
        a = np.zeros((1, 2, 2, 2), dtype=np.uint8)
        b = np.zeros((1, 2, 2, 2), dtype=np.uint8)
        a.ravel()[:4] = 4
        b.ravel()[2:6] = 4
        et = losses.region_specs()[0]
        assert losses.dice_region(a, b, et) == 0.5

    def test_both_empty_is_one_single_empty_is_zero(self):
        empty = np.zeros((1, 2, 2, 2), dtype=np.uint8)
        full = np.full((1, 2, 2, 2), 4, dtype=np.uint8)
        et = losses.region_specs()[0]
        assert losses.dice_region(empty, empty, et) == 1.0
        assert losses.dice_region(empty, full, et) == 0.0
        assert losses.dice_region(full, empty, et) == 0.0

    def test_symmetric(self, rng):
        a = rng.choice([0, 1, 2, 4], size=(1, 3, 3, 3)).astype(np.uint8)
        b = rng.choice([0, 1, 2, 4], size=(1, 3, 3, 3)).astype(np.uint8)
        for region in losses.REGIONS:
            assert losses.dice_region(a, b, region) == losses.dice_region(b, a, region)

    def test_region_definitions(self):
        et, wt, tc = losses.region_specs()
        assert et.labels == {4}
        assert wt.labels == {1, 2, 4}
        assert tc.labels == {1, 4}

    def test_literal_et_switch(self):
        et, _, _ = losses.region_specs(et_labels={1})
        assert et.labels == {1}
        pred = np.full((1, 2, 2, 2), 1, dtype=np.uint8)
        assert losses.dice_region(pred, pred, et) == 1.0

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_equals_isin_counts(self, rng, dtype):
        """The table lookup (uint8) and the comparisons (any other dtype) count
        the voxels np.isin would."""
        a = rng.choice([0, 1, 2, 4], size=(2, 5, 6, 7)).astype(dtype)
        b = rng.choice([0, 1, 2, 4], size=(2, 5, 6, 7)).astype(dtype)
        for region in losses.region_specs() + losses.region_specs(et_labels={1}):
            ia, ib = np.isin(a, list(region.labels)), np.isin(b, list(region.labels))
            want = 2.0 * int((ia & ib).sum()) / (int(ia.sum()) + int(ib.sum()))
            assert losses.dice_region(a, b, region) == want

    def test_illegal_labels_rejected(self):
        good = np.zeros((1, 2, 2, 2), dtype=np.uint8)
        bad = np.full((1, 2, 2, 2), 7, dtype=np.uint8)
        with pytest.raises(DataError):
            losses.dice_region(bad, good, losses.REGIONS[0])
