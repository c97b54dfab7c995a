"""Adam optimizer, training loop, omega logging and evaluation."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from dmfnet import autograd as ag, data as dio, network, training
from dmfnet.errors import ConfigError, DataError, GradientError, TrainingDiverged

from oracles import adam_reference, make_balanced_case

TOY = dict(groups=2, stage_channels=(4, 8, 8, 8, 8, 8, 4))


def toy_net(seed=0, **overrides):
    cfg = network.toy_config(**{**TOY, **overrides})
    return network.build_network(cfg, seed=seed)


class TestAdamStep:
    def test_zero_grads_zero_decay_leave_params(self):
        p = ag.Parameter("p", np.array([1.0, -2.0, 3.0]))
        state = training.AdamState([p])
        cfg = training.TrainConfig(weight_decay=0.0)
        for _ in range(5):
            training.adam_step([p], {"p": np.zeros(3)}, state, cfg)
        np.testing.assert_array_equal(p.data, [1.0, -2.0, 3.0])

    def test_matches_scalar_reference_over_ten_steps(self):
        cfg = training.TrainConfig(lr=0.01, weight_decay=0.0)
        p = ag.Parameter("p", np.array([0.5]))
        state = training.AdamState([p])
        grads = [1.0, -0.5, 2.0, 0.1, -1.0, 0.7, 0.3, -0.2, 1.5, -0.9]
        got = []
        for g in grads:
            training.adam_step([p], {"p": np.array([g])}, state, cfg)
            got.append(float(p.data[0]))
        ref = adam_reference(0.5, grads, lr=0.01)
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_reference_with_coupled_decay(self):
        cfg = training.TrainConfig(lr=0.01, weight_decay=0.1)
        p = ag.Parameter("p", np.array([0.5]))
        state = training.AdamState([p])
        grads = [0.4, -0.3, 0.8]
        got = []
        for g in grads:
            training.adam_step([p], {"p": np.array([g])}, state, cfg)
            got.append(float(p.data[0]))
        ref = adam_reference(0.5, grads, lr=0.01, weight_decay=0.1)
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_pure_decay_shrinks_monotonically(self):
        cfg = training.TrainConfig(lr=0.01, weight_decay=0.5)
        p = ag.Parameter("p", np.array([2.0]))
        state = training.AdamState([p])
        values = [2.0]
        for _ in range(20):
            training.adam_step([p], {"p": np.zeros(1)}, state, cfg)
            values.append(float(p.data[0]))
        assert all(0 <= b < a for a, b in zip(values, values[1:]))

    def test_omega_exempt_from_decay(self):
        omega = ag.Parameter("omega", np.ones(3), decay=False)
        state = training.AdamState([omega])
        cfg = training.TrainConfig(lr=0.01, weight_decay=0.5)
        training.adam_step([omega], {"omega": np.zeros(3)}, state, cfg)
        np.testing.assert_array_equal(omega.data, 1.0)

    def test_nonfinite_gradient_aborts(self):
        p = ag.Parameter("p", np.ones(2))
        state = training.AdamState([p])
        cfg = training.TrainConfig()
        with pytest.raises(GradientError, match="p"):
            training.adam_step([p], {"p": np.array([1.0, np.nan])}, state, cfg)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("setting", [{"lr": 1e308}, {"weight_decay": 1e308}])
    def test_nonfinite_update_aborts(self, setting):
        """A finite gradient whose update overflows a float32 weight (to inf,
        or to NaN through an infinite moment) stops the run, with no numpy
        warning before the error."""
        p = ag.Parameter("p", np.ones(2, dtype=np.float32))
        state = training.AdamState([p])
        cfg = training.TrainConfig(**setting)
        with pytest.raises(GradientError, match="non-finite weights in 'p' at step 1"):
            training.adam_step([p], {"p": np.ones(2, dtype=np.float32)}, state, cfg)

    def test_lr_zero_keeps_params_invariant(self):
        p = ag.Parameter("p", np.array([1.5]))
        state = training.AdamState([p])
        cfg = training.TrainConfig(lr=0.0, weight_decay=0.0)
        for g in (1.0, -3.0, 0.2):
            training.adam_step([p], {"p": np.array([g])}, state, cfg)
        np.testing.assert_array_equal(p.data, [1.5])

    @pytest.mark.parametrize("decay", [0.0, 0.01])
    def test_float32_steps_equal_the_expression(self, rng, decay):
        """The update gives the bits of the Adam expression written out step
        by step, and leaves the gradients as they were."""
        p = ag.Parameter("p", rng.standard_normal((3, 4, 5)).astype(np.float32))
        theta = p.data.copy()
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        cfg = training.TrainConfig(weight_decay=decay)
        state = training.AdamState([p])
        for t in range(1, 4):
            g = rng.standard_normal(theta.shape).astype(np.float32)
            before = g.copy()
            training.adam_step([p], {"p": g}, state, cfg, lr=0.003)
            assert np.array_equal(g, before)
            if decay:
                g = g + decay * theta
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
            bc1, bc2 = 1.0 - cfg.beta1**t, 1.0 - cfg.beta2**t
            theta = theta - (0.003 * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)).astype(np.float32)
            assert p.data.dtype == np.float32
            assert p.data.tobytes() == theta.tobytes()

    def test_poly_schedule_decays(self):
        cfg = training.TrainConfig(lr=0.1, lr_schedule="poly")
        lrs = [cfg.lr_at(s, 100) for s in (0, 50, 99, 100)]
        assert lrs[0] == 0.1
        assert lrs[0] > lrs[1] > lrs[2] > lrs[3] == 0.0


class TestTrainConfig:
    @pytest.mark.parametrize("bad", [{"epochs": 0}, {"epochs": -3}, {"lr": float("nan")},
                                     {"weight_decay": float("inf")}, {"poly_power": float("nan")}],
                             ids=["epochs-0", "epochs-negative", "lr-nan", "weight-decay-inf",
                                  "poly-power-nan"])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            training.TrainConfig(**bad)

    def test_float_fields_held_as_floats(self):
        """The config classes store an int given for a float field as a float; an int
        beyond the float range is refused."""
        assert type(training.TrainConfig(lr=1).lr) is float
        assert type(network.toy_config(width_multiplier=2).width_multiplier) is float
        for make in (lambda: training.TrainConfig(lr=10**400),
                     lambda: network.toy_config(width_multiplier=10**400)):
            with pytest.raises(ConfigError, match="a number a float can hold"):
                make()


class TestTrainLoop:
    def test_loss_mostly_decreases_on_one_case(self):
        vol, lab = make_balanced_case(size=16, seed=3)
        net = toy_net(seed=0)
        cfg = training.TrainConfig(epochs=50, lr=1e-3, seed=0)
        log = training.train(net, [(vol, lab)], cfg)
        losses = log.losses
        assert len(losses) == 50
        decreasing = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
        assert decreasing / (len(losses) - 1) >= 0.8

    def test_omega_moves_when_learnable(self):
        vol, lab = make_balanced_case(size=16, seed=3)
        net = toy_net(seed=0)
        cfg = training.TrainConfig(epochs=20, lr=1e-3, seed=0)
        log = training.train(net, [(vol, lab)], cfg)
        final = [rec for rec in log.omega if rec["epoch"] == 19]
        assert len(final) == 6  # every dilated unit, every epoch
        assert any(abs(rec["w1"] - 1.0) > 1e-4 for rec in final)

    def test_fixed_equal_keeps_omega_at_one(self):
        vol, lab = make_balanced_case(size=16, seed=3)
        net = toy_net(seed=0, weight_mode="fixed_equal")
        cfg = training.TrainConfig(epochs=10, lr=1e-3, seed=0)
        log = training.train(net, [(vol, lab)], cfg)
        for rec in log.omega:
            assert rec["w1"] == rec["w2"] == rec["w3"] == 1.0
        for _, omega in net.omega_parameters():
            np.testing.assert_array_equal(omega.data, 1.0)

    def test_bitwise_reproducible(self):
        vol, lab = make_balanced_case(size=16, seed=3)
        runs = []
        for _ in range(2):
            net = toy_net(seed=7)
            cfg = training.TrainConfig(epochs=5, lr=1e-3, seed=11)
            log = training.train(net, [(vol, lab)], cfg)
            runs.append((log.losses, {n: a.copy() for n, a in net.state_items()}))
        assert runs[0][0] == runs[1][0]
        for name in runs[0][1]:
            np.testing.assert_array_equal(runs[0][1][name], runs[1][1][name], err_msg=name)

    def test_gradient_reaches_every_parameter(self):
        # 32^3 keeps the deepest stage at 2^3: batch-1 BN over a single voxel
        # would zero that stage's body and (correctly) stall its gradients
        vol, lab = make_balanced_case(size=32, seed=3)
        net = toy_net(seed=0)
        before = {p.name: p.data.copy() for p in net.parameters()}
        cfg = training.TrainConfig(epochs=1, lr=1e-3, seed=0)
        training.train(net, [(vol, lab)], cfg)
        unchanged = [p.name for p in net.parameters()
                     if np.array_equal(before[p.name], p.data)]
        assert unchanged == []

    def test_nan_loss_halts_with_diagnostics(self):
        vol, lab = make_balanced_case(size=16, seed=3)
        bad = vol.copy()
        bad[0, 0, 0, 0] = np.inf
        net = toy_net(seed=0)
        cfg = training.TrainConfig(epochs=2, lr=1e-3, seed=0)
        with pytest.raises(TrainingDiverged) as err, np.errstate(invalid="ignore"):
            training.train(net, [(bad, lab)], cfg)
        assert err.value.step == 0
        assert err.value.last_finite_loss is None

    def test_empty_dataset_rejected(self):
        with pytest.raises(Exception, match="empty"):
            training.train(toy_net(), [], training.TrainConfig())

    def test_unequal_shapes_need_batch_size_one(self):
        vol, lab = make_balanced_case(size=16, seed=3)
        long = (np.concatenate([vol, vol], axis=-1), np.concatenate([lab, lab], axis=-1))
        dataset = [(vol, lab), long]
        with pytest.raises(DataError, match=r"\(4, 16, 16, 16\), \(4, 16, 16, 32\)"):
            training.train(toy_net(), dataset, training.TrainConfig(batch_size=2))
        log = training.train(toy_net(), dataset, training.TrainConfig(epochs=1, seed=0))
        assert len(log.losses) == 2 and all(np.isfinite(v) for v in log.losses)

    def test_augmented_training_runs(self):
        from dmfnet import data as dio
        vol, lab = make_balanced_case(size=24, seed=3)
        net = toy_net(seed=0)
        aug = dio.AugmentConfig(crop_size=(16, 16, 16))
        cfg = training.TrainConfig(epochs=3, lr=1e-3, seed=0)
        log = training.train(net, [(vol, lab)], cfg, aug_cfg=aug)
        assert len(log.losses) == 3
        assert all(np.isfinite(v) for v in log.losses)


class TestStepMemory:
    def test_step_peak_is_bounded_by_activations(self, monkeypatch):
        """The backward releases each interior gradient once its rule has run,
        so a toy 48^3 step's peak above its start stays within 1.9x the bytes
        the forward records (keeping every gradient to the end took 2.1x)."""
        net = network.build_network(network.toy_config(), seed=0)
        params = net.parameters()
        cfg = training.TrainConfig()
        state = training.AdamState(params)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 4, 48, 48, 48)).astype(np.float32)
        y = rng.choice(np.array(network.CLASS_LABELS, dtype=np.uint8), size=(1, 48, 48, 48))
        tapes = []
        backward = ag.backward
        monkeypatch.setattr(ag, "backward",
                            lambda tape, g: tapes.append(tape) or backward(tape, g))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            training.train_step(net, params, x, y, state, cfg, cfg.lr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        activations = sum(v.data.nbytes for v in tapes[0].nodes if v.op != "param")
        assert peak - start <= 1.9 * activations


class TestLogPersistence:
    def test_jsonl_and_csv(self, tmp_path):
        vol, lab = make_balanced_case(size=16, seed=3)
        net = toy_net(seed=0)
        cfg = training.TrainConfig(epochs=2, lr=1e-3, seed=0)
        log = training.train(net, [(vol, lab)], cfg)
        log.save_jsonl(tmp_path / "log.jsonl")
        log.save_omega_csv(tmp_path / "omega.csv")
        lines = (tmp_path / "log.jsonl").read_text().splitlines()
        assert len(lines) == 2 + 12  # 2 steps + 6 units x 2 epochs
        csv = (tmp_path / "omega.csv").read_text().splitlines()
        assert csv[0] == "epoch,unit,w1,w2,w3"
        assert len(csv) == 1 + 12

    @pytest.mark.parametrize("rates", [(1, 2), (1, 2, 3, 4)], ids=["2-rates", "4-rates"])
    def test_one_weight_column_per_rate(self, tmp_path, rates):
        vol, lab = make_balanced_case(size=16, seed=3)
        net = network.build_network(network.toy_config(dilation_rates=rates), seed=0)
        log = training.train(net, [(vol, lab)], training.TrainConfig(epochs=1, seed=0))
        log.save_omega_csv(tmp_path / "omega.csv")
        weights = [f"w{i + 1}" for i in range(len(rates))]
        assert [list(rec)[2:] for rec in log.omega] == [weights] * 6
        csv = (tmp_path / "omega.csv").read_text().splitlines()
        assert csv[0] == ",".join(["epoch", "unit"] + weights)
        assert [len(row.split(",")) for row in csv[1:]] == [2 + len(rates)] * 6


# the cfg of a stand-in net whose volumes network.segment pads to a multiple of 1
_NO_PADDING = SimpleNamespace(downsample_factor=1)


class TestEvaluate:
    def test_ground_truth_against_itself(self):
        """Logits crafted from the labels give dice 1 everywhere."""
        from dmfnet import losses

        class Oracle:
            dtype = np.float32
            cfg = _NO_PADDING

            def forward(self, x, mode="eval"):
                return self._logits

        vol, lab = make_balanced_case(size=16, seed=3)
        net = Oracle()
        net._logits = losses.one_hot(lab[None]).astype(np.float32) * 10
        records, means = training.evaluate(net, [(vol, lab)])
        assert means == {"dice_et": 1.0, "dice_wt": 1.0, "dice_tc": 1.0}
        assert records[0]["case_id"] == "case000"

    def test_all_background_scores_zero_on_nonempty(self):
        class Background:
            dtype = np.float32
            cfg = _NO_PADDING

            def forward(self, x, mode="eval"):
                logits = np.zeros((1, 4) + x.shape[2:], dtype=np.float32)
                logits[:, 0] = 10.0
                return logits

        vol, lab = make_balanced_case(size=16, seed=3)
        records, means = training.evaluate(Background(), [(vol, lab)])
        assert means == {"dice_et": 0.0, "dice_wt": 0.0, "dice_tc": 0.0}

    def test_mean_is_arithmetic_mean(self):
        class Alternating:
            dtype = np.float32
            cfg = _NO_PADDING

            def __init__(self):
                self.calls = 0

            def forward(self, x, mode="eval"):
                logits = np.zeros((1, 4) + x.shape[2:], dtype=np.float32)
                logits[:, 0 if self.calls else 3] = 10.0
                self.calls += 1
                return logits

        lab_et = np.full((8, 8, 8), 4, dtype=np.uint8)
        vol = np.zeros((4, 8, 8, 8), dtype=np.float32)
        dataset = [(vol, lab_et), (vol, lab_et)]
        records, means = training.evaluate(Alternating(), dataset)
        per_case = [rec["dice_et"] for rec in records]
        assert means["dice_et"] == pytest.approx(sum(per_case) / 2)
        assert per_case == [1.0, 0.0]
