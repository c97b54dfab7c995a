"""Every arch, train and augment config key, fed one fixed value at a time
through ``cli.main``: ``analyze --arch toy`` for an arch key, a one-step toy
``train`` on a 16^3 case for the others. Each case exits 0, exits 1 with
exactly one ``error:`` line, or exits 2 with argparse's usage line, and none
prints a traceback.

A value such as a huge width could allocate far more than a toy net, so the
table runs in one child process under a 2 GiB address-space cap
(``helpers.run_capped``).
"""

import dataclasses

from dmfnet import cli, data as dio, network, training

from helpers import ends_cleanly, run_capped
from oracles import make_tumor_case

TOY_ARCH = {"groups": 2, "stage_channels": [4, 8, 8, 8, 8, 8, 4]}
VALUES = [0, -1, 1, 2**31, 2**63, 10**400, 1e308, -1e308, 1e-308, 0.5, "x", None, True, [],
          [[]], {}, [0], [0, 0, 0], [2**63, 1, 1], [-1e308, 1e308], [1, 2, 3, 4, 5, 6, 7]]
ANALYZE = ["analyze", "--arch", "toy", "--input-shape", "1,4,16,16,16", "--config", "{config}"]
TRAIN = ["train", "--arch", "toy", "--config", "{config}", "--data-dir", "{data}",
         "--out-dir", "{out}"]
KEYS = {
    "arch": {"groups", "width_multiplier", "stage_channels", "dilated_unit_count",
             "dilation_rates", "weight_mode", "stem_stride"},
    "train": {"batch_size", "epochs", "lr", "weight_decay", "lr_schedule", "poly_power", "seed"},
    "augment": {"crop_size"},
}


def _cases():
    """(argv, config) for each key and value; a legal epochs above 2 is a long run, left out."""
    cases = []
    for section in cli.CONFIG_SECTIONS:
        for f in dataclasses.fields(cli.CONFIG_SECTIONS[section]):
            for value in VALUES:
                if f.name == "epochs" and type(value) is int and value > 2:
                    continue
                if section == "arch":
                    cases.append((ANALYZE, {"arch": {f.name: value}}))
                    continue
                config = {"arch": TOY_ARCH, "train": {"epochs": 1},
                          "augment": {"crop_size": [16, 16, 16]}}
                config[section] = {**config[section], f.name: value}
                cases.append((TRAIN, config))
    return cases


def test_config_keys_are_pinned():
    """Each section's keys, so that a new key is added here on purpose; the
    values that are not keys are class constants."""
    assert {section: {f.name for f in dataclasses.fields(cls)}
            for section, cls in cli.CONFIG_SECTIONS.items()} == KEYS
    assert network.ArchConfig().input_channels == len(dio.MODALITIES) == 4
    cfg = training.TrainConfig()
    assert (cfg.beta1, cfg.beta2, cfg.eps) == (0.9, 0.999, 1e-8)
    aug = dio.AugmentConfig()
    assert (aug.flip_prob, aug.rotate_degrees, aug.intensity_shift, aug.intensity_scale) == (
        0.5, (-10.0, 10.0), (-0.1, 0.1), (0.9, 1.1))


def test_every_config_value_ends_cleanly(tmp_path):
    vol, lab = make_tumor_case(size=16, seed=1)
    dio.save_case(tmp_path / "data" / "case_a", vol, lab)
    cases = _cases()
    outcomes = run_capped(cases, tmp_path)
    bad = [(case[1], out["code"], out["err"].strip().splitlines()[-1:])
           for case, out in zip(cases, outcomes) if not ends_cleanly(out)]
    assert not bad, bad
