"""Golden digests: the sha256 of a run's deterministic artifacts, pinned
across code versions.

A rerun of the same code is byte-identical (``TestCriterion10``); these
digests also pin the bytes against earlier versions of the code, so a change
meant to be a pure refactor or speed-up that moves one float fails here. The
digests were recorded with numpy 2.4 on OpenBLAS 0.3.31 (x86-64); another BLAS
build may round matrix products differently. After an intended output change,
``PYTHONPATH=src python tests/test_golden.py`` prints the new digests.
"""

import hashlib
import os

import pytest

from milab.harness import config as hc
from milab.harness import runner as hr
from milab.nncore import DpConfig, TrainConfig
from milab.poisoner import PoisonConfig

CHECKED = ("scores.csv", "metrics.csv", "neighborhood_diagnostics.csv")


def _tiny(**overrides) -> hc.ExperimentConfig:
    base = dict(
        dataset=hc.DatasetConfig(num_classes=4, dim=8, n_per_class=10),
        hidden_sizes=(16,),
        train=TrainConfig(epochs=8, learning_rate=0.1, batch_size=16),
        poison=PoisonConfig(t_p=0.15, m=2, k_max=2),
        neighborhood=hc.NeighborhoodConfig(size=4, pool_size=16),
        num_target_models=4,
        num_challenge_points=5,
        master_seed=3,
        eval_size=40,
    )
    base.update(overrides)
    return hc.ExperimentConfig(**base)


CONFIGS = {
    "gaussian": _tiny(),
    "binary": _tiny(dataset=hc.DatasetConfig(kind="binary", num_classes=3, dim=12,
                                             n_per_class=12),
                    neighborhood=hc.NeighborhoodConfig(size=8, pool_size=16),
                    num_challenge_points=4),
    "dp_workers2": _tiny(train=TrainConfig(epochs=6, learning_rate=0.1, batch_size=16,
                                           dp=DpConfig(clip_norm=2.0, noise_multiplier=0.5)),
                         workers=2),
}

GOLDEN = {
    "gaussian": {
        "scores.csv": "16d5a319cfd588753c1715c0354d9d8cff0ac69bb9bd7153c20536eb0ea50443",
        "metrics.csv": "91b69930d4cada2bca748947504838f97b98f764b5638f58631c0e622d2daeaa",
        "neighborhood_diagnostics.csv": "ceb67ecbdceb6a53edc324c83c5dd98523ee0fc6b1993e1a94d7eb69de15eecc",
    },
    "binary": {
        "scores.csv": "12ff8c0c5dca0ffc12c01fb8dad84793ec048bb792123aa9648b5d73925e58e7",
        "metrics.csv": "8fb03a8044f2240dcdc47422ca4ded0467e34559ae0100a1a48c656877a6955e",
        "neighborhood_diagnostics.csv": "a694b15462d8271b136cf4a5c2ac825482911e6baf6560126f56712c6cddc286",
    },
    "dp_workers2": {
        "scores.csv": "05f0af6d30bfffe8ecbc82d4f708a121c97a2e008daf4c50de50b9b23e680b53",
        "metrics.csv": "30c27fd1391ef095474cf4b8043e3592193d4f4e92f68b9606bee50c99de1ed7",
        "neighborhood_diagnostics.csv": "2ffe44b7ca69b45902a921253e24f954aeac450977a2d91dd36ac7e4594503d5",
    },
}


def run_digests(name: str, out_dir: str) -> dict[str, str]:
    hr.run_privacy_game(CONFIGS[name], out_dir)
    digests = {}
    for file in CHECKED:
        with open(os.path.join(out_dir, file), "rb") as f:
            digests[file] = hashlib.sha256(f.read()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_recorded_digests(name, tmp_path):
    assert run_digests(name, str(tmp_path)) == GOLDEN[name]


if __name__ == "__main__":
    import logging
    import tempfile

    logging.getLogger("milab.metrics").setLevel(logging.ERROR)
    for config in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            print(config, run_digests(config, tmp))
