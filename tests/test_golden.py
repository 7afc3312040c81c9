"""Golden digests: the sha256 of a run's deterministic artifacts and of four
trained models' parameter blobs, pinned across code versions.

A rerun of the same code is byte-identical (``TestCriterion10``); these
digests also pin the bytes against earlier versions of the code, so a change
meant to be a pure refactor or speed-up that moves one float fails here. The
digests were recorded with numpy 2.4 on OpenBLAS 0.3.31 (x86-64) and hold
only under the BLAS kernels they were checked on. That OpenBLAS build picks
its kernel per CPU: the SkylakeX and Haswell kernels gave the same logits,
but under the Sandybridge kernel the gaussian, csv, dp_workers2, static_k2
and strict games fail on ``neighborhood_diagnostics.csv``. Another BLAS
build may round matrix products differently too. Each game pins its scores,
metrics and neighbourhood diagnostics, the poison plan (replica counts, split
bits and the cache keys of the shadow models), the targets' accuracies in
``model_stats.csv`` and the pool's ``dataset.bin`` blob. Besides the
batched adaptive game, ``GAME_ARGS`` pins the per-point strict game and the
static baseline, which takes its replica counts as an input, and a
``kind: csv`` game, whose pool is read from a CSV written from a seeded
gaussian mixture and doubles as its evaluation data. The tiny games
all train without weight decay, so ``MODELS`` adds four models trained
directly with ``nncore.train``: one with weight decay, two hidden layers and
a ragged last batch; one with DP-SGD noise; one with DP-SGD noise, two hidden
layers and a ragged last batch; and one whose every step is a single batch
shorter than ``batch_size``. Each model pins its ``save_model`` blob and its
manifest. ``ABLATION`` pins the ``ablation.csv`` of a two-value ``t_nb``
ablation of the gaussian game. After an intended output change,
``PYTHONPATH=src python tests/test_golden.py`` prints each pin that moved, as
``name file old -> new``, and the number of pins that did not.
"""

import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

from milab import nncore
from milab.datagen import gen_gaussian_mixture
from milab.harness import config as hc
from milab.harness import runner as hr
from milab.nncore import DpConfig, TrainConfig
from milab.poisoner import PoisonConfig

CHECKED = ("scores.csv", "metrics.csv", "neighborhood_diagnostics.csv",
           "poison_plan.json", "model_stats.csv", "dataset.bin")


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
                    num_challenge_points=4, eval_size=39),
    "dp_workers2": _tiny(train=TrainConfig(epochs=6, learning_rate=0.1, batch_size=16,
                                           dp=DpConfig(clip_norm=2.0, noise_multiplier=0.5)),
                         workers=2),
    "strict": _tiny(),
    # At this seed the adaptive loop stops short of 2 on two points, so the
    # static game's targets differ from an adaptive run's.
    "static_k2": _tiny(master_seed=4),
    # ``run_digests`` writes the CSV into the run directory first.
    "csv": _tiny(dataset=hc.DatasetConfig(kind="csv", csv_path="pool.csv")),
}

# Keyword arguments of ``run_privacy_game`` beyond the config: the per-point
# strict game takes its own poison path, and the static baseline takes its
# replica counts as an input.
GAME_ARGS = {
    "strict": {"game_strict": True},
    "static_k2": {"replica_counts": np.full(CONFIGS["static_k2"].num_challenge_points, 2)},
}

GOLDEN = {
    "gaussian": {
        "scores.csv": "16d5a319cfd588753c1715c0354d9d8cff0ac69bb9bd7153c20536eb0ea50443",
        "metrics.csv": "91b69930d4cada2bca748947504838f97b98f764b5638f58631c0e622d2daeaa",
        "neighborhood_diagnostics.csv": "dbe9047866a5aa4c233a22dddf40f7205b24fb49723c61acec50d549c917a389",
        "poison_plan.json": "5785400c54955466ada4bdbfa3d700838089b2ad4b294cae76345a0793d5c70b",
        "model_stats.csv": "c34ac32d2956f2747e6e43a9940352cfd9b0720a9bc28780345250be1c0c6050",
        "dataset.bin": "e8a8f50db47bf4143e6a51114e6cb4bcc93b55c7fb0e914f7167adb746893a9a",
    },
    "binary": {
        "scores.csv": "12ff8c0c5dca0ffc12c01fb8dad84793ec048bb792123aa9648b5d73925e58e7",
        "metrics.csv": "8fb03a8044f2240dcdc47422ca4ded0467e34559ae0100a1a48c656877a6955e",
        "neighborhood_diagnostics.csv": "b4e32b761ad968d73686939d61f4f75d006bd54e2ccc1c666c00df79a1a4e25e",
        "poison_plan.json": "d376771a0619ea83744ee55bf7376ec493d9e5890a1b5b76a80da687623d0681",
        "model_stats.csv": "69c6532a8bcd066a837ec28cec14099821e41ee8a63cb07efee15bd34e7d887e",
        "dataset.bin": "eddf67b6b5a3beb1f3f2d049e797c935d4821a3bd20471e0913511c368adfa87",
    },
    "dp_workers2": {
        "scores.csv": "05f0af6d30bfffe8ecbc82d4f708a121c97a2e008daf4c50de50b9b23e680b53",
        "metrics.csv": "30c27fd1391ef095474cf4b8043e3592193d4f4e92f68b9606bee50c99de1ed7",
        "neighborhood_diagnostics.csv": "80b56ea0096a64d44ace8044c770d95e22b3aed729bfa81ff4262970c2dc3c24",
        "poison_plan.json": "4fec053acd3ae3c515bfdfcc92d1b88fb5aba61d1fad7838f652ddce20efc3b5",
        "model_stats.csv": "f84c9259f3733be34becfc41c62420ffe9b59e14589f895aa8eab7852f82448a",
        "dataset.bin": "e8a8f50db47bf4143e6a51114e6cb4bcc93b55c7fb0e914f7167adb746893a9a",
    },
    "strict": {
        "scores.csv": "f009e873705f7e6566cd6a9f9c30b60eda1d06c025cbd3d6cabb216389bf12c6",
        "metrics.csv": "ac1a066dceb789f0ac850408df6a898a20cf485128c267968357324de2e36199",
        "neighborhood_diagnostics.csv": "c5cc855c024432c98a01e79f7ab6c9109c6f015a5d44be70d32d1c2ac54ba6c0",
        "poison_plan.json": "1833a6f322f04a3130dd7c524bb73722aaf25759cead5b472c356ef6bbb5a17c",
        "model_stats.csv": "49585c34c7560cdde57611fd2865e87e310d3c74af87b94bdb9d4f1a903eeffc",
        "dataset.bin": "e8a8f50db47bf4143e6a51114e6cb4bcc93b55c7fb0e914f7167adb746893a9a",
    },
    "static_k2": {
        "scores.csv": "c1dd687decd2d2b830e5ab1307a07ff923a5a10e597216730b492a2b444ec1ab",
        "metrics.csv": "7e54d9950af3b2cd4e06eadb417c54de78b638133e51eec42c2dc8b6430ba79c",
        "neighborhood_diagnostics.csv": "cad53703a7388516659ea166f07ef468b5faaffdf0fead3880c57668993ee112",
        "poison_plan.json": "8320ac41c23341d6ed9f86993b75bc87a8048ca500ad6fd4ff8fe28f42a5cb28",
        "model_stats.csv": "6fafef6457d7e69c8607c3198d1deb370216221fb6c4c941dee82bf4cab5aff1",
        "dataset.bin": "648f44dcb0d9115e53b45ae00697d121b7816bc08f6a9cc97bed332c0ced7351",
    },
    "csv": {
        "scores.csv": "43266a220f0a4807d75625f14e70c03f87c4c4cb32a500911924ae2384978fb0",
        "metrics.csv": "50327ff94b507d7ac4dd4429a65816dcdaf709aede931711e4b77ee96be3b095",
        "neighborhood_diagnostics.csv": "14af20984c2745bb40078d31b2a78dcadfa223b5aaa7f38daa81db339677746f",
        "poison_plan.json": "eab0053bbcaedf206549b4092e3d20eaf35e0d2065e43306808007bfe83d5991",
        "model_stats.csv": "08409b3f362b48a3d149b5a831c75f38abc64ea84434d6731ecea6ebdb9016d0",
        "dataset.bin": "f34f995c7ae1438c6f3d4b2b2b816b683602e465a4b63efafcfe325256787771",
    },
}


# (dataset seed, hidden sizes, training config). 44 points in batches of 16
# leave a last batch of 12; in batches of 64 every step is that short batch.
MODELS = {
    "decay_ragged": (5, (16, 8), TrainConfig(epochs=6, learning_rate=0.1, weight_decay=1e-4,
                                             batch_size=16, seed=7)),
    "dp_noise": (6, (16,), TrainConfig(epochs=5, learning_rate=0.1, weight_decay=1e-3,
                                       batch_size=16, seed=8,
                                       dp=DpConfig(clip_norm=1.0, noise_multiplier=0.5))),
    "dp_deep": (7, (16, 8), TrainConfig(epochs=5, learning_rate=0.1, weight_decay=1e-3,
                                        batch_size=16, seed=9,
                                        dp=DpConfig(clip_norm=1.0, noise_multiplier=0.5))),
    "one_batch": (8, (16,), TrainConfig(epochs=6, learning_rate=0.1, weight_decay=1e-4,
                                        batch_size=64, seed=10)),
}

GOLDEN_MODELS = {
    "decay_ragged": {
        "bin": "d443d4709de42958384e3f4473b3027f70d7cf41d0b8cabd8c50b21c2c4f9b6a",
        "json": "92bf701c747346ca18f0220acf228306f6e9d9a26e20f820638d1da6bf8644da",
    },
    "dp_noise": {
        "bin": "3e04d473fa090254b89349ea003121352142cd9d70c0365813ac23194a3bfce7",
        "json": "2f28662a92b5bb2153e7093a6e9dbcb7d41fc6722f6a8a694be3c3ff96273e5d",
    },
    "dp_deep": {
        "bin": "62eb1cada5ea4f77af9e5f18769773aa23e2efe6e6a576f78adb8b97f497dfab",
        "json": "64f3477f28ec3d41c614b5ea9d1ac0749e113a1a36b5b61cca3b8d45d3dcbcd8",
    },
    "one_batch": {
        "bin": "9293edc9b7099d98dc0500eb158de22556c46d98d12f51377e32e1736e152e60",
        "json": "8b5c1ae76f47da79818ee098171bcda2ff1aeae01ebc715de8b893dfef248e8a",
    },
}


# (knob, values) of the pinned ablation of ``_tiny()``, and its digest.
ABLATION = ("t_nb", [0.5, 2.0])
GOLDEN_ABLATION = "544a97bded966d6d5d03a5bfc5de213834f203931ce5d3b1ed92d3d011026e49"


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def model_digest(name: str, out_dir: str) -> dict[str, str]:
    """sha256 of the ``save_model`` blob and manifest of the named model."""
    data_seed, hidden, cfg = MODELS[name]
    dataset = gen_gaussian_mixture(4, 8, 11, 2.0, seed=data_seed)
    stem = os.path.join(out_dir, name)
    nncore.save_model(nncore.train(dataset, cfg, hidden), stem)
    return {"bin": _sha256(stem + ".bin"), "json": _sha256(stem + ".json")}


def write_csv_pool(path: str) -> None:
    """A 40-point, 8-dimensional pool from a seeded gaussian mixture, each
    feature written as its ``repr`` so it reads back exactly."""
    ds = gen_gaussian_mixture(4, 8, 10, 2.0, seed=12)
    lines = [",".join([f"f{j}" for j in range(ds.dim)] + ["label"])]
    lines += [",".join([repr(float(v)) for v in x] + [str(y)])
              for x, y in zip(ds.features, ds.labels)]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def run_digests(name: str, out_dir: str) -> dict[str, str]:
    cfg = CONFIGS[name]
    if cfg.dataset.kind == "csv":
        path = os.path.join(out_dir, cfg.dataset.csv_path)
        write_csv_pool(path)
        cfg = replace(cfg, dataset=replace(cfg.dataset, csv_path=path))
    hr.run_privacy_game(cfg, out_dir, **GAME_ARGS.get(name, {}))
    return {file: _sha256(os.path.join(out_dir, file)) for file in CHECKED}


def ablation_digest(out_root: str) -> str:
    knob, values = ABLATION
    hr.run_ablation(_tiny(), knob, values, out_root)
    return _sha256(os.path.join(out_root, "ablation.csv"))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_recorded_digests(name, tmp_path):
    assert run_digests(name, str(tmp_path)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_trained_model_blobs_match_recorded_digests(name, tmp_path):
    assert model_digest(name, str(tmp_path)) == GOLDEN_MODELS[name]


def test_ablation_csv_matches_recorded_digest(tmp_path):
    assert ablation_digest(str(tmp_path)) == GOLDEN_ABLATION


def print_moved(name: str, pinned: dict[str, str], got: dict[str, str]) -> int:
    """Print each of ``name``'s pins that ``got`` moves, as ``name file old ->
    new``; return how many did not move."""
    moved = {file: new for file, new in got.items() if pinned.get(file) != new}
    for file, new in moved.items():
        print(f"{name} {file} {pinned.get(file)} -> {new}")
    return len(got) - len(moved)


if __name__ == "__main__":
    import logging
    import tempfile

    logging.getLogger("milab.metrics").setLevel(logging.ERROR)
    unchanged = 0
    for config in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            unchanged += print_moved(config, GOLDEN[config], run_digests(config, tmp))
    for model in sorted(MODELS):
        with tempfile.TemporaryDirectory() as tmp:
            unchanged += print_moved(model, GOLDEN_MODELS[model], model_digest(model, tmp))
    with tempfile.TemporaryDirectory() as tmp:
        unchanged += print_moved("ablation", {"ablation.csv": GOLDEN_ABLATION},
                                 {"ablation.csv": ablation_digest(tmp)})
    print(f"{unchanged} pins unchanged")
