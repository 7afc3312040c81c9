import csv
import hashlib
import json
import logging
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milab import BLAS_ENV, nncore
from milab.attack import CHAMELEON, GAP, LabelOnlyModel
from milab.datagen import gen_neighbors
from milab.harness import cache as hcache
from milab.harness import cli
from milab.harness import config as hc
from milab.harness import runner as hr
from milab.neighborhood import fit_kl, kl_text
from milab.nncore import DpConfig, TrainConfig
from milab.poisoner import PoisonConfig, TrainingSet
from milab.rng import derive_seed
from test_golden import CHECKED, CONFIGS, GOLDEN

logging.disable(logging.WARNING)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def broken_gen_neighbors(*args, **kwargs):
    raise RuntimeError("neighbour generation failed")


def tiny_config(**overrides) -> hc.ExperimentConfig:
    base = dict(
        dataset=hc.DatasetConfig(num_classes=4, dim=8, n_per_class=10, class_sep=2.5),
        hidden_sizes=(16,),
        train=TrainConfig(epochs=8, learning_rate=0.1, batch_size=16),
        poison=PoisonConfig(t_p=0.15, m=2, k_max=2),
        neighborhood=hc.NeighborhoodConfig(size=8, pool_size=16),
        num_target_models=4,
        num_challenge_points=3,
        master_seed=1,
        eval_size=40,
    )
    base.update(overrides)
    return hc.ExperimentConfig(**base)


class TestConfig:
    def test_round_trip_through_json(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.canonical_dict()))
        loaded = hc.load_config(str(path))
        assert loaded.canonical_dict() == cfg.canonical_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(hc.ConfigError):
            hc.config_from_dict({"bogus": 1})

    def test_bad_sections_rejected(self):
        with pytest.raises(hc.ConfigError):
            hc.config_from_dict({"dataset": {"kind": "images"}})
        with pytest.raises(hc.ConfigError):
            hc.config_from_dict({"num_target_models": 5})
        with pytest.raises(hc.ConfigError):
            hc.config_from_dict({"attacks": ["chameleon", "boundary"]})
        with pytest.raises(hc.ConfigError, match="expected an object"):
            hc.config_from_dict({"dataset": 5})
        for section in ({"size": 128, "pool_size": 64}, {"size": -1}, {"size": 0, "pool_size": 0}):
            with pytest.raises(hc.ConfigError, match="size >= 0, pool_size >= 1 and size <= "):
                hc.config_from_dict({"neighborhood": section})
        assert hc.config_from_dict({"neighborhood": {"size": 0}}).neighborhood.size == 0
        # A non-container train section or attacks value was a TypeError, and
        # a string's letters were read as attack names.
        for doc, message in (({"attacks": 5}, "must be a list"),
                             ({"attacks": "gap"}, "must be a list"),
                             ({"train": 5}, "expected an object")):
            with pytest.raises(hc.ConfigError, match=message):
                hc.config_from_dict(doc)
        # A float field takes an int, and null where it may be None. It must
        # be finite, but every KL value is, so a large t_nb admits every
        # candidate as Infinity would.
        cfg = hc.config_from_dict({"dataset": {"class_sep": 3},
                                   "neighborhood": {"noise_scale": None, "t_nb": 1e300}})
        assert (cfg.dataset.class_sep, cfg.neighborhood.noise_scale,
                cfg.neighborhood.t_nb) == (3, None, 1e300)

    @pytest.mark.parametrize("doc", [
        {"neighborhood": {"size": 2.5}},
        {"num_target_models": 2.0},
        {"poison": {"k_max": 0.5}},
        {"train": {"epochs": 1.5, "learning_rate": 0.1}},
        {"workers": 1.5},
        {"num_challenge_points": True},
        {"dataset": {"dim": "16"}},
        {"hidden_sizes": [-1]},
        {"hidden_sizes": [0]},
        {"hidden_sizes": [8, 2.0]},
        {"hidden_sizes": 128},
    ])
    def test_non_integer_counts_rejected(self, doc):
        # Each passed validation once and failed mid-game, or ran with a
        # zero-width layer.
        with pytest.raises(hc.ConfigError, match="int"):
            hc.config_from_dict(doc)

    def test_non_integer_count_is_a_config_error_on_the_cli(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "run"
        for doc in ({"neighborhood": {"size": 2.5}}, {"hidden_sizes": [0]}):
            cfg_path.write_text(json.dumps(doc))
            assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
            assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"attacks": 5},
        {"attacks": "gap"},
        {"train": 5},
        {"neighborhood": {"t_nb": "x"}},
        {"dataset": {"class_sep": "2.5"}},
        {"dataset": {"class_sep": 0}},
        {"dataset": {"kind": "binary", "flip_noise": 0.7}},
        {"dataset": {"kind": "binary", "dim": 0}},
        {"dataset": {"num_classes": 1}},
        {"neighborhood": {"noise_scale": 0}},
        {"train": {"epochs": 2, "learning_rate": float("inf")}},
        {"neighborhood": {"t_nb": float("nan")}},
        {"train": {"epochs": 2, "learning_rate": 0.1, "dp": {}}},
        {"dataset": {"class_sep": 10**400}},
        {"workers": 0},
        {"eval_size": 0},
        {"train": {"epochs": 2, "learning_rate": 0.1, "seed": 3}},
    ])
    def test_bad_value_is_a_config_error_on_the_cli(self, doc, tmp_path):
        # All but the string attacks used to exit 2, some after the poison
        # stage had run and left the run directory behind. json.dumps writes
        # a non-finite float as Infinity or NaN, which json.load accepts; a
        # non-finite learning rate failed in the poison stage, a NaN t_nb
        # admitted no candidate, "dp": {} ran without DP, and an integer
        # too large for a float failed the dataset stage.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert not out.exists()

    def test_train_seed_and_workers_flag_below_one_are_config_errors(self, tmp_path):
        # A train.seed changed config_hash but no model; --workers 0 or -3
        # trained serially.
        with pytest.raises(hc.ConfigError, match="master_seed"):
            hc.config_from_dict({"train": {"epochs": 2, "learning_rate": 0.1, "seed": 3}})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config().canonical_dict()))
        out = tmp_path / "run"
        for workers in ("0", "-3"):
            assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                             "--workers", workers]) == 1
            assert not out.exists()

    def test_binary_noise_scale_is_below_one(self, tmp_path):
        # A binary candidate flips each bit with probability noise_scale, so
        # at 1 or more every candidate was the point's complement.
        binary = {"kind": "binary", "num_classes": 2, "dim": 8}
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "run"
        for scale in (1.0, 1.5):
            doc = {"dataset": binary, "neighborhood": {"noise_scale": scale}}
            with pytest.raises(hc.ConfigError, match="bit-flip probability"):
                hc.config_from_dict(doc)
            cfg_path.write_text(json.dumps(doc))
            assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
            assert not out.exists()
        doc = {"dataset": binary, "neighborhood": {"noise_scale": 0.999}}
        assert hc.config_from_dict(doc).neighborhood.noise_scale == 0.999
        # A gaussian noise_scale is a jitter scale, with no upper bound.
        assert hc.config_from_dict({"neighborhood": {"noise_scale": 1.5}})

    def test_dp_section_parsed(self):
        cfg = hc.config_from_dict({
            "train": {"epochs": 2, "learning_rate": 0.1,
                      "dp": {"clip_norm": 5.0, "noise_multiplier": 0.5}}})
        assert cfg.train.dp.clip_norm == 5.0
        train = {"epochs": 2, "learning_rate": 0.1}
        assert hc.config_from_dict({"train": {**train, "dp": None}}).train.dp is None
        # Falsy non-objects once meant "no DP" too.
        for dp in (False, 0, [], {}):
            with pytest.raises(hc.ConfigError, match="train.dp section"):
                hc.config_from_dict({"train": {**train, "dp": dp}})

    def test_paper_scale(self):
        cfg = tiny_config().paper_scale()
        assert (cfg.num_challenge_points, cfg.num_target_models) == (500, 64)
        assert cfg.dataset.n_per_class == 250  # 4 classes, a 1000-point pool

    def test_paper_scale_flag_loads_the_example_config(self, tmp_path):
        args = cli.build_parser().parse_args(
            ["run", "--config", os.path.join(ROOT, "example_config.json"),
             "--out", str(tmp_path / "run"), "--paper-scale"])
        cfg = cli._load_cfg(args)
        assert (cfg.num_challenge_points, cfg.dataset.n_per_class) == (500, 100)
        assert tiny_config(dataset=hc.DatasetConfig(num_classes=7), eval_size=42) \
            .paper_scale().dataset.n_per_class == 143

    def test_more_challenge_points_than_pool_points_rejected(self, tmp_path):
        with pytest.raises(hc.ConfigError):
            tiny_config(num_challenge_points=41)  # 4 classes x 10 points
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"num_challenge_points": 401}))
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert not out.exists()

    def test_gaussian_dim_below_class_count_rejected(self, tmp_path):
        with pytest.raises(hc.ConfigError):
            tiny_config(dataset=hc.DatasetConfig(num_classes=4, dim=3))
        hc.DatasetConfig(kind="binary", num_classes=4, dim=3)  # no axis layout
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset": {"num_classes": 10, "dim": 8}}))
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert not out.exists()

    def test_empty_or_repeated_attacks_rejected(self, tmp_path):
        for attacks in ((), (GAP, GAP)):
            with pytest.raises(hc.ConfigError, match="non-empty and distinct"):
                tiny_config(attacks=attacks)
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "run"
        for attacks in ([], [CHAMELEON, GAP, CHAMELEON]):
            cfg_path.write_text(json.dumps({"attacks": attacks}))
            assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
            assert not out.exists()

    @pytest.mark.parametrize("doc, section", [
        ({"dataset": {"classes": 4}}, "dataset"),
        ({"train": {"epochs": 2, "learning_rate": 0.1, "lr": 0.1}}, "train"),
        ({"train": {"epochs": 2, "learning_rate": 0.1, "dp": {"clip": 1.0}}}, "train.dp"),
        ({"poison": {"tp": 0.1}}, "poison"),
        ({"neighborhood": {"t": 0.5}}, "neighborhood"),
        ({"seed": 3}, "config"),
    ])
    def test_unknown_key_names_its_section(self, doc, section):
        with pytest.raises(hc.ConfigError, match=rf"^unknown {section} keys: \['"):
            hc.config_from_dict(doc)

    def test_text_fields_must_be_strings(self):
        # An int csv_path was opened as a file descriptor.
        for dataset, field in (({"kind": "csv", "csv_path": 3}, "csv_path"),
                               ({"kind": 5}, "kind")):
            with pytest.raises(hc.ConfigError, match=f"{field} must be a string"):
                hc.config_from_dict({"dataset": dataset})

    def test_train_seed_is_checked_on_a_config_built_in_python(self):
        with pytest.raises(hc.ConfigError, match="master_seed"):
            hc.ExperimentConfig(train=TrainConfig(epochs=1, learning_rate=0.1, seed=3))

    def test_round_trip_of_nested_and_list_fields(self):
        cfg = tiny_config(
            hidden_sizes=(16, 8), attacks=(GAP,),
            train=TrainConfig(epochs=2, learning_rate=0.1,
                              dp=DpConfig(clip_norm=2.0, noise_multiplier=0.5)),
            neighborhood=hc.NeighborhoodConfig(size=4, pool_size=8, noise_scale=0.3))
        loaded = hc.config_from_dict(json.loads(json.dumps(cfg.canonical_dict())))
        assert loaded == cfg

    def test_eval_size_is_a_multiple_of_the_class_count(self):
        with pytest.raises(hc.ConfigError, match="multiple of num_classes"):
            tiny_config(eval_size=42)  # 4 classes
        # A CSV pool doubles as the eval set, so its eval_size is not used.
        tiny_config(dataset=hc.DatasetConfig(kind="csv", csv_path="pool.csv"), eval_size=42)

    def test_importing_the_config_loads_no_runner(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, milab.harness.config; "
             "print('milab.harness.runner' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.stdout.strip() == "False", proc.stderr

    def test_workers_excluded_from_canonical_form(self):
        a = tiny_config(workers=1)
        b = tiny_config(workers=4)
        assert a.canonical_dict() == b.canonical_dict()


def whole(ds) -> TrainingSet:
    """The recipe of ``ds`` itself: all of its rows and no copies."""
    return TrainingSet(ds, None, np.empty((0, ds.dim)), [], [])


class TestModelCache:
    def test_cache_returns_identical_model(self, tmp_path):
        from milab.datagen import gen_gaussian_mixture

        ds = whole(gen_gaussian_mixture(3, 6, 10, 2.0, seed=0))
        cache = hcache.ModelCache(str(tmp_path))
        trainer = hr.TrainerPool(TrainConfig(epochs=4, learning_rate=0.1, batch_size=8),
                                 (8,), cache)
        first = trainer.many([(ds, 7)])[0]
        again, _ = trainer.many([(ds, 7), (ds, 8)])
        counts = cache.counts()
        assert (counts["cache_hits"], counts["cache_misses"]) == (1, 2)
        assert trainer.keys[0] == trainer.keys[1] != trainer.keys[2]
        assert first.dims == again.dims and np.array_equal(first.flat, again.flat)

    def test_key_sensitive_to_inputs(self, tmp_path):
        from milab.datagen import gen_gaussian_mixture

        ds = whole(gen_gaussian_mixture(3, 6, 10, 2.0, seed=0))
        cache = hcache.ModelCache(str(tmp_path))
        cfg = TrainConfig(epochs=4, learning_rate=0.1, batch_size=8, seed=7)
        base = cache.model_key(ds, cfg, (8,))
        assert cache.model_key(ds, replace(cfg, seed=8), (8,)) != base
        assert cache.model_key(ds, cfg, (9,)) != base
        other = whole(gen_gaussian_mixture(3, 6, 10, 2.0, seed=1))
        assert cache.model_key(other, cfg, (8,)) != base

    def test_dataset_digest_hashes_the_saved_blob(self, tmp_path):
        from milab.datagen import gen_binary_tabular, save_dataset

        ds = gen_binary_tabular(3, 8, 5, 0.1, seed=2)
        save_dataset(ds, str(tmp_path / "data"))
        blob = (tmp_path / "data.bin").read_bytes()
        assert hcache.dataset_digest(ds) == hashlib.sha256(blob + b"3").hexdigest()

    def test_every_manifest_carries_its_config_hash(self, tmp_path):
        cfg = tiny_config(num_challenge_points=2)
        cache = tmp_path / "cache"
        hr.run_privacy_game(cfg, str(tmp_path / "adaptive"), cache_dir=str(cache))
        hr.run_privacy_game(cfg, str(tmp_path / "strict"), cache_dir=str(cache),
                            game_strict=True)
        manifests = sorted((cache / "models").glob("*.json"))
        assert manifests
        for path in manifests:
            doc = json.loads(path.read_text())
            train_cfg = replace(cfg.train, seed=doc["seed"])
            assert doc["config_hash"] == hcache.digest(hcache.train_config_dict(train_cfg)), \
                path.name

    def test_damaged_entry_is_retrained(self, tmp_path, caplog):
        cfg = tiny_config()
        cache = tmp_path / "cache"
        hr.run_privacy_game(cfg, str(tmp_path / "a"), cache_dir=str(cache))
        blob = sorted((cache / "models").glob("*.bin"))[0]
        blob.write_bytes(blob.read_bytes()[:100])
        logging.disable(logging.NOTSET)
        try:
            with caplog.at_level(logging.WARNING, logger="milab.harness.cache"):
                rerun = hr.run_privacy_game(cfg, str(tmp_path / "b"), cache_dir=str(cache))
        finally:
            logging.disable(logging.WARNING)
        assert (rerun.cost["cache_misses"], rerun.cost["cache_corrupt"]) == (1, 1)
        assert json.loads((tmp_path / "b" / "cost.json").read_text())["cache_corrupt"] == 1
        assert blob.stem in caplog.text
        assert ((tmp_path / "a" / "scores.csv").read_bytes()
                == (tmp_path / "b" / "scores.csv").read_bytes())
        third = hr.run_privacy_game(cfg, str(tmp_path / "c"), cache_dir=str(cache))
        assert (third.cost["cache_misses"], third.cost["cache_corrupt"]) == (0, 0)

    def test_same_size_damage_is_retrained(self, tmp_path, caplog):
        # Negating every float keeps each blob's size, so only the checksum
        # in the manifest can tell.
        cfg = tiny_config()
        cache = tmp_path / "cache"
        first = hr.run_privacy_game(cfg, str(tmp_path / "a"), cache_dir=str(cache))
        blobs = sorted((cache / "models").glob("*.bin"))
        for blob in blobs:
            (-np.fromfile(blob, dtype="<f4")).tofile(blob)
        logging.disable(logging.NOTSET)
        try:
            with caplog.at_level(logging.WARNING, logger="milab.harness.cache"):
                rerun = hr.run_privacy_game(cfg, str(tmp_path / "b"), cache_dir=str(cache))
        finally:
            logging.disable(logging.WARNING)
        assert (first.cost["cache_hits"], first.cost["cache_corrupt"]) == (0, 0)
        assert ((rerun.cost["cache_hits"], rerun.cost["cache_misses"])
                == (0, first.cost["cache_misses"]))
        assert rerun.cost["cache_corrupt"] == len(blobs) == first.cost["cache_misses"]
        assert all(blob.stem in caplog.text for blob in blobs)
        assert ((tmp_path / "a" / "scores.csv").read_bytes()
                == (tmp_path / "b" / "scores.csv").read_bytes())
        third = hr.run_privacy_game(cfg, str(tmp_path / "c"), cache_dir=str(cache))
        assert (third.cost["cache_misses"], third.cost["cache_corrupt"]) == (0, 0)

    def test_manifest_without_checksum_is_retrained(self, tmp_path):
        # The same holds for a manifest that lost its dims.
        cfg = tiny_config(num_challenge_points=2)
        cache = tmp_path / "cache"
        hr.run_privacy_game(cfg, str(tmp_path / "a"), cache_dir=str(cache))
        manifest = sorted((cache / "models").glob("*.json"))[0]
        for key, size in (("sha256", 64), ("dims", 3)):
            doc = json.loads(manifest.read_text())
            assert len(doc.pop(key)) == size
            manifest.write_text(json.dumps(doc))
            rerun = hr.run_privacy_game(cfg, str(tmp_path / key), cache_dir=str(cache))
            assert rerun.cost["cache_misses"] == 1, key
            assert key in json.loads(manifest.read_text())
        assert not list((cache / "models").glob("*.tmp"))

    def test_non_object_manifest_is_retrained(self, tmp_path):
        # Valid JSON that is not an object: a list, a string, a number.
        cfg = tiny_config(num_challenge_points=2)
        cache = tmp_path / "cache"
        first = hr.run_privacy_game(cfg, str(tmp_path / "a"), cache_dir=str(cache))
        manifest = sorted((cache / "models").glob("*.json"))[0]
        manifest.write_text("[]")
        with pytest.raises(ValueError, match="not a milab-model-v1 manifest"):
            nncore.load_model(str(manifest.with_suffix("")))
        for i, text in enumerate(("[]", '"x"', "7")):
            manifest.write_text(text)
            rerun = hr.run_privacy_game(cfg, str(tmp_path / f"r{i}"), cache_dir=str(cache))
            assert (rerun.cost["cache_misses"], rerun.cost["cache_corrupt"]) == (1, 1), text
            assert ((tmp_path / "a" / "scores.csv").read_bytes()
                    == (tmp_path / f"r{i}" / "scores.csv").read_bytes()), text
        assert first.cost["cache_corrupt"] == 0


def cache_counts(out_dir, kind: str) -> tuple[int, int, int]:
    """cost.json's hits, misses and corrupt count of one kind of cache entry."""
    cost = json.loads((out_dir / "cost.json").read_text())
    return tuple(cost[f"{kind}_cache_{count}"] for count in ("hits", "misses", "corrupt"))


def model_stats(out_dir) -> tuple[list[float], list[float]]:
    """model_stats.csv's train and eval accuracies, in target order."""
    with open(os.path.join(out_dir, "model_stats.csv"), encoding="utf-8",
              newline="") as f:
        rows = list(csv.DictReader(f))
    return ([float(row["train_accuracy"]) for row in rows],
            [float(row["eval_accuracy"]) for row in rows])


class TestKlCache:
    def test_warm_rerun_hits_every_point(self, tmp_path):
        cfg = tiny_config()
        cache = str(tmp_path / "cache")
        hr.run_privacy_game(cfg, str(tmp_path / "a"), cache_dir=cache)
        hr.run_privacy_game(cfg, str(tmp_path / "b"), cache_dir=cache)
        points = cfg.num_challenge_points
        assert cache_counts(tmp_path / "a", "kl") == (0, points, 0)
        assert cache_counts(tmp_path / "b", "kl") == (points, 0, 0)
        assert len(list((tmp_path / "cache" / "neighborhoods").glob("*.bin"))) == points
        for name in CONTRACT_FILES:
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_damaged_entry_is_refitted(self, tmp_path, caplog):
        cfg = tiny_config()
        cache = tmp_path / "cache"
        hr.run_privacy_game(cfg, str(tmp_path / "a"), cache_dir=str(cache))
        reference = (tmp_path / "a" / "neighborhood_diagnostics.csv").read_bytes()
        blob = sorted((cache / "neighborhoods").glob("*.bin"))[0]
        manifest = blob.with_suffix(".json")
        good_blob, good_manifest = blob.read_bytes(), manifest.read_text()
        doc = json.loads(good_manifest)
        fit_bytes = 8 * doc["shape"][0] * doc["shape"][1]
        pool_end = fit_bytes + 4 * doc["shape"][1] * doc["dim"]
        floats, pool = good_blob[:fit_bytes], good_blob[fit_bytes:pool_end]
        text = good_blob[pool_end:]
        rows = text.split(b"\n")  # the last item is the empty rest

        def with_checksum(data):
            """Write ``data`` with a manifest whose checksum matches it."""
            blob.write_bytes(data)
            manifest.write_text(json.dumps({**doc, "sha256": hashlib.sha256(data).hexdigest()}))

        damages = {
            "truncated blob": lambda: blob.write_bytes(good_blob[:100]),
            # Negating every float keeps the size; only the checksum can tell.
            "same-size floats": lambda: blob.write_bytes(
                (-np.frombuffer(floats, "<f8")).tobytes() + pool + text),
            # So does negating the pool.
            "same-size pool": lambda: blob.write_bytes(
                floats + (-np.frombuffer(pool, "<f4")).tobytes() + text),
            # So does swapping the first and last printed rows.
            "same-size text": lambda: blob.write_bytes(
                floats + pool + b"\n".join([rows[-2], *rows[1:-2], rows[0], b""])),
            "non-object manifest": lambda: manifest.write_text("[]"),
            "unreadable manifest": lambda: manifest.write_text("{"),
            "wrong shape": lambda: manifest.write_text(json.dumps(
                {**doc, "shape": doc["shape"][::-1]})),
            "wrong dim": lambda: manifest.write_text(json.dumps(
                {**doc, "dim": doc["dim"] + 1})),
            # A pool one float short, a blob one printed row short, then one
            # cut inside its last row, each with a manifest checksum that
            # matches it.
            "short pool": lambda: with_checksum(floats + pool[:-4] + text),
            "short text": lambda: with_checksum(
                floats + pool + text[:text.rindex(b"\n", 0, -1) + 1]),
            "short blob": lambda: with_checksum(good_blob[:-16]),
            "non-ascii text": lambda: with_checksum(floats + pool + b"\xff" + text[1:]),
        }
        for name, damage in damages.items():
            damage()
            out = tmp_path / name.replace(" ", "_")
            logging.disable(logging.NOTSET)
            try:
                with caplog.at_level(logging.WARNING, logger="milab.harness.cache"):
                    hr.run_privacy_game(cfg, str(out), cache_dir=str(cache))
            finally:
                logging.disable(logging.WARNING)
            assert cache_counts(out, "kl") == (cfg.num_challenge_points - 1, 1, 1), name
            assert blob.stem in caplog.text, name
            caplog.clear()
            assert (out / "neighborhood_diagnostics.csv").read_bytes() == reference, name
            # The refit overwrote the entry with the original bytes.
            assert (blob.read_bytes(), manifest.read_text()) == (good_blob, good_manifest), name
        assert not list((cache / "neighborhoods").glob("*.tmp"))

    def test_size_ablation_refits_nothing(self, tmp_path):
        # Neither the pool nor the shadow models depend on the size.
        cfg = tiny_config()
        hr.run_ablation(cfg, "neighborhood_size", [4, 8], str(tmp_path / "ab"))
        points = cfg.num_challenge_points
        assert cache_counts(tmp_path / "ab" / "neighborhood_size_4", "kl") == (0, points, 0)
        assert cache_counts(tmp_path / "ab" / "neighborhood_size_8", "kl") == (points, 0, 0)

    def test_key_sensitive_to_model_order_and_pool(self, tmp_path):
        # The pool enters the key through its recipe: each field, the label,
        # the point and the IN/OUT order each change the key.
        x = np.random.default_rng(0).normal(size=3)
        recipe = {"modality": "continuous", "pool_size": 5, "noise_scale": 0.15,
                  "seed": 7}
        in_digests, out_digests = ["a" * 64, "b" * 64], ["c" * 64, "d" * 64]
        base = hcache.kl_key(x, 1, recipe, in_digests, out_digests)
        moved = x.copy()
        moved[2] = np.nextafter(moved[2], np.inf)
        others = [hcache.kl_key(x, 1, recipe, out_digests, in_digests),
                  hcache.kl_key(x, 1, recipe, in_digests[::-1], out_digests),
                  hcache.kl_key(moved, 1, recipe, in_digests, out_digests),
                  hcache.kl_key(x, 2, recipe, in_digests, out_digests)]
        for field, value in (("seed", 8), ("noise_scale", np.nextafter(0.15, 1.0)),
                             ("modality", "binary"), ("pool_size", 6)):
            others.append(hcache.kl_key(x, 1, {**recipe, field: value},
                                        in_digests, out_digests))
        assert len({base, *others}) == 1 + len(others)
        cache = hcache.ModelCache(str(tmp_path))
        gen = np.random.default_rng(1)
        kl, pool = gen.uniform(size=(2, 5)), gen.normal(size=(5, 3))
        cache.put_kl(base, kl, pool, kl_text(kl))
        assert all(cache.get_kl(key, 5, 3) is None for key in others)
        assert cache.get_kl(base, 5, 3)[0].tobytes() == kl.tobytes()
        counts = cache.counts()
        assert (counts["kl_cache_hits"], counts["kl_cache_misses"]) == (1, len(others))

    def test_cached_pool_is_the_rounded_fresh_pool(self, tmp_path):
        # Each entry's pool equals its point's gen_neighbors pool rounded to
        # float32, bit for bit, so a warm game selects from the cold pool.
        cfg = tiny_config()
        hr.run_privacy_game(cfg, str(tmp_path / "a"), cache_dir=str(tmp_path / "cache"))
        pool, _ = hr._make_datasets(cfg)
        challenges = hr._pick_challenges(cfg, pool)
        noise = cfg.neighborhood.resolved_noise_scale(cfg.dataset.modality)
        fresh = [gen_neighbors(x, cfg.dataset.modality, cfg.neighborhood.pool_size, noise,
                               derive_seed(cfg.master_seed, hr.TAG_NEIGHBOR, pos))
                 .astype(np.float32).astype(np.float64).tobytes()
                 for pos, x in enumerate(challenges.features)]
        cached = [hcache._load_kl(str(stem.with_suffix("")), cfg.neighborhood.pool_size,
                                  cfg.dataset.dim)[1].tobytes()
                  for stem in (tmp_path / "cache" / "neighborhoods").glob("*.bin")]
        assert sorted(cached) == sorted(fresh)

    def test_warm_game_generates_no_candidates(self, tmp_path, monkeypatch):
        calls = []

        def counting_gen_neighbors(*args, **kwargs):
            calls.append(args)
            return gen_neighbors(*args, **kwargs)

        monkeypatch.setattr(hr, "gen_neighbors", counting_gen_neighbors)
        cfg = tiny_config()
        cache = str(tmp_path / "cache")
        hr.run_privacy_game(cfg, str(tmp_path / "a"), cache_dir=cache)
        assert len(calls) == cfg.num_challenge_points
        hr.run_privacy_game(cfg, str(tmp_path / "b"), cache_dir=cache)
        assert len(calls) == cfg.num_challenge_points
        name = "neighborhood_diagnostics.csv"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_params_digest_reads_every_parameter(self):
        model = nncore.init_params(3, (4,), 2, seed=0)
        flat = model.flat.copy()
        flat[-1] = np.nextafter(flat[-1], np.float32(np.inf))
        changed = nncore.ModelParams(flat, model.dims)
        assert hcache.params_digest(model) != hcache.params_digest(changed)
        assert hcache.params_digest(model) == hcache.params_digest(
            nncore.ModelParams(model.flat.copy(), list(model.dims)))


class TestStatsCache:
    def test_warm_rerun_computes_no_accuracy(self, tmp_path, monkeypatch):
        accuracy, calls = nncore.accuracy, []

        def counting_accuracy(model, dataset):
            calls.append(len(dataset))
            return accuracy(model, dataset)

        monkeypatch.setattr(nncore, "accuracy", counting_accuracy)
        cfg = tiny_config()
        cache = str(tmp_path / "cache")
        targets = cfg.num_target_models
        hr.run_privacy_game(cfg, str(tmp_path / "a"), cache_dir=cache)
        assert cache_counts(tmp_path / "a", "stats") == (0, targets, 0)
        assert len(calls) == 2 * targets
        hr.run_privacy_game(cfg, str(tmp_path / "b"), cache_dir=cache)
        assert cache_counts(tmp_path / "b", "stats") == (targets, 0, 0)
        assert len(calls) == 2 * targets
        assert len(list((tmp_path / "cache" / "stats").glob("*.bin"))) == targets
        name = "model_stats.csv"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_damaged_entry_is_recomputed(self, tmp_path, caplog):
        cfg = tiny_config()
        cache = tmp_path / "cache"
        hr.run_privacy_game(cfg, str(tmp_path / "a"), cache_dir=str(cache))
        reference = (tmp_path / "a" / "model_stats.csv").read_bytes()
        blob = sorted((cache / "stats").glob("*.bin"))[0]
        manifest = blob.with_suffix(".json")
        good_blob, good_manifest = blob.read_bytes(), manifest.read_text()
        doc = json.loads(good_manifest)

        def short_blob():
            """One float, with a manifest checksum that matches it."""
            blob.write_bytes(good_blob[:8])
            manifest.write_text(json.dumps(
                {**doc, "sha256": hashlib.sha256(good_blob[:8]).hexdigest()}))

        damages = {
            "truncated blob": lambda: blob.write_bytes(good_blob[:10]),
            # Negating both floats keeps the size (an accuracy of 0.0 becomes
            # -0.0); only the checksum can tell.
            "same-size floats": lambda: blob.write_bytes(
                (-np.frombuffer(good_blob, "<f8")).tobytes()),
            "unreadable manifest": lambda: manifest.write_text("{"),
            "non-object manifest": lambda: manifest.write_text("[]"),
            "wrong format": lambda: manifest.write_text(json.dumps(
                {**doc, "format": hcache.KL_FORMAT})),
            "short blob": short_blob,
        }
        for name, damage in damages.items():
            damage()
            out = tmp_path / name.replace(" ", "_")
            logging.disable(logging.NOTSET)
            try:
                with caplog.at_level(logging.WARNING, logger="milab.harness.cache"):
                    hr.run_privacy_game(cfg, str(out), cache_dir=str(cache))
            finally:
                logging.disable(logging.WARNING)
            assert cache_counts(out, "stats") == (cfg.num_target_models - 1, 1, 1), name
            assert blob.stem in caplog.text, name
            caplog.clear()
            assert (out / "model_stats.csv").read_bytes() == reference, name
            # The recomputation overwrote the entry with the original bytes.
            assert (blob.read_bytes(), manifest.read_text()) == (good_blob, good_manifest), name
        assert not list((cache / "stats").glob("*.tmp"))

    def test_key_sensitive_to_model_key_and_eval_set(self, tmp_path):
        model_key, eval_digest = "a" * 64, "e" * 64
        base = hcache.stats_key(model_key, eval_digest)
        assert hcache.stats_key("b" * 64, eval_digest) != base
        assert hcache.stats_key(model_key, "f" * 64) != base
        # Another eval_size draws another eval set and trains the same
        # models: every model is a hit and every target's accuracies a miss.
        cfg = tiny_config()
        cache = str(tmp_path / "cache")
        hr.run_privacy_game(cfg, str(tmp_path / "a"), cache_dir=cache)
        rerun = hr.run_privacy_game(replace(cfg, eval_size=20), str(tmp_path / "b"),
                                    cache_dir=cache)
        assert rerun.cost["cache_misses"] == 0
        assert cache_counts(tmp_path / "b", "stats") == (0, cfg.num_target_models, 0)


class TestPrivacyGame:
    def test_observation_counts_and_balance(self, tmp_path):
        cfg = tiny_config()
        result = hr.run_privacy_game(cfg, str(tmp_path / "run"))
        per_attack = cfg.num_target_models * cfg.num_challenge_points
        shape = (cfg.num_target_models, cfg.num_challenge_points)
        assert list(result.scores) == list(cfg.attacks)
        assert all(s.shape == shape for s in result.scores.values())
        assert result.truth.shape == shape
        for attack, report in result.reports.items():
            assert report.n_in == report.n_out == per_attack // 2

    def test_artifacts_and_manifest(self, tmp_path):
        cfg = tiny_config()
        out = tmp_path / "run"
        hr.run_privacy_game(cfg, str(out))
        for name in ("dataset.json", "dataset.bin", "challenges.json",
                     "poison_plan.json", "neighborhood_diagnostics.csv",
                     "model_stats.csv", "scores.csv", "metrics.csv",
                     "cost.json", "run_manifest.json", "config.json"):
            assert (out / name).exists(), name
        assert hr.verify_manifest(str(out)) == []
        # The diagnostics name each point by its pool index, as scores.csv does,
        # and list its whole seeded candidate pool, row by row.
        with open(out / "scores.csv", encoding="utf-8", newline="") as f:
            scored = {row["challenge_index"] for row in csv.DictReader(f)}
        per_point: dict[str, list[dict]] = {}
        with open(out / "neighborhood_diagnostics.csv", encoding="utf-8", newline="") as f:
            for row in csv.DictReader(f):
                per_point.setdefault(row["challenge_index"], []).append(row)
        assert set(per_point) <= scored
        assert len(per_point) == cfg.num_challenge_points
        pool_size, size = cfg.neighborhood.pool_size, cfg.neighborhood.size
        for index, rows in per_point.items():
            assert [int(r["candidate"]) for r in rows] == list(range(pool_size)), index
            assert sum(int(r["selected"]) for r in rows) == size, index

    def test_dataset_manifest_digest_is_the_run_manifests(self, tmp_path):
        out = tmp_path / "run"
        hr.run_privacy_game(tiny_config(), str(out))
        dataset = json.loads((out / "dataset.json").read_text())
        run = json.loads((out / "run_manifest.json").read_text())
        assert dataset["sha256"] == run["artifacts"]["dataset"]["sha256"]

    def test_manifest_detects_tampering(self, tmp_path):
        out = tmp_path / "run"
        hr.run_privacy_game(tiny_config(), str(out))
        (out / "scores.csv").write_text("attack,challenge_index,model_id,truth,score\n")
        problems = hr.verify_manifest(str(out))
        assert any("scores" in p for p in problems)

    def test_two_runs_are_byte_identical(self, tmp_path):
        cfg = tiny_config()
        hr.run_privacy_game(cfg, str(tmp_path / "a"), cache_dir=str(tmp_path / "ca"))
        hr.run_privacy_game(cfg, str(tmp_path / "b"), cache_dir=str(tmp_path / "cb"))
        for name in ("metrics.csv", "scores.csv", "model_stats.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_resume_from_cache_is_byte_identical(self, tmp_path):
        cfg = tiny_config()
        cache = str(tmp_path / "cache")
        first = hr.run_privacy_game(cfg, str(tmp_path / "a"), cache_dir=cache)
        second = hr.run_privacy_game(cfg, str(tmp_path / "b"), cache_dir=cache)
        assert second.cost["cache_misses"] == 0
        assert second.cost["cache_hits"] > 0
        for name in ("metrics.csv", "model_stats.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_worker_pool_does_not_change_results(self, tmp_path):
        # The strict game's per-point adaptive loop trains through the pool too.
        for strict in (False, True):
            serial, parallel = tmp_path / f"s{strict}", tmp_path / f"p{strict}"
            hr.run_privacy_game(tiny_config(workers=1), str(serial), game_strict=strict)
            hr.run_privacy_game(tiny_config(workers=2), str(parallel), game_strict=strict)
            for name in ("scores.csv", "metrics.csv", "poison_plan.json"):
                assert (serial / name).read_bytes() == (parallel / name).read_bytes(), \
                    (strict, name)

    def test_pool_is_no_larger_than_the_missing_models(self, tmp_path, monkeypatch):
        # A process pool forks all of its workers at the first submit, so
        # workers=64 forked 64 processes to train a handful of models. The
        # fake pool runs every job in this process and starts none.
        calls = []

        class InProcessPool:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                jobs = list(jobs)
                calls.append((self.max_workers, len(jobs)))
                return map(fn, jobs)

        monkeypatch.setattr(hr, "ProcessPoolExecutor", InProcessPool)
        hr.run_privacy_game(tiny_config(workers=64), str(tmp_path / "run"))
        assert calls and all(workers <= jobs for workers, jobs in calls), calls

    def test_static_zero_equals_no_poisoning_pipeline(self, tmp_path):
        cfg = tiny_config()
        cache = str(tmp_path / "cache")
        hr.run_privacy_game(cfg, str(tmp_path / "s0"), cache_dir=cache,
                            replica_counts=np.full(3, 0))
        no_poison = replace(cfg, poison=replace(cfg.poison, t_p=1.0))
        hr.run_privacy_game(no_poison, str(tmp_path / "np"), cache_dir=cache)
        assert ((tmp_path / "s0" / "scores.csv").read_bytes()
                == (tmp_path / "np" / "scores.csv").read_bytes())

    def test_static_counts_are_fixed(self, tmp_path):
        result = hr.run_privacy_game(tiny_config(), str(tmp_path / "s2"),
                                     replica_counts=np.full(3, 2))
        assert result.replica_counts.tolist() == [2, 2, 2]

    @pytest.mark.parametrize("counts, strict", [
        (np.full(2, 1), False),
        (np.full(4, 1), False),
        (np.full((3, 1), 1), False),
        (np.full(3, 1.0), False),
        (np.full(3, True), False),
        (np.array([1, -1, 1]), False),
        (np.full(3, 1), True),
    ], ids=["short", "long", "2d", "float", "bool", "negative", "strict"])
    def test_bad_replica_counts_rejected_before_any_write(self, counts, strict, tmp_path):
        out = tmp_path / "run"
        with pytest.raises(hc.ConfigError, match="replica_counts must be 3 non-negative"):
            hr.run_privacy_game(tiny_config(), str(out), replica_counts=counts,
                                game_strict=strict)
        assert not out.exists()

    def test_given_counts_are_copied(self, tmp_path):
        # The game keeps its own int64 copy: changing the caller's array
        # afterwards changes nothing the game returned.
        counts = np.full(3, 1, dtype=np.int32)
        result = hr.run_privacy_game(tiny_config(), str(tmp_path / "run"),
                                     replica_counts=counts)
        counts[:] = 0
        assert result.replica_counts.dtype == np.int64
        assert result.replica_counts.tolist() == [1, 1, 1]

    def test_game_strict_mode_runs(self, tmp_path):
        cfg = tiny_config(num_challenge_points=2)
        result = hr.run_privacy_game(cfg, str(tmp_path / "strict"), game_strict=True)
        assert len(result.replica_counts) == 2
        assert all(0 <= k <= cfg.poison.k_max for k in result.replica_counts)

    def test_cold_strict_game_loads_no_model(self, tmp_path):
        # Every model of a cold game is trained once and never read back.
        cost = hr.run_privacy_game(tiny_config(), str(tmp_path / "strict"),
                                   game_strict=True).cost
        assert (cost["cache_hits"], cost["cache_misses"]) == (
            0, cost["shadow_models"] + cost["target_models"])

    @pytest.mark.parametrize("strict", [False, True], ids=["batched", "strict"])
    def test_every_kl_fit_gets_m_in_and_m_out_models(self, tmp_path, monkeypatch,
                                                      strict):
        sizes = []

        def recording_fit_kl(challenge, cands, in_models, out_models):
            sizes.append((len(in_models), len(out_models)))
            return fit_kl(challenge, cands, in_models, out_models)

        monkeypatch.setattr(hr, "fit_kl", recording_fit_kl)
        cfg = tiny_config()
        hr.run_privacy_game(cfg, str(tmp_path / "run"), game_strict=strict)
        m = cfg.poison.m
        assert sizes == [(m, m)] * cfg.num_challenge_points

    def test_cost_formula_on_exhausted_run(self, tmp_path):
        # Weak models never push confidence below a tiny threshold, so the
        # loop exhausts and trains the full 2(k_max+1)m shadow set.
        cfg = tiny_config(poison=PoisonConfig(t_p=0.001, m=2, k_max=2))
        result = hr.run_privacy_game(cfg, str(tmp_path / "run"))
        assert result.cost["shadow_models"] == 2 * (2 + 1) * 2
        assert result.cost["queries_per_challenge"] == {"chameleon": 9, "gap": 1}
        expected = (cfg.num_target_models * cfg.num_challenge_points
                    * (cfg.neighborhood.size + 1 + 1))
        assert result.cost["total_label_queries"] == expected

    def test_eval_accuracy_measured(self, tmp_path):
        hr.run_privacy_game(tiny_config(), str(tmp_path / "run"))
        train_accs, eval_accs = model_stats(tmp_path / "run")
        assert 0.0 <= float(np.mean(eval_accs)) <= 1.0
        assert float(np.mean(train_accs)) >= 0.25

    def test_membership_balanced_per_challenge_point(self, tmp_path):
        cfg = tiny_config(num_target_models=6)
        result = hr.run_privacy_game(cfg, str(tmp_path / "run"))
        assert result.truth.shape == (6, cfg.num_challenge_points)
        for point, members in enumerate(result.truth.sum(axis=0).tolist()):
            assert members == 3, f"point {point} not balanced"

    def test_poison_plan_references_model_files(self, tmp_path):
        # One ref per shadow model on every poison path: adaptive, static, strict.
        for name, kwargs in (("adaptive", {}), ("static", {"replica_counts": np.full(3, 2)}),
                             ("strict", {"game_strict": True})):
            out = tmp_path / name
            hr.run_privacy_game(tiny_config(), str(out), **kwargs)
            plan = json.loads((out / "poison_plan.json").read_text())
            cost = json.loads((out / "cost.json").read_text())
            assert len(plan["models"]) == cost["shadow_models"] > 0, name
            for ref in plan["models"]:
                assert (out / "cache" / (ref + ".bin")).exists(), (name, ref)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_game_process_builds_only_the_sets_it_trains_or_scores(
            self, workers, tmp_path, monkeypatch):
        # A forked worker counts its own builds in its own copy of the list.
        builds = []
        build = TrainingSet.build
        monkeypatch.setattr(TrainingSet, "build",
                            lambda recipe: builds.append(None) or build(recipe))
        cfg, cache = tiny_config(workers=workers), str(tmp_path / "cache")
        cold = hr.run_privacy_game(cfg, str(tmp_path / "cold"), cache_dir=cache).cost
        assert cold["cache_misses"] > 0
        assert cold["stats_cache_misses"] == cfg.num_target_models
        trained_here = cold["cache_misses"] if workers == 1 else 0
        assert len(builds) == trained_here + cold["stats_cache_misses"]
        builds.clear()
        warm = hr.run_privacy_game(cfg, str(tmp_path / "warm"), cache_dir=cache).cost
        assert (warm["cache_misses"], warm["stats_cache_misses"], len(builds)) == (0, 0, 0)

    def test_stage_failure_names_the_stage(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hr, "gen_neighbors", broken_gen_neighbors)
        with pytest.raises(hr.StageError) as err:
            hr.run_privacy_game(tiny_config(), str(tmp_path / "run"))
        assert err.value.stage == "neighborhood"

    def test_no_signal_dataset_scores_near_chance(self, tmp_path):
        # Poisoning disabled and classes statistically indistinguishable:
        # membership carries no signal, so AUC must sit near 0.5.
        cfg = tiny_config(
            dataset=hc.DatasetConfig(num_classes=2, dim=4, n_per_class=30,
                                     class_sep=1e-6),
            poison=PoisonConfig(t_p=1.0, m=2, k_max=2),
            num_target_models=8, num_challenge_points=8)
        result = hr.run_privacy_game(cfg, str(tmp_path / "run"))
        assert abs(result.reports["chameleon"].auc - 0.5) < 0.17


class TestGivenCounts:
    """A game given replica counts trains only the poison-free shadow models
    and otherwise writes the bytes of the game whose counts it replays."""

    @pytest.mark.parametrize("name", ["gaussian", "binary", "static_k2"])
    def test_adaptive_counts_passed_back_give_the_same_bytes(self, name, tmp_path):
        cfg, cache = CONFIGS[name], str(tmp_path / "cache")
        adaptive, given = tmp_path / "adaptive", tmp_path / "given"
        counts = hr.run_privacy_game(cfg, str(adaptive), cache_dir=cache).replica_counts
        hr.run_privacy_game(cfg, str(given), cache_dir=cache, replica_counts=counts)
        for file in ("scores.csv", "metrics.csv", "neighborhood_diagnostics.csv",
                     "model_stats.csv"):
            assert (adaptive / file).read_bytes() == (given / file).read_bytes(), file
        cost = json.loads((given / "cost.json").read_text())
        assert (cost["shadow_models"], cost["cache_misses"]) == (2 * cfg.poison.m, 0)
        plans = [json.loads((run / "poison_plan.json").read_text())
                 for run in (adaptive, given)]
        assert plans[1]["iterations_run"] == 0
        assert plans[1]["models"] == plans[0]["models"][:2 * cfg.poison.m]
        for plan in plans:
            del plan["iterations_run"], plan["models"]
        assert plans[0] == plans[1]

    def test_static_cli_writes_the_pinned_fixed_counts_game(self, tmp_path, capsys):
        # The golden static_k2 game is run_privacy_game(replica_counts=np.full(n, 2)).
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "static"
        cfg_path.write_text(json.dumps(CONFIGS["static_k2"].canonical_dict()))
        assert cli.main(["static", "--config", str(cfg_path), "--k", "2",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert {file: hashlib.sha256((out / file).read_bytes()).hexdigest()
                for file in CHECKED} == GOLDEN["static_k2"]


def expected_batches(cfg: hc.ExperimentConfig, cap: int) -> list[int]:
    """The label batch sizes of a game, in query order, when a batch holds
    at most ``cap`` rows but always at least one point."""
    size, points = cfg.neighborhood.size, cfg.num_challenge_points
    batches = []
    for attack in cfg.attacks:
        rows = size + 1 if attack == CHAMELEON else 1
        run = max(1, cap // rows)
        batches += [min(run, points - start) * rows
                    for start in range(0, points, run)] * cfg.num_target_models
    return batches


def recorded_batches(monkeypatch) -> list[int]:
    """The row count of every label batch the facade answers from now on."""
    batches: list[int] = []
    query = LabelOnlyModel.predict_label_batch

    def recording(self, X):
        batches.append(len(X))
        return query(self, X)

    monkeypatch.setattr(LabelOnlyModel, "predict_label_batch", recording)
    return batches


class TestScoring:
    def test_fixed_size_batches_and_empty_neighborhood(self, tmp_path, monkeypatch):
        batches = recorded_batches(monkeypatch)
        cfg = tiny_config(neighborhood=hc.NeighborhoodConfig(size=1, pool_size=2),
                          num_challenge_points=5)
        cache = str(tmp_path / "cache")
        result = hr.run_privacy_game(cfg, str(tmp_path / "one"), cache_dir=cache)
        assert max(batches) <= hr.LABEL_BATCH_ROWS
        assert batches == expected_batches(cfg, hr.LABEL_BATCH_ROWS)
        assert sum(batches) == result.cost["total_label_queries"]

        # A 3-row cap splits the points into runs: one point and its
        # neighbor per chameleon batch, runs of 3 points for gap.
        batches.clear()
        monkeypatch.setattr(hr, "LABEL_BATCH_ROWS", 3)
        capped = hr.run_privacy_game(cfg, str(tmp_path / "capped"), cache_dir=cache)
        assert batches == expected_batches(cfg, 3) == [2] * 5 * 4 + [3, 2] * 4
        for attack, matrix in result.scores.items():
            assert np.array_equal(capped.scores[attack], matrix), attack

        # With no neighbors, chameleon scores the point alone, as gap does.
        empty = replace(cfg, neighborhood=replace(cfg.neighborhood, size=0))
        result = hr.run_privacy_game(empty, str(tmp_path / "zero"), cache_dir=cache)
        assert np.array_equal(result.scores[CHAMELEON], result.scores[GAP])

    def test_a_neighbourhood_wider_than_the_cap_is_one_point_per_batch(
            self, tmp_path, monkeypatch):
        batches = recorded_batches(monkeypatch)
        wide = hr.LABEL_BATCH_ROWS
        cfg = tiny_config(neighborhood=hc.NeighborhoodConfig(size=wide, pool_size=wide))
        result = hr.run_privacy_game(cfg, str(tmp_path / "run"))
        points, targets = cfg.num_challenge_points, cfg.num_target_models
        assert batches == expected_batches(cfg, wide)
        assert batches == [wide + 1] * points * targets + [points] * targets
        assert sum(batches) == result.cost["total_label_queries"]


class TestBinaryModality:
    def test_end_to_end_on_binary_tabular_data(self, tmp_path):
        # Bit-flip neighbors and binary prototypes exercise the tabular path.
        cfg = tiny_config(
            dataset=hc.DatasetConfig(kind="binary", num_classes=4, dim=32,
                                     n_per_class=12, flip_noise=0.05),
            poison=PoisonConfig(t_p=0.1, m=2, k_max=2),
            neighborhood=hc.NeighborhoodConfig(size=8, pool_size=24),
            num_target_models=6, num_challenge_points=4)
        result = hr.run_privacy_game(cfg, str(tmp_path / "run"))
        assert sum(s.size for s in result.scores.values()) == 6 * 4 * 2
        assert result.reports["chameleon"].auc >= 0.5
        # Neighbor candidates must stay binary under the bit-flip modality.
        diag = (tmp_path / "run" / "neighborhood_diagnostics.csv").read_text()
        assert len(diag.strip().splitlines()) == 1 + 4 * 24

    def test_strict_game_keeps_duplicates_of_a_point(self, tmp_path, monkeypatch):
        # Binary rows repeat. A strict attacker set drops only the point's own
        # row, so a duplicate of the point stays; this game used to stop with
        # "challenge point must not be in the attacker dataset".
        cfg = tiny_config(
            dataset=hc.DatasetConfig(kind="binary", num_classes=3, dim=12, n_per_class=12),
            num_challenge_points=4, master_seed=0, eval_size=36)
        pool, _ = hr._make_datasets(cfg)
        challenges = hr._pick_challenges(cfg, pool)
        copies = [int(((pool.features == pool.features[i]).all(axis=1)
                       & (pool.labels == pool.labels[i])).sum()) for i in challenges.indices]
        assert max(copies) > 1, copies
        recipes = []
        many = hr.TrainerPool.many

        def recording_many(self, jobs):
            recipes.extend(recipe for recipe, _ in jobs)
            return many(self, jobs)

        monkeypatch.setattr(hr.TrainerPool, "many", recording_many)
        result = hr.run_privacy_game(cfg, str(tmp_path / "run"), game_strict=True)
        assert len(result.replica_counts) == 4
        # Every OUT and IN recipe holds the pool less one challenge point's
        # own row, plus copies of that point.
        strict = [recipe for recipe in recipes if len(recipe.counts) == 1]
        assert len(strict) == len(recipes) - cfg.num_target_models
        for recipe in strict:
            (left_out,) = np.setdiff1d(np.arange(len(pool)), recipe.rows)
            assert len(recipe.rows) == len(pool) - 1 and left_out in challenges.indices
            assert (pool.features[left_out] == recipe.features[0]).all()

    def test_binary_neighbors_use_flip_noise_default(self):
        nbh = hc.NeighborhoodConfig()
        assert nbh.resolved_noise_scale("binary") == 0.025
        assert nbh.resolved_noise_scale("continuous") == 0.15


class TestAblation:
    def test_t_nb_sweep_reuses_models(self, tmp_path):
        cfg = tiny_config()
        rows = hr.run_ablation(cfg, "t_nb", [0.25, 0.75], str(tmp_path / "ab"))
        assert {r["value"] for r in rows} == {0.25, 0.75}
        assert (tmp_path / "ab" / "ablation.csv").exists()
        # t_nb only sets the neighborhood's admitted flags, and no model
        # depends on the neighborhood, so the second value adds no new models:
        # 12 shadows (exhausted loop) + 4 targets, 2 files each.
        model_dir = os.path.join(str(tmp_path / "ab" / "cache"), "models")
        assert len(os.listdir(model_dir)) == (12 + 4) * 2
        # Nor do the targets' accuracies.
        targets = cfg.num_target_models
        assert cache_counts(tmp_path / "ab" / "t_nb_0.25", "stats") == (0, targets, 0)
        assert cache_counts(tmp_path / "ab" / "t_nb_0.75", "stats") == (targets, 0, 0)

    def test_unknown_knob_rejected(self, tmp_path):
        with pytest.raises(hc.ConfigError):
            hr.run_ablation(tiny_config(), "epochs", [1], str(tmp_path / "ab"))

    def test_bad_later_value_rejected_before_any_game(self, tmp_path):
        # The first value is valid; no game may run before the second fails.
        out_root = tmp_path / "ab"
        with pytest.raises(hc.ConfigError, match="'abc'"):
            hr.run_ablation(tiny_config(), "t_p", ["0.1", "abc"], str(out_root))
        assert not out_root.exists()

    def test_bad_csv_leaves_no_output_root(self, tmp_path):
        cfg = tiny_config(dataset=hc.DatasetConfig(
            kind="csv", csv_path=str(tmp_path / "missing.csv")))
        out_root = tmp_path / "ab"
        with pytest.raises(hc.ConfigError, match="bad csv dataset"):
            hr.run_ablation(cfg, "t_nb", [0.5], str(out_root))
        assert not out_root.exists()


# The files the determinism contract holds byte-identical across worker
# counts and between a cold run and a warm rerun on its cache.
CONTRACT_FILES = ("scores.csv", "metrics.csv", "poison_plan.json",
                  "neighborhood_diagnostics.csv", "model_stats.csv")


class TestDeterminismContract:
    @given(kind=st.sampled_from(["gaussian", "binary"]),
           master_seed=st.integers(0, 2**31 - 1),
           attacks=st.lists(st.sampled_from([CHAMELEON, GAP]), min_size=1,
                            max_size=2, unique=True),
           dp=st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_workers_and_warm_cache_give_identical_bytes(self, kind, master_seed,
                                                         attacks, dp):
        dataset, eval_size = (
            (hc.DatasetConfig(num_classes=4, dim=8, n_per_class=10), 40)
            if kind == "gaussian" else
            (hc.DatasetConfig(kind="binary", num_classes=3, dim=12, n_per_class=12), 39))
        train = TrainConfig(epochs=8, learning_rate=0.1, batch_size=16,
                            dp=DpConfig(clip_norm=2.0, noise_multiplier=0.5) if dp else None)
        cfg = tiny_config(dataset=dataset, train=train, attacks=tuple(attacks),
                          master_seed=master_seed, eval_size=eval_size)
        # A function-scoped tmp_path would be shared by every example.
        with tempfile.TemporaryDirectory() as tmp:
            runs = [Path(tmp, name) for name in ("cold", "workers2", "warm")]
            hr.run_privacy_game(cfg, str(runs[0]))
            hr.run_privacy_game(replace(cfg, workers=2), str(runs[1]))
            warm = hr.run_privacy_game(cfg, str(runs[2]),
                                       cache_dir=str(runs[0] / "cache"))
            assert warm.cost["cache_misses"] == 0
            for name in CONTRACT_FILES:
                cold, *others = [(run / name).read_bytes() for run in runs]
                assert others == [cold, cold], name


class TestCli:
    def test_theory_subcommand(self, capsys):
        assert cli.main(["theory", "--tau", "0.5", "--classes", "10",
                         "--fpr", "0.05", "--k-max", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,tpr,p,fpr"
        assert len(lines) == 5

    def test_run_and_metrics_subcommands(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config().canonical_dict()))
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["metrics", "--scores", str(out / "scores.csv")]) == 0
        printed = capsys.readouterr().out
        assert "chameleon" in printed and "gap" in printed
        # The re-read scores give the run's own reports.
        for line in printed.strip().splitlines():
            attack, report = line.split(": ", 1)
            assert json.loads(report) == json.loads(
                (out / f"metrics_{attack}.json").read_text()), attack
        assert cli.main(["cost", "--run", str(out)]) == 0

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config().canonical_dict()))
        assert cli.main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "r1"), "--seed", "5"]) == 0
        assert cli.main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "r2"), "--seed", "6"]) == 0
        assert ((tmp_path / "r1" / "scores.csv").read_bytes()
                != (tmp_path / "r2" / "scores.csv").read_bytes())

    def test_config_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert cli.main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{\"num_target_models\": 5}")
        assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_runtime_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config().canonical_dict()))
        monkeypatch.setattr(hr, "gen_neighbors", broken_gen_neighbors)
        assert cli.main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 2
        assert "stage 'neighborhood'" in capsys.readouterr().err

    def test_noise_too_small_to_move_a_point_fails_the_run(self, tmp_path, capsys):
        cfg = tiny_config(neighborhood=hc.NeighborhoodConfig(size=8, pool_size=16,
                                                             noise_scale=1e-300))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.canonical_dict()))
        assert cli.main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "stage 'neighborhood'" in err and "noise_scale 1e-300" in err

    def test_jitter_that_rounds_back_onto_the_point_fails_the_run(self, tmp_path, capsys):
        # 1e-9 jitter moves a point only below float32 resolution, so every
        # rounded candidate is the point itself and the pool gives up.
        cfg = tiny_config(neighborhood=hc.NeighborhoodConfig(size=8, pool_size=16,
                                                             noise_scale=1e-9))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.canonical_dict()))
        assert cli.main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "stage 'neighborhood'" in err and "noise_scale 1e-09" in err

    def test_bad_csv_input_exit_code(self, tmp_path, capsys):
        # Bad input is a config error that names the file, not a stage failure.
        bad = {
            "non_numeric.csv": ("f0,label\n0.5,0\nabc,1\n",
                                "could not convert string to float: 'abc'"),
            "ragged.csv": ("f0,f1,label\n0.5,1.0,0\n1.5,1\n", "data row 2 has 2 fields"),
            "header_only.csv": ("f0,label\n", "no data rows"),
            "negative_label.csv": ("f0,label\n0.5,0\n1.5,-1\n", "labels out of range"),
            "one_class.csv": ("f0,label\n0.5,0\n1.5,0\n", "labels span fewer than 2 classes"),
            "label_only.csv": ("label\n0\n1\n", "no feature columns"),
            "missing.csv": (None, "[Errno 2] No such file or directory"),
        }
        cases = [({"kind": "csv"}, "csv datasets need csv_path")]
        for name, (text, why) in bad.items():
            if text is not None:
                (tmp_path / name).write_text(text)
            cases.append(({"kind": "csv", "csv_path": str(tmp_path / name)},
                          f"{tmp_path / name}: {why}"))
        cfg_path = tmp_path / "cfg.json"
        for dataset, why in cases:
            cfg_path.write_text(json.dumps({
                "dataset": dataset, "hidden_sizes": [4],
                "train": {"epochs": 1, "learning_rate": 0.1},
                "poison": {"m": 2, "k_max": 1},
                "neighborhood": {"size": 2, "pool_size": 4},
                "num_target_models": 2, "num_challenge_points": 1, "eval_size": 4}))
            assert cli.main(["run", "--config", str(cfg_path),
                             "--out", str(tmp_path / "o")]) == 1, why
            err = capsys.readouterr().err
            assert err.startswith("config error:") and why in err, err
            assert not (tmp_path / "o").exists(), why

    def test_csv_pool_smaller_than_challenge_count_writes_nothing(self, tmp_path, capsys):
        # The pool's size is known only once the CSV is read; the check used
        # to run after dataset.bin, dataset.json and cache/ were written.
        csv_path = tmp_path / "four.csv"
        csv_path.write_text("f0,label\n0.1,0\n0.2,1\n0.3,0\n0.4,1\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dataset": {"kind": "csv", "csv_path": str(csv_path)},
            "num_challenge_points": 10}))
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "more challenge points than pool points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dataset", [
        {"kind": "csv", "label": 70000},
        {"kind": "binary", "num_classes": 65536},
    ], ids=["csv_label_70000", "binary_65536_classes"])
    def test_class_count_beyond_uint16_writes_nothing(self, tmp_path, capsys, dataset):
        dataset = dict(dataset)
        if dataset["kind"] == "csv":
            rows = [f"{i % 3}.5,{i % 2}" for i in range(39)]
            rows.append(f"0.25,{dataset.pop('label')}")
            csv_path = tmp_path / "wide.csv"
            csv_path.write_text("f0,label\n" + "\n".join(rows) + "\n")
            dataset["csv_path"] = str(csv_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset": dataset, "num_challenge_points": 2}))
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("argv, why", [
        (["theory", "--tau", "0"], "tau must be > 0"),
        (["theory", "--classes", "1"], "num_classes must be >= 2"),
        (["theory", "--fpr", "2"], "x_prime must be in [0, 1]"),
        (["theory", "--k", "-1"], "k must be >= 0"),
        (["theory", "--k-max", "-1"], "k_range must be non-empty"),
        (["metrics", "no_score.csv"], "no score column"),
        (["metrics", "score_above_one.csv"], "score must be in [0, 1]"),
        (["metrics", "no_out_rows.csv"], "empty score list"),
        (["metrics", "truth_2.csv"], "truth must be 0 or 1"),
        (["metrics", "truth_negative.csv"], "truth must be 0 or 1"),
    ], ids=["tau_0", "classes_1", "fpr_2", "k_negative", "k_max_negative",
            "no_score_column", "score_above_one", "no_out_rows", "truth_2",
            "truth_negative"])
    def test_bad_theory_or_metrics_input_exits_1(self, tmp_path, capsys, argv, why):
        scores = {
            "no_score.csv": "attack,challenge_index,model_id,truth\ngap,0,0,1\n",
            "score_above_one.csv": "attack,challenge_index,model_id,truth,score\n"
                                   "gap,0,0,1,1.5\ngap,1,0,0,0.0\n",
            "no_out_rows.csv": "attack,challenge_index,model_id,truth,score\n"
                               "gap,0,0,1,1.0\n",
            "truth_2.csv": "attack,challenge_index,model_id,truth,score\n"
                           "gap,0,0,2,1.0\ngap,1,0,0,0.0\n",
            "truth_negative.csv": "attack,challenge_index,model_id,truth,score\n"
                                  "gap,0,0,-1,1.0\ngap,1,0,0,0.0\n",
        }
        if argv[0] == "metrics":
            path = tmp_path / argv[1]
            path.write_text(scores[argv[1]])
            argv = ["metrics", "--scores", str(path)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and why in err, err

    @pytest.mark.parametrize("command, why", [
        ("metrics", "[Errno 21] Is a directory"),
        ("cost", "[Errno 20] Not a directory"),
    ], ids=["metrics_on_a_directory", "cost_on_a_file"])
    def test_unreadable_metrics_or_cost_path_exits_1(self, tmp_path, capsys, command, why):
        # Each exited 2, a runtime failure; a missing path already exited 1.
        if command == "metrics":
            argv = ["metrics", "--scores", str(tmp_path)]
        else:
            (tmp_path / "run").write_text("")
            argv = ["cost", "--run", str(tmp_path / "run")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and why in err, err

    def test_eval_size_not_a_multiple_of_the_class_count_exits_1(self, tmp_path, capsys):
        # 25 eval points over 10 classes were silently rounded down to 20.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"eval_size": 25}))
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "eval_size must be a multiple of num_classes (10)" in capsys.readouterr().err
        assert not out.exists()

    def test_metrics_on_a_header_only_scores_file_exits_1(self, tmp_path, capsys):
        # It printed nothing and exited 0.
        path = tmp_path / "scores.csv"
        path.write_text("attack,challenge_index,model_id,truth,score\n")
        assert cli.main(["metrics", "--scores", str(path)]) == 1
        assert "no score rows" in capsys.readouterr().err

    def test_ablate_with_no_values_exits_1_before_any_write(self, tmp_path, capsys):
        # It ran no game, printed nothing and exited 0.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config().canonical_dict()))
        out = tmp_path / "ab"
        assert cli.main(["ablate", "--config", str(cfg_path), "--knob", "t_nb",
                         "--values", ",", "--out", str(out)]) == 1
        assert "at least one value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values", ["nan", "0.5,inf", "0.5,-inf"])
    def test_ablate_non_finite_t_nb_exits_1_before_any_write(self, tmp_path, capsys,
                                                              values):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config().canonical_dict()))
        out = tmp_path / "ab"
        assert cli.main(["ablate", "--config", str(cfg_path), "--knob", "t_nb",
                         "--values", values, "--out", str(out)]) == 1
        assert "t_nb must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "milab.harness.cli", "theory", "--k", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("k,tpr,p,fpr")

    @pytest.mark.parametrize("openblas", [None, "2"])
    def test_cli_runs_at_one_blas_thread_unless_told(self, tmp_path, openblas):
        # Importing cli set the variables in this process, so the child's
        # environment is built without them.
        env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
        if openblas is not None:
            env["OPENBLAS_NUM_THREADS"] = openblas
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "run"
        cfg_path.write_text(json.dumps(tiny_config(num_challenge_points=2).canonical_dict()))
        proc = subprocess.run(
            [sys.executable, "-m", "milab.harness.cli", "run", "--config", str(cfg_path),
             "--out", str(out)], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["blas_env"] == {"OPENBLAS_NUM_THREADS": openblas or "1",
                                        "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

    def test_static_and_strict_subcommands(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(num_challenge_points=2).canonical_dict()))
        cache = str(tmp_path / "cache")
        assert cli.main(["static", "--config", str(cfg_path), "--k", "1",
                         "--out", str(tmp_path / "s1"), "--cache", cache]) == 0
        assert cli.main(["run", "--config", str(cfg_path), "--game-strict",
                         "--out", str(tmp_path / "strict"), "--cache", cache]) == 0
        capsys.readouterr()

    def test_negative_static_k_exits_1_before_any_write(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config().canonical_dict()))
        out = tmp_path / "s"
        assert cli.main(["static", "--config", str(cfg_path), "--k", "-1",
                         "--out", str(out)]) == 1
        assert "replica_counts must be" in capsys.readouterr().err
        assert not out.exists()

    def test_ablate_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config().canonical_dict()))
        assert cli.main(["ablate", "--config", str(cfg_path), "--knob",
                         "neighborhood_size", "--values", "4,8",
                         "--out", str(tmp_path / "ab")]) == 0
        out = capsys.readouterr().out
        assert out.count("chameleon") == 2
        assert (tmp_path / "ab" / "ablation.csv").exists()
