import json
import logging
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from milab.harness import cache as hcache
from milab.harness import cli
from milab.harness import config as hc
from milab.harness import runner as hr
from milab.nncore import TrainConfig
from milab.poisoner import PoisonConfig

logging.disable(logging.WARNING)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
        hc.dump_config(cfg, str(path))
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
        with pytest.raises(hc.ConfigError):
            hc.config_from_dict({"neighborhood": {"size": 128, "pool_size": 64}})

    def test_dp_section_parsed(self):
        cfg = hc.config_from_dict({
            "train": {"epochs": 2, "learning_rate": 0.1,
                      "dp": {"clip_norm": 5.0, "noise_multiplier": 0.5}}})
        assert cfg.train.dp.clip_norm == 5.0

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
        assert tiny_config(dataset=hc.DatasetConfig(num_classes=7)).paper_scale() \
            .dataset.n_per_class == 143

    def test_more_challenge_points_than_pool_points_rejected(self, tmp_path):
        with pytest.raises(hc.ConfigError):
            tiny_config(num_challenge_points=41)  # 4 classes x 10 points
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"num_challenge_points": 401}))
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert not out.exists()

    def test_workers_excluded_from_canonical_form(self):
        a = tiny_config(workers=1)
        b = tiny_config(workers=4)
        assert a.canonical_dict() == b.canonical_dict()


class TestModelCache:
    def test_cache_returns_identical_model(self, tmp_path):
        from milab.datagen import gen_gaussian_mixture

        ds = gen_gaussian_mixture(3, 6, 10, 2.0, seed=0)
        cache = hcache.ModelCache(str(tmp_path))
        trainer = hr.TrainerPool(TrainConfig(epochs=4, learning_rate=0.1, batch_size=8),
                                 (8,), cache)
        first = trainer.one(ds, 7)
        again, _ = trainer.many([(ds, 7), (ds, 8)])
        assert cache.hits == 1 and cache.misses == 2
        assert trainer.keys[0] == trainer.keys[1] != trainer.keys[2]
        assert all(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
                   for a, b in zip(first.layers, again.layers))

    def test_key_sensitive_to_inputs(self, tmp_path):
        from milab.datagen import gen_gaussian_mixture

        ds = gen_gaussian_mixture(3, 6, 10, 2.0, seed=0)
        cache = hcache.ModelCache(str(tmp_path))
        cfg = TrainConfig(epochs=4, learning_rate=0.1, batch_size=8, seed=7)
        base = cache.model_key(ds, cfg, (8,))
        assert cache.model_key(ds, replace(cfg, seed=8), (8,)) != base
        assert cache.model_key(ds, cfg, (9,)) != base
        other = gen_gaussian_mixture(3, 6, 10, 2.0, seed=1)
        assert cache.model_key(other, cfg, (8,)) != base

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
        assert rerun.cost.cache_misses == 1
        assert blob.stem in caplog.text
        assert ((tmp_path / "a" / "scores.csv").read_bytes()
                == (tmp_path / "b" / "scores.csv").read_bytes())
        third = hr.run_privacy_game(cfg, str(tmp_path / "c"), cache_dir=str(cache))
        assert third.cost.cache_misses == 0


class TestPrivacyGame:
    def test_observation_counts_and_balance(self, tmp_path):
        cfg = tiny_config()
        result = hr.run_privacy_game(cfg, str(tmp_path / "run"))
        per_attack = cfg.num_target_models * cfg.num_challenge_points
        assert len(result.records) == per_attack * len(cfg.attacks)
        for attack, report in result.reports.items():
            assert report.n_in == report.n_out == per_attack // 2

    def test_artifacts_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        hr.run_privacy_game(tiny_config(), str(out))
        for name in ("dataset.json", "dataset.bin", "challenges.json",
                     "poison_plan.json", "neighborhood_diagnostics.csv",
                     "model_stats.csv", "scores.csv", "metrics.csv",
                     "cost.json", "run_manifest.json", "config.json"):
            assert (out / name).exists(), name
        assert hr.verify_manifest(str(out)) == []

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
        assert second.cost.cache_misses == 0
        assert second.cost.cache_hits > 0
        assert ((tmp_path / "a" / "metrics.csv").read_bytes()
                == (tmp_path / "b" / "metrics.csv").read_bytes())

    def test_worker_pool_does_not_change_results(self, tmp_path):
        serial = hr.run_privacy_game(tiny_config(workers=1), str(tmp_path / "s"))
        parallel = hr.run_privacy_game(tiny_config(workers=2), str(tmp_path / "p"))
        assert ((tmp_path / "s" / "metrics.csv").read_bytes()
                == (tmp_path / "p" / "metrics.csv").read_bytes())

    def test_static_zero_equals_no_poisoning_pipeline(self, tmp_path):
        cfg = tiny_config()
        cache = str(tmp_path / "cache")
        hr.run_static_baseline(cfg, 0, str(tmp_path / "s0"), cache_dir=cache)
        no_poison = replace(cfg, poison=replace(cfg.poison, t_p=1.0))
        hr.run_privacy_game(no_poison, str(tmp_path / "np"), cache_dir=cache)
        assert ((tmp_path / "s0" / "scores.csv").read_bytes()
                == (tmp_path / "np" / "scores.csv").read_bytes())

    def test_static_counts_are_fixed(self, tmp_path):
        result = hr.run_static_baseline(tiny_config(), 2, str(tmp_path / "s2"))
        assert result.replica_counts.tolist() == [2, 2, 2]

    def test_game_strict_mode_runs(self, tmp_path):
        cfg = tiny_config(num_challenge_points=2)
        result = hr.run_privacy_game(cfg, str(tmp_path / "strict"), game_strict=True)
        assert len(result.replica_counts) == 2
        assert all(0 <= k <= cfg.poison.k_max for k in result.replica_counts)

    def test_cost_formula_on_exhausted_run(self, tmp_path):
        # Weak models never push confidence below a tiny threshold, so the
        # loop exhausts and trains the full 2(k_max+1)m shadow set.
        cfg = tiny_config(poison=PoisonConfig(t_p=0.001, m=2, k_max=2))
        result = hr.run_privacy_game(cfg, str(tmp_path / "run"))
        assert result.cost.shadow_models == 2 * (2 + 1) * 2
        assert result.cost.queries_per_challenge == {"chameleon": 9, "gap": 1}
        expected = (cfg.num_target_models * cfg.num_challenge_points
                    * (cfg.neighborhood.size + 1 + 1))
        assert result.cost.total_label_queries == expected

    def test_eval_accuracy_measured(self, tmp_path):
        result = hr.run_privacy_game(tiny_config(), str(tmp_path / "run"))
        assert 0.0 <= result.model_stats["mean_eval_accuracy"] <= 1.0
        assert result.model_stats["mean_train_accuracy"] >= 0.25

    def test_membership_balanced_per_challenge_point(self, tmp_path):
        cfg = tiny_config(num_target_models=6)
        result = hr.run_privacy_game(cfg, str(tmp_path / "run"))
        gap_records = [r for r in result.records if r.attack_name == "gap"]
        by_point = {}
        for r in gap_records:
            by_point.setdefault(r.challenge_index, []).append(r.truth)
        for point, truths in by_point.items():
            assert sum(truths) == 3, f"point {point} not balanced"

    def test_poison_plan_references_model_files(self, tmp_path):
        out = tmp_path / "run"
        hr.run_privacy_game(tiny_config(), str(out))
        plan = json.loads((out / "poison_plan.json").read_text())
        assert plan["models"], "plan should reference trained shadow models"
        for ref in plan["models"]:
            assert (out / "cache" / (ref + ".bin")).exists()

    def test_stage_failure_names_the_stage(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("f0,f1,label\n0.5,1.0,0\n1.5,0.0,1\n")
        cfg = tiny_config(
            dataset=hc.DatasetConfig(kind="csv", csv_path=str(csv_path)))
        csv_path.unlink()  # vanish between config load and the dataset stage
        with pytest.raises(hr.StageError) as err:
            hr.run_privacy_game(cfg, str(tmp_path / "run"))
        assert err.value.stage == "dataset"

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
        assert len(result.records) == 6 * 4 * 2
        assert result.reports["chameleon"].auc >= 0.5
        # Neighbor candidates must stay binary under the bit-flip modality.
        diag = (tmp_path / "run" / "neighborhood_diagnostics.csv").read_text()
        assert len(diag.strip().splitlines()) == 1 + 4 * 24

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
        # t_nb only affects neighborhood selection, so the second value adds
        # no new models: 12 shadows (exhausted loop) + 4 targets, 2 files each.
        model_dir = os.path.join(str(tmp_path / "ab" / "cache"), "models")
        assert len(os.listdir(model_dir)) == (12 + 4) * 2

    def test_unknown_knob_rejected(self, tmp_path):
        with pytest.raises(hc.ConfigError):
            hr.run_ablation(tiny_config(), "epochs", [1], str(tmp_path / "ab"))


class TestCli:
    def test_theory_subcommand(self, capsys):
        assert cli.main(["theory", "--tau", "0.5", "--classes", "10",
                         "--fpr", "0.05", "--k-max", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,tpr,p,fpr"
        assert len(lines) == 5

    def test_run_and_metrics_subcommands(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        hc.dump_config(tiny_config(), str(cfg_path))
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["metrics", "--scores", str(out / "scores.csv")]) == 0
        printed = capsys.readouterr().out
        assert "chameleon" in printed and "gap" in printed
        assert cli.main(["cost", "--run", str(out)]) == 0

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        hc.dump_config(tiny_config(), str(cfg_path))
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

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        csv_path = tmp_path / "gone.csv"
        csv_path.write_text("f0,label\n0.5,0\n1.5,1\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dataset": {"kind": "csv", "csv_path": str(csv_path)},
            "hidden_sizes": [4],
            "train": {"epochs": 1, "learning_rate": 0.1},
            "poison": {"m": 2, "k_max": 1},
            "neighborhood": {"size": 2, "pool_size": 4},
            "num_target_models": 2, "num_challenge_points": 1, "eval_size": 4}))
        csv_path.unlink()
        assert cli.main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 2
        assert "stage 'dataset'" in capsys.readouterr().err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "milab.harness.cli", "theory", "--k", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("k,tpr,p,fpr")

    def test_static_and_strict_subcommands(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        hc.dump_config(tiny_config(num_challenge_points=2), str(cfg_path))
        cache = str(tmp_path / "cache")
        assert cli.main(["static", "--config", str(cfg_path), "--k", "1",
                         "--out", str(tmp_path / "s1"), "--cache", cache]) == 0
        assert cli.main(["run", "--config", str(cfg_path), "--game-strict",
                         "--out", str(tmp_path / "strict"), "--cache", cache]) == 0
        capsys.readouterr()

    def test_ablate_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        hc.dump_config(tiny_config(), str(cfg_path))
        assert cli.main(["ablate", "--config", str(cfg_path), "--knob",
                         "neighborhood_size", "--values", "4,8",
                         "--out", str(tmp_path / "ab")]) == 0
        out = capsys.readouterr().out
        assert out.count("chameleon") == 2
        assert (tmp_path / "ab" / "ablation.csv").exists()
