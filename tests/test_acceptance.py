"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The two end-to-end trend
criteria (8, 9) train around a thousand small models and take a few minutes
combined on one core; everything else completes in seconds.
"""

import logging
import math
import os
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from milab import metrics as mt
from milab import theory as th
from milab.datagen import Dataset, make_split_plan
from milab.harness import config as hc
from milab.harness import runner as hr
from milab.neighborhood import kl_gaussian
from milab.nncore import DpConfig, TrainConfig
from milab.poisoner import (PoisonConfig, adapt_poison_multi,
                            adapt_poison_single, make_challenge_set)
from oracles import mean_grads, mean_loss, np_oracle, prob_correct
from test_harness import model_stats

logging.disable(logging.WARNING)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


class TestCriterion1:
    def test_optimal_tpr_matches_lp_oracle(self):
        gen = np.random.default_rng(20240501)
        params = [th.TheoryParams(gen.uniform(0.1, 2.0), int(gen.integers(2, 101)),
                                  int(gen.integers(0, 21)), 0, float(gen.uniform(0, 1)))
                  for _ in range(1000)]
        start = time.perf_counter()
        worst = max(abs(th.optimal_tpr(p).tpr - np_oracle(p).tpr) for p in params)
        elapsed = time.perf_counter() - start
        report(1, worst < 1e-9 and elapsed < 1.0,
               f"closed form vs LP oracle on 1000 tuples: worst |diff| = "
               f"{worst:.2e} (tol 1e-9), {elapsed:.2f}s (< 1s)")


class TestCriterion2:
    def test_k_sweep_rises_then_falls(self):
        start = time.perf_counter()
        curve = th.tpr_vs_k_curve(0.5, 10, 0.05, range(7))
        tprs = [p.tpr for p in curve]
        elapsed = time.perf_counter() - start
        peak = int(np.argmax(tprs))
        ok = (tprs[1] > tprs[0] and 1 <= peak <= 4 and tprs[6] < tprs[peak]
              and elapsed < 1.0)
        report(2, ok,
               f"tau=0.5 C=10 fpr=5%: tpr(k)={[round(v, 4) for v in tprs]}, "
               f"peak at k={peak} in [1,4], tpr(6) < tpr(peak), {elapsed:.3f}s (< 1s)")


class TestCriterion3:
    def test_classification_probability_properties(self):
        start = time.perf_counter()
        uniform_ok = all(
            prob_correct(th.TheoryParams(0.7, C, 0, 0)) == 1.0 / C
            for C in range(2, 60))
        gen = np.random.default_rng(7)
        mono_ok, order_ok = True, True
        for _ in range(1000):
            tau = gen.uniform(0.1, 2.0)
            C = int(gen.integers(2, 101))
            k = int(gen.integers(0, 20))
            p_in = prob_correct(th.TheoryParams(tau, C, k, 1))
            p_out = prob_correct(th.TheoryParams(tau, C, k, 0))
            order_ok &= p_in >= p_out
            m1 = int(gen.integers(0, 2))
            mono_ok &= (prob_correct(th.TheoryParams(tau, C, k, m1))
                        > prob_correct(th.TheoryParams(tau, C, k + 1, m1)))
        elapsed = time.perf_counter() - start
        report(3, uniform_ok and mono_ok and order_ok and elapsed < 1.0,
               f"k=0,m1=0 gives exactly 1/C; strict decrease in k; member >= "
               f"non-member on 1000 tuples; {elapsed:.2f}s (< 1s)")


class TestCriterion4:
    @staticmethod
    def quadrature_kl(a, b):
        mu_a, var_a = a
        mu_b, var_b = b

        def integrand(t):
            log_pa = -(t - mu_a) ** 2 / (2 * var_a) - 0.5 * math.log(2 * math.pi * var_a)
            log_pb = -(t - mu_b) ** 2 / (2 * var_b) - 0.5 * math.log(2 * math.pi * var_b)
            return math.exp(log_pa) * (log_pa - log_pb)

        width = 40 * math.sqrt(var_a)
        return quad(integrand, mu_a - width, mu_a + width, limit=300)[0]

    def test_closed_form_matches_quadrature(self):
        gen = np.random.default_rng(11)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            a = (float(gen.uniform(-4, 4)), float(gen.uniform(0.05, 6.0)))
            b = (float(gen.uniform(-4, 4)), float(gen.uniform(0.05, 6.0)))
            worst = max(worst, abs(kl_gaussian(a, b) - self.quadrature_kl(a, b)))
        identity_ok = kl_gaussian((1.7, 0.3), (1.7, 0.3)) == 0.0
        elapsed = time.perf_counter() - start
        report(4, worst < 1e-6 and identity_ok and elapsed < 5.0,
               f"closed-form KL vs adaptive quadrature on 100 pairs: worst "
               f"|diff| = {worst:.2e} (tol 1e-6); KL(a||a) == 0 exactly; "
               f"{elapsed:.2f}s (< 5s)")


class TestCriterion5:
    def test_metric_oracles(self):
        gen = np.random.default_rng(13)
        start = time.perf_counter()
        auc_ok = acc_ok = tpr_ok = True
        for _ in range(200):
            s_in = (gen.integers(0, 9, size=int(gen.integers(1, 17))) / 8.0).tolist()
            s_out = (gen.integers(0, 9, size=int(gen.integers(1, 17))) / 8.0).tolist()
            # Pairwise brute force in exact arithmetic.
            wins = sum(Fraction(1) if a > b else Fraction(1, 2) if a == b else 0
                       for a in s_in for b in s_out)
            auc_ok &= mt.auc(s_in, s_out) == pytest.approx(
                float(wins / (len(s_in) * len(s_out))), abs=1e-12)
            # Exhaustive threshold search.
            thresholds = s_in + s_out + [np.inf]
            best_bal = max((np.mean(np.asarray(s_in) >= t)
                            + np.mean(np.asarray(s_out) < t)) / 2
                           for t in thresholds)
            acc_ok &= mt.compute_report(s_in, s_out).mi_accuracy == pytest.approx(
                best_bal, abs=1e-12)
            curve = mt.roc_curve(s_in, s_out)
            target = float(gen.uniform(0, 1))
            achievable = [(np.mean(np.asarray(s_out) >= t),
                           np.mean(np.asarray(s_in) >= t)) for t in thresholds]
            best_tpr = max((tp for fp, tp in achievable if fp <= target), default=0.0)
            tpr_ok &= mt.tpr_at_fpr(curve, target) == pytest.approx(best_tpr, abs=1e-12)
        elapsed = time.perf_counter() - start
        report(5, auc_ok and acc_ok and tpr_ok and elapsed < 5.0,
               f"auc == O(n^2) pairwise, mi_accuracy and tpr_at_fpr == exhaustive "
               f"threshold search on 200 random score sets; {elapsed:.2f}s (< 5s)")


class TestCriterion6:
    def test_gradients_match_finite_differences(self):
        gen = np.random.default_rng(17)
        start = time.perf_counter()
        worst = 0.0
        for case in range(20):
            dims = [int(gen.integers(2, 7)), int(gen.integers(3, 8)),
                    int(gen.integers(2, 5))]
            if case % 3 == 0:
                dims.insert(2, int(gen.integers(3, 6)))  # two hidden layers
            layers = [(gen.normal(0, 0.6, (o, i)), gen.normal(0, 0.6, o))
                      for i, o in zip(dims[:-1], dims[1:])]
            X = gen.normal(0, 1, (int(gen.integers(2, 8)), dims[0]))
            y = gen.integers(0, dims[-1], X.shape[0])
            analytic = mean_grads(layers, X, y)
            h = 1e-5
            for li, (w, b) in enumerate(layers):
                for arr, g_an in ((w, analytic[li][0]), (b, analytic[li][1])):
                    fd = np.zeros_like(arr)
                    it = np.nditer(arr, flags=["multi_index"])
                    for _ in it:
                        ix = it.multi_index
                        orig = arr[ix]
                        arr[ix] = orig + h
                        lp = mean_loss(layers, X, y)
                        arr[ix] = orig - h
                        lm = mean_loss(layers, X, y)
                        arr[ix] = orig
                        fd[ix] = (lp - lm) / (2 * h)
                    rel = (np.linalg.norm(fd - g_an)
                           / max(np.linalg.norm(g_an), 1e-8))
                    worst = max(worst, rel)
        elapsed = time.perf_counter() - start
        report(6, worst < 1e-4 and elapsed < 10.0,
               f"analytic vs central finite-difference gradients on 20 random "
               f"(architecture, batch) cases: worst relative error = {worst:.2e} "
               f"(tol 1e-4); {elapsed:.2f}s (< 10s)")


class _CountingStub:
    """Stub trainer: model confidence on the challenge point is mu(k) where k
    is the number of poisoned replicas present in the training set."""

    def __init__(self, schedules):
        self.schedules = schedules  # {feature-bytes: (y, y_p, mu_fn)}
        self.models_trained = 0

    def __call__(self, jobs):
        self.models_trained += len(jobs)
        return [self._model(recipe.build()) for recipe, _ in jobs]

    def _model(self, train_set):
        schedules = self.schedules

        class Model:
            def predict_proba(self, x):
                x = np.asarray(x, dtype=np.float64)
                if x.ndim == 2:  # a stack: answer row by row
                    return np.stack([self.predict_proba(row) for row in x])
                key = x.tobytes()
                C = train_set.num_classes
                probs = np.full(C, 1.0 / C)
                if key in schedules:
                    y, y_p, mu_fn = schedules[key]
                    matches = (train_set.features == np.asarray(x)).all(axis=1)
                    k = int(np.sum(matches & (train_set.labels == y_p)))
                    conf = mu_fn(k)
                    probs = np.full(C, (1.0 - conf) / (C - 1))
                    probs[y] = conf
                return probs

        return Model()


class TestCriterion7:
    def test_algorithm_traces_and_model_accounting(self):
        start = time.perf_counter()
        gen = np.random.default_rng(19)
        d_adv = Dataset(gen.normal(0, 1, (20, 3)), gen.integers(0, 4, 20), 4)
        x = np.array([50.0, 50.0, 50.0])
        # The point is the last row of its pool.
        pool = Dataset(np.vstack([d_adv.features, x]), np.append(d_adv.labels, 1), 4)
        point = make_challenge_set(pool, [len(d_adv)])
        checks = []

        def run_single(mu_fn, t_p, m, k_max):
            stub = _CountingStub({x.tobytes(): (1, 2, mu_fn)})
            k, _ = adapt_poison_single(point, 0, pool, PoisonConfig(t_p, m, k_max), stub)
            return k, stub.models_trained

        k, trained = run_single(lambda k: max(0.0, 0.9 - 0.3 * k), 0.15, 4, 6)
        checks.append(("single linear-decay k", k == 3 and trained == 4 * 4))
        k, trained = run_single(lambda k: 0.5, 0.15, 4, 6)
        checks.append(("single exhaustion k", k == 6 and trained == 7 * 4))
        k, trained = run_single(lambda k: 0.9, 1.0, 4, 6)
        checks.append(("single t_p=1 never poisons", k == 0 and trained == 4))

        def run_multi(mu_fns, t_p, m, k_max, n_points=3):
            ds = Dataset(gen.normal(0, 1, (30, 3)), gen.integers(0, 4, 30), 4)
            challenges = make_challenge_set(ds, list(range(n_points)))
            schedules = {
                challenges.features[i].tobytes(): (
                    int(challenges.labels[i]), int(challenges.poisoned_labels[i]),
                    mu_fns[i])
                for i in range(n_points)}
            stub = _CountingStub(schedules)
            plan = adapt_poison_multi(challenges, ds, PoisonConfig(t_p, m, k_max), stub)
            return plan, stub.models_trained

        plan, trained = run_multi([lambda k: 0.9] * 3, 0.15, 8, 6)
        checks.append(("multi full loop trains 2(k_max+1)m = 112",
                       trained == 112 and plan.models_trained == 112
                       and plan.replica_counts.tolist() == [6, 6, 6]))
        plan, trained = run_multi([lambda k: 0.9] * 3, 1.0, 8, 6)
        checks.append(("multi immediate freeze trains 2m",
                       trained == 16 and plan.replica_counts.tolist() == [0, 0, 0]))
        early = lambda k: 0.9 if k < 2 else 0.05
        plan, trained = run_multi([early] * 3, 0.15, 4, 6)
        checks.append(("multi early exit after iteration 2 trains 2*3*m",
                       trained == 2 * 3 * 4 and plan.replica_counts.tolist() == [2, 2, 2]))
        mixed = [lambda k: 0.05, lambda k: max(0.0, 0.8 - 0.2 * k), lambda k: 0.9]
        plan, _ = run_multi(mixed, 0.1, 2, 6)
        checks.append(("multi per-point freeze counts",
                       plan.replica_counts.tolist() == [0, 4, 6]))

        elapsed = time.perf_counter() - start
        failed = [name for name, ok in checks if not ok]
        report(7, not failed and elapsed < 1.0,
               f"hand-traced adaptive-poisoning runs ({len(checks)} traces) "
               f"reproduce k values and model counts exactly; {elapsed:.2f}s (< 1s)"
               + (f"; failed: {failed}" if failed else ""))


class TestCriterion8:
    def test_end_to_end_attack_trends(self, tmp_path):
        start = time.perf_counter()
        seeds = range(5)
        static_ks = range(5)
        ch_auc, gap_auc, adapt_tpr = [], [], []
        static_tpr_res = {k: [] for k in static_ks}
        static_tpr_5 = {k: [] for k in static_ks}
        for seed in seeds:
            cfg = hc.ExperimentConfig(master_seed=seed)
            cache = str(tmp_path / f"cache{seed}")
            res = hr.run_privacy_game(cfg, str(tmp_path / f"run{seed}"),
                                      cache_dir=cache)
            n_obs = cfg.num_target_models * cfg.num_challenge_points
            assert sum(s.size for s in res.scores.values()) == n_obs * len(cfg.attacks)
            ch_auc.append(res.reports["chameleon"].auc)
            gap_auc.append(res.reports["gap"].auc)
            adapt_tpr.append(res.reports["chameleon"].tpr_at_resolution)
            for k in static_ks:
                rs = hr.run_privacy_game(cfg, str(tmp_path / f"s{seed}_{k}"),
                                         cache_dir=cache,
                                         replica_counts=np.full(cfg.num_challenge_points, k))
                static_tpr_res[k].append(rs.reports["chameleon"].tpr_at_resolution)
                static_tpr_5[k].append(rs.reports["chameleon"].tpr_at[0.05])
        elapsed = time.perf_counter() - start

        auc_margin = float(np.mean(ch_auc) - np.mean(gap_auc))
        a_ok = auc_margin >= 0.05

        adapt_mean = float(np.mean(adapt_tpr))
        bounds = {}
        for k in static_ks:
            v = static_tpr_res[k]
            se = float(np.std(v, ddof=1) / np.sqrt(len(v)))
            bounds[k] = float(np.mean(v)) - se
        b_ok = all(adapt_mean >= bound for bound in bounds.values())

        curve = [float(np.mean(static_tpr_5[k])) for k in static_ks]
        peak = int(np.argmax(curve))
        c_ok = 1 <= peak <= 3 and curve[0] < curve[peak] and curve[4] < curve[peak]

        report(8, a_ok and b_ok and c_ok and elapsed < 1800,
               "end-to-end over 5 seeds: "
               f"(a) chameleon auc {np.mean(ch_auc):.3f} >= gap auc "
               f"{np.mean(gap_auc):.3f} + 0.05 (margin {auc_margin:.3f}); "
               f"(b) adaptive tpr@resolvable {adapt_mean:.3f} >= static bounds "
               f"{ {k: round(v, 3) for k, v in bounds.items()} }; "
               f"(c) static tpr@5%fpr curve {[round(v, 3) for v in curve]} "
               f"peaks at k={peak} and falls; {elapsed:.0f}s (< 30 min)")


class TestCriterion9:
    def test_dp_sgd_mitigates_the_attack(self, tmp_path):
        start = time.perf_counter()
        noise_levels = (0.0, 0.5, 1.0)
        aucs = {nm: [] for nm in noise_levels}
        accs = {nm: [] for nm in noise_levels}
        for seed in range(3):
            for nm in noise_levels:
                cfg = hc.ExperimentConfig(master_seed=seed, num_challenge_points=16)
                dp = None if nm == 0.0 else DpConfig(clip_norm=5.0, noise_multiplier=nm)
                cfg = replace(cfg, train=replace(cfg.train, dp=dp))
                res = hr.run_privacy_game(cfg, str(tmp_path / f"dp{seed}_{nm}"),
                                          cache_dir=str(tmp_path / f"c{seed}_{nm}"))
                aucs[nm].append(res.reports["chameleon"].auc)
                accs[nm].append(float(np.mean(model_stats(res.out_dir)[1])))
        elapsed = time.perf_counter() - start
        mean_auc = [float(np.mean(aucs[nm])) for nm in noise_levels]
        mean_acc = [float(np.mean(accs[nm])) for nm in noise_levels]
        auc_ok = mean_auc[0] > mean_auc[1] > mean_auc[2] >= 0.45
        acc_ok = mean_acc[0] > mean_acc[1] > mean_acc[2]
        report(9, auc_ok and acc_ok and elapsed < 900,
               f"noise multipliers {noise_levels}: chameleon auc "
               f"{[round(v, 3) for v in mean_auc]} degrades toward 0.5 while "
               f"model accuracy {[round(v, 3) for v in mean_acc]} drops; "
               f"{elapsed:.0f}s (< 15 min)")


class TestCriterion10:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg = hc.ExperimentConfig(master_seed=3)
        hr.run_privacy_game(cfg, str(tmp_path / "a"), cache_dir=str(tmp_path / "ca"))
        hr.run_privacy_game(cfg, str(tmp_path / "b"), cache_dir=str(tmp_path / "cb"))
        same = {}
        for name in ("metrics.csv", "scores.csv", "model_stats.csv",
                     "metrics_chameleon.json", "metrics_gap.json"):
            same[name] = ((tmp_path / "a" / name).read_bytes()
                          == (tmp_path / "b" / name).read_bytes())
        report(10, all(same.values()),
               f"two full runs with identical config produce byte-identical "
               f"metric outputs: { {k: v for k, v in same.items()} }")
