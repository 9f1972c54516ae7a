import tracemalloc
from dataclasses import fields
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biaslab_reference import (d_max, max_margin_1d, reference_neighbors, reference_run_bias_trials,
                               smote_1d)
from dube import rng
from dube.biaslab import (BIAS_STRATEGIES, ToyConfig, TrialDraws, _neighbor_tables, _smote_draws,
                          check_pbda_bound, draw_trials, pbda_bound_values, run_bias_trials)
from dube.dataset import make_gaussian_1d

FIG_TOY = dict(n_min=3, n_maj=15, mu_min=0.0, mu_maj=4.0, sigma=1.0)


class TestMaxMargin:
    def test_symmetric_pair(self):
        assert max_margin_1d([-1.0, 1.0], [1, 0]) == 0.0

    def test_separable_groups(self):
        assert max_margin_1d([0.0, 1.0, 3.0, 5.0], [1, 1, 0, 0]) == 2.0

    def test_overlapping_uses_same_formula(self):
        assert max_margin_1d([0.0, 4.0, 3.0, 5.0], [1, 1, 0, 0]) == 3.5

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            max_margin_1d([1.0, 2.0], [1, 1])

    def test_tight_symmetric_generator_pair(self):
        from dube import make_gaussian_1d
        ds = make_gaussian_1d(1, 1, -2.0, 2.0, 0.01, seed=4)
        boundary = max_margin_1d(ds.features[:, 0], ds.labels)
        assert abs(boundary) < 0.05


class TestDMax:
    def test_hand_values(self):
        assert d_max([1.0, 3.0], 0.0) == 3.0
        assert d_max([2.5], 2.5) == 0.0

    def test_grows_with_sample_size(self):
        # larger samples reach farther from the distribution mean
        gen = rng.stream(77, 0)
        big = np.array([d_max(gen.normal(0, 1, 15), 0.0) for _ in range(10_000)])
        small = np.array([d_max(gen.normal(0, 1, 3), 0.0) for _ in range(10_000)])
        assert big.mean() > small.mean()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            d_max([], 0.0)


class TestSmote1d:
    def test_convex_combination_stays_inside(self):
        for seed in range(20):
            out = smote_1d([0.0, 1.0], 1, 5, seed=seed)
            assert ((out >= 0.0) & (out <= 1.0)).all()

    def test_zero_new_points(self):
        assert smote_1d([0.0, 1.0], 1, 0, seed=0).size == 0

    def test_d_max_unchanged_by_oversampling(self):
        gen = rng.stream(5, 1)
        for seed in range(20):
            points = gen.normal(0, 1, 6)
            synth = smote_1d(points, 3, 12, seed=seed)
            grown = np.concatenate([points, synth])
            assert d_max(grown, 0.0) == d_max(points, 0.0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            smote_1d([1.0], 1, 2, seed=0)
        with pytest.raises(ValueError):
            smote_1d([0.0, 1.0], 2, 1, seed=0)  # k must stay below n

    def test_determinism(self):
        a = smote_1d([0.0, 0.5, 2.0], 2, 9, seed=3)
        b = smote_1d([0.0, 0.5, 2.0], 2, 9, seed=3)
        assert np.array_equal(a, b)


class TestRunBiasTrials:
    def test_ros_without_noise_equals_baseline_exactly(self):
        draws = draw_trials(ToyConfig(**FIG_TOY, trials=400, seed=9))
        baseline = run_bias_trials(draws, "none")
        ros = run_bias_trials(draws, "ROS", alpha_sigma=0.0)
        assert ros.mean_bias == baseline.mean_bias
        assert ros.var_bias == baseline.var_bias

    def test_smote_without_noise_equals_baseline_exactly(self):
        draws = draw_trials(ToyConfig(**FIG_TOY, trials=400, seed=9))
        baseline = run_bias_trials(draws, "none")
        smote = run_bias_trials(draws, "SMOTE1D", alpha_sigma=0.0)
        assert smote.mean_bias == baseline.mean_bias

    def test_rus_strictly_reduces_mean_bias(self):
        draws = draw_trials(ToyConfig(**FIG_TOY, trials=4000, seed=10))
        baseline = run_bias_trials(draws, "none")
        rus = run_bias_trials(draws, "RUS")
        assert rus.mean_bias < baseline.mean_bias

    def test_rhs_reduces_mean_bias(self):
        draws = draw_trials(ToyConfig(**FIG_TOY, trials=4000, seed=11))
        baseline = run_bias_trials(draws, "none")
        rhs = run_bias_trials(draws, "RHS")
        assert rhs.mean_bias < baseline.mean_bias

    def test_pbda_improves_replication_strategies_not_rus(self):
        draws = draw_trials(ToyConfig(**FIG_TOY, trials=6000, seed=12))
        ros = run_bias_trials(draws, "ROS").mean_bias
        ros_p = run_bias_trials(draws, "ROS", alpha_sigma=0.2).mean_bias
        rhs = run_bias_trials(draws, "RHS").mean_bias
        rhs_p = run_bias_trials(draws, "RHS", alpha_sigma=0.2).mean_bias
        rus = run_bias_trials(draws, "RUS").mean_bias
        rus_p = run_bias_trials(draws, "RUS", alpha_sigma=0.2).mean_bias
        assert ros_p < ros
        assert rhs_p < rhs
        assert rus_p >= rus  # no duplicated support points to spread

    def test_single_trial_degenerate_variance(self):
        report = run_bias_trials(draw_trials(ToyConfig(**FIG_TOY, trials=1, seed=3)), "RUS")
        assert report.var_bias == 0.0
        assert report.mean_bias >= 0.0

    def test_baseline_trial_bias_matches_max_margin_op(self):
        # the trial loop's inline boundary is exactly the max-margin op
        cfg = ToyConfig(**FIG_TOY, trials=1, seed=21)
        report = run_bias_trials(draw_trials(cfg), "none")
        gen = rng.stream(cfg.seed, rng.TRIAL, 0)
        x_maj = gen.normal(cfg.mu_maj, cfg.sigma, cfg.n_maj)
        x_min = gen.normal(cfg.mu_min, cfg.sigma, cfg.n_min)
        xs = np.concatenate([x_maj, x_min])
        ys = np.repeat([0, 1], [cfg.n_maj, cfg.n_min])
        expected = abs(cfg.optimal_boundary - max_margin_1d(xs, ys))
        assert report.mean_bias == expected

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            run_bias_trials(draw_trials(ToyConfig(**FIG_TOY, trials=1, seed=0)), "tomek")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ToyConfig(mu_min=4.0, mu_maj=0.0)
        with pytest.raises(ValueError):
            ToyConfig(sigma=0.0)

    @pytest.mark.parametrize("toy, message", [
        (dict(FIG_TOY, n_min=0), r"n_min must be an integer in \[1, inf\], got 0"),
        (dict(FIG_TOY, mu_maj=float("inf")), "mu_maj must be finite, got inf"),
        (dict(FIG_TOY, sigma=0.0), "sigma must be finite and > 0, got 0.0"),
        # two rules broken: the first in the shared order is named
        (dict(FIG_TOY, n_maj=0, sigma=float("nan")), r"n_maj must be an integer in \[1, inf\], got 0"),
        (dict(FIG_TOY, mu_min=float("nan"), sigma=-1.0), "mu_min must be finite, got nan")])
    def test_toy_and_generator_share_their_checks(self, toy, message):
        # the sizes follow the package's integer rule and the rest its real-number rule
        for call in (lambda: ToyConfig(**toy), lambda: make_gaussian_1d(**toy, seed=0)):
            with pytest.raises(ValueError, match=f"^{message}$") as info:
                call()
            assert type(info.value) is ValueError

    @pytest.mark.parametrize("field", ["mu_min", "mu_maj", "sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            ToyConfig(**{field: value})

    def test_smote_needs_two_minority_points_before_any_draw(self):
        # draws holding only a config: reading any trial would raise AttributeError
        undrawn = SimpleNamespace(cfg=ToyConfig(**dict(FIG_TOY, n_min=1), trials=5, seed=0))
        with pytest.raises(ValueError, match="SMOTE1D needs at least two minority points"):
            run_bias_trials(undrawn, "SMOTE1D")

    @pytest.mark.parametrize("alpha_sigma", [float("nan"), float("inf"), -0.5])
    def test_bad_alpha_sigma_rejected_before_any_draw(self, alpha_sigma):
        undrawn = SimpleNamespace(cfg=ToyConfig(**FIG_TOY, trials=5, seed=0))
        with pytest.raises(ValueError, match="alpha_sigma must be finite and >= 0"):
            run_bias_trials(undrawn, "ROS", alpha_sigma)

    def test_draws_are_read_only(self):
        draws = draw_trials(ToyConfig(**FIG_TOY, trials=3, seed=0))
        assert [f.name for f in fields(TrialDraws)] == ["cfg", "x_maj", "x_min", "saved"]
        assert draws.saved.shape == (3, 13) and draws.saved.dtype == np.uint64
        for arr in (draws.x_maj, draws.x_min, draws.saved):
            with pytest.raises(ValueError):
                arr[0, 0] = 0

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_saved_state_resumes_each_trial_stream(self, seed):
        cfg = ToyConfig(**FIG_TOY, trials=5, seed=seed)
        draws = draw_trials(cfg)
        restored = np.random.Generator(np.random.Philox(0))
        for i in range(cfg.trials):
            gen = rng.stream(seed, rng.TRIAL, i)
            gen.normal(size=cfg.n_maj + cfg.n_min)
            restored.bit_generator.state = draws.state(i)
            assert restored.integers(0, 2**63, 9).tolist() == gen.integers(0, 2**63, 9).tolist()
            assert restored.random(5).tolist() == gen.random(5).tolist()

    def test_zero_smote_draws_consume_nothing(self):
        gen, fresh = rng.stream(3, 1), rng.stream(3, 1)
        points = np.array([0.0, 1.0, 3.0])
        assert _smote_draws(points, _neighbor_tables(points[None], 2)[0], 0, gen).shape == (0,)
        assert gen.random(4).tolist() == fresh.random(4).tolist()

    @pytest.mark.parametrize("n_min, n_maj", [(6, 4), (5, 5)])
    @pytest.mark.parametrize("alpha_sigma", [0.0, 0.2])
    def test_smote_that_adds_no_point_equals_baseline_exactly(self, n_min, n_maj, alpha_sigma):
        # with n_min >= n_maj SMOTE1D draws nothing, so its noise is the none row's
        draws = draw_trials(ToyConfig(n_min=n_min, n_maj=n_maj, trials=300, seed=7))
        smote = run_bias_trials(draws, "SMOTE1D", alpha_sigma)
        none = run_bias_trials(draws, "none", alpha_sigma)
        assert (smote.mean_bias, smote.var_bias) == (none.mean_bias, none.var_bias)

    @pytest.mark.parametrize("n_min, n_maj", [(6, 4), (5, 5)])
    @pytest.mark.parametrize("alpha_sigma", [0.0, 0.2])
    def test_smote_that_adds_no_point_builds_no_table(self, monkeypatch, n_min, n_maj,
                                                      alpha_sigma):
        import dube.biaslab as lab
        calls = []
        monkeypatch.setattr(lab, "_neighbor_tables", lambda *args: calls.append(args))
        draws = draw_trials(ToyConfig(n_min=n_min, n_maj=n_maj, trials=20, seed=7))
        assert run_bias_trials(draws, "SMOTE1D", alpha_sigma).strategy == "SMOTE1D"
        assert calls == []


class TestSharedDrawsMatchReference:
    @settings(max_examples=100, deadline=None)
    @given(trials=st.integers(1, 40), n_min=st.integers(2, 6), n_maj=st.integers(1, 20),
           seed=st.integers(0, 2**64 - 1))
    def test_every_row_equals_the_per_row_loop(self, trials, n_min, n_maj, seed):
        cfg = ToyConfig(n_min=n_min, n_maj=n_maj, trials=trials, seed=seed)
        draws = draw_trials(cfg)  # one set for all rows, in the CLI's row order
        for strategy in BIAS_STRATEGIES:
            for alpha_sigma in (0.0, 0.2):
                got = run_bias_trials(draws, strategy, alpha_sigma)
                ref = reference_run_bias_trials(cfg, strategy, alpha_sigma)
                assert (got.mean_bias, got.var_bias) == (ref.mean_bias, ref.var_bias), \
                    (strategy, alpha_sigma)


@st.composite
def minority_samples(draw):
    """(trials, n) minority draws and a neighbor count k < n; the few
    distinct values make equal distances, so ties, common."""
    trials, n = draw(st.integers(1, 12)), draw(st.integers(2, 7))
    values = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.5]),
                           min_size=trials * n, max_size=trials * n))
    return np.array(values).reshape(trials, n), draw(st.integers(1, n - 1))


class TestNeighborTables:
    @settings(max_examples=100, deadline=None)
    @given(sample=minority_samples(), step=st.integers(1, 5))
    @example(sample=(np.tile([0.0, 1.0, 0.0], (7, 1)), 2), step=3)  # blocks of 3, 3 and 1
    def test_blocks_equal_one_stable_argsort_per_trial(self, sample, step):
        x_min, k = sample
        n = x_min.shape[1]
        # a cap holding `step` trials of distances and their sort order
        with mock.patch("dube.biaslab._TABLE_BYTES", 16 * n * n * step):
            tables = _neighbor_tables(x_min, k)
        assert tables.shape == (*x_min.shape, k)
        for points, table in zip(x_min, tables):
            assert table.tolist() == reference_neighbors(points, k).tolist()

    def test_a_row_holds_one_block_of_distances(self):
        # unblocked, the tables of 100 trials of 200 minority points would hold
        # 100 x 200^2 x 8 bytes (32 MB) of distances and as much of sort order
        import dube.biaslab as lab
        cfg = ToyConfig(n_min=200, n_maj=250, trials=100, seed=5)
        draws = draw_trials(cfg)
        tables = cfg.trials * cfg.n_min * 5 * np.dtype(np.intp).itemsize
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_bias_trials(draws, "SMOTE1D", 0.2)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # 1 MB for the row's other arrays (per-trial samples and noise, the
        # boundaries) and numpy's index and sort buffers, about 0.13 MB in all
        assert peak < lab._TABLE_BYTES + tables + (1 << 20), peak


class TestPbdaBound:
    def test_nrep1_collapses_to_zero(self):
        chk = check_pbda_bound(1, 0.5, trials=20_000, seed=1)
        assert chk.lower == 0.0
        assert chk.upper == 0.0
        assert abs(chk.empirical_mean) < 0.01

    def test_nrep4_unit_sigma_bracket(self):
        lower, upper = pbda_bound_values(4, 1.0)
        assert lower == pytest.approx(0.7979, abs=2e-4)
        assert upper == pytest.approx(1.6651, abs=2e-4)
        chk = check_pbda_bound(4, 1.0, trials=30_000, seed=2)
        assert lower <= chk.empirical_mean <= upper

    def test_scale_equivariance_is_exact(self):
        a = check_pbda_bound(8, 0.3, trials=5_000, seed=4)
        b = check_pbda_bound(8, 0.6, trials=5_000, seed=4)
        assert b.empirical_mean == 2.0 * a.empirical_mean
        assert b.lower == pytest.approx(2.0 * a.lower, abs=1e-15)
        assert b.upper == pytest.approx(2.0 * a.upper, abs=1e-15)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            check_pbda_bound(0, 0.5, 10)
        with pytest.raises(ValueError):
            check_pbda_bound(2, -1.0, 10)
        with pytest.raises(ValueError):
            check_pbda_bound(2, 0.5, 0)
