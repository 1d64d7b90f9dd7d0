import numpy as np
import pytest

from crl_lab import flow, metrics, multiview
from crl_lab.errors import ConfigError


class TestSamplePairs:
    def setup_method(self):
        self.proc = multiview.default_process(n_c=2, n_s=3, statistical=True,
                                              causal=True, change_prob=0.6,
                                              seed=1)

    def test_content_block_shared_bitwise(self):
        pairs = multiview.sample_pairs(self.proc, 5000, seed=2)
        np.testing.assert_array_equal(pairs.z[:, :2], pairs.z_tilde[:, :2])

    def test_unchanged_style_coordinates_identical(self):
        pairs = multiview.sample_pairs(self.proc, 5000, seed=3)
        s, s_t = pairs.z[:, 2:], pairs.z_tilde[:, 2:]
        np.testing.assert_array_equal(s[~pairs.changed], s_t[~pairs.changed])

    def test_change_probability(self):
        pairs = multiview.sample_pairs(self.proc, 20_000, seed=4)
        rate = pairs.changed.mean()
        assert abs(rate - 0.6) < 3 * np.sqrt(0.6 * 0.4 / (20_000 * 3))

    def test_conditional_perturbation_moments(self):
        pairs = multiview.sample_pairs(self.proc, 30_000, seed=5)
        s, s_t = pairs.z[:, 2:], pairs.z_tilde[:, 2:]
        for l in range(3):
            sel = pairs.changed[:, l]
            diff = (s_t[:, l] - s[:, l])[sel]
            n = diff.size
            var_l = self.proc.change_var[l]
            assert abs(diff.mean()) < 3 * np.sqrt(var_l / n)
            assert abs(diff.var() - var_l) < 0.05 * var_l

    def test_tiny_change_prob_keeps_views_identical(self):
        proc = multiview.default_process(n_c=2, n_s=2, change_prob=1e-9, seed=6)
        pairs = multiview.sample_pairs(proc, 2000, seed=7)
        np.testing.assert_array_equal(pairs.x, pairs.x_tilde)

    def test_independent_blocks_uncorrelated(self):
        proc = multiview.default_process(n_c=2, n_s=2, statistical=False,
                                         causal=False, seed=8)
        pairs = multiview.sample_pairs(proc, 40_000, seed=9)
        c, s = pairs.z[:, :2], pairs.z[:, 2:]
        corr = np.corrcoef(np.concatenate([c, s], axis=1).T)[:2, 2:]
        assert np.max(np.abs(corr)) < 3 / np.sqrt(40_000)


class TestProcessValidation:
    def test_change_prob_must_be_positive(self):
        with pytest.raises(ConfigError):
            multiview.default_process(change_prob=0.0)

    def test_covariance_must_be_pd(self):
        proc = multiview.default_process(n_c=2, n_s=2, seed=1)
        with pytest.raises(ConfigError):
            multiview.MultiViewProcess(
                n_c=2, n_s=2, cov_c=np.ones((2, 2)),
                style_offset=np.zeros(2), style_coef=np.zeros((2, 2)),
                cov_s=np.eye(2), change_prob=0.5,
                change_var=np.ones(2), mixing=proc.mixing)


class TestContentExperiment:
    def _small_cfg(self, seed, out_dim=None, epochs=25):
        return multiview.ContentExperimentConfig(
            n_pairs=6000, n_eval=2500, encoder_out=out_dim,
            train=flow.TrainConfig(lr=1e-3, epochs=epochs, n_negatives=256,
                                   temperature=0.002, patience=10, seed=seed),
            seed=seed)

    def test_reproducible(self):
        proc = multiview.default_process(n_c=2, n_s=2, seed=10)
        a = multiview.content_experiment(proc, self._small_cfg(0))
        b = multiview.content_experiment(proc, self._small_cfg(0))
        assert a == b

    def test_dimension_sweep_qualitative_pattern(self):
        # below n_c the content score degrades; above n_c style leaks in
        proc = multiview.default_process(n_c=2, n_s=2, statistical=True,
                                         causal=False, change_prob=0.75,
                                         seed=11)
        r2 = {}
        for dim in (1, 2, 4):
            rep = multiview.content_experiment(proc, self._small_cfg(3, dim))
            r2[dim] = rep.r2_per_block
        assert r2[1]["content"] < r2[2]["content"]
        assert r2[4]["style"] > r2[2]["style"]

    def test_config_records_the_seeds_it_runs_with(self):
        cfg = multiview.ContentExperimentConfig(
            train=flow.TrainConfig(seed=5), krr=metrics.KrrConfig(seed=7), seed=1)
        assert cfg.train.seed == cfg.krr.seed == 1
        resolved = cfg.to_dict()
        assert resolved["train"]["seed"] == resolved["krr"]["seed"] == 1
        assert cfg.train == flow.TrainConfig(seed=1)
