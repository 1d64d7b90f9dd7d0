from itertools import combinations

import numpy as np
import pytest
from scipy.special import chdtrc, fdtr, fdtrc

from crl_lab import mss, scm
from crl_lab.errors import CapacityError, SampleSizeError


# -- independent reference: least squares on the rows, one key at a time --


def _ols(x, y):
    """Least squares with intercept; returns (rss, n, k)."""
    X = np.column_stack([np.ones(x.shape[0]), x]) if x.shape[1] else \
        np.ones((x.shape[0], 1))
    coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    return float(resid @ resid), X.shape[0], X.shape[1]


def _key_rss(xs, key):
    e_a, e_b, node, parents = key
    ps = list(parents)
    pooled = np.concatenate([xs[e_a], xs[e_b]])
    return [_ols(x[:, ps], x[:, node])[0] for x in (xs[e_a], xs[e_b], pooled)]


def _finite_sample_pvalue(xa, ya, xb, yb):
    """Chow coefficient test + residual-variance F-test, Fisher-combined."""
    rss_a, n_a, k = _ols(xa, ya)
    rss_b, n_b, _ = _ols(xb, yb)
    rss_p, _, _ = _ols(np.concatenate([xa, xb]), np.concatenate([ya, yb]))
    dof = n_a + n_b - 2 * k
    num = max(rss_p - rss_a - rss_b, 0.0) / k
    den = (rss_a + rss_b) / dof
    p_coef = float(fdtrc(k, dof, num / max(den, 1e-300)))
    s2_a = rss_a / (n_a - k)
    s2_b = rss_b / (n_b - k)
    ratio = s2_a / max(s2_b, 1e-300)
    cdf = fdtr(n_a - k, n_b - k, ratio)
    p_var = float(2 * min(cdf, 1 - cdf))
    fisher = -2.0 * (np.log(max(p_coef, 1e-300)) + np.log(max(p_var, 1e-300)))
    return float(chdtrc(4, fisher))


def _oracle_pvalue(meta_scm, spec_a, spec_b, node, parents, tol=1e-8):
    """1.0 if node's closed-form conditional on parents is the same in both
    environments, else 0.0; the moments are formed afresh for each key."""
    scm_a = scm.apply_intervention(meta_scm, spec_a) if spec_a.targets else meta_scm
    scm_b = scm.apply_intervention(meta_scm, spec_b) if spec_b.targets else meta_scm
    pa = mss._gaussian_conditional(*scm_a.gaussian_moments(), node, parents)
    pb = mss._gaussian_conditional(*scm_b.gaussian_moments(), node, parents)
    same = (np.allclose(pa[0], pb[0], atol=tol)
            and abs(pa[1] - pb[1]) <= tol
            and abs(pa[2] - pb[2]) <= tol * max(1.0, pa[2]))
    return 1.0 if same else 0.0


def all_keys(n, n_envs):
    return [(a, b, node, ps) for a in range(n_envs) for b in range(a + 1, n_envs)
            for node in range(n) for r in range(n)
            for ps in combinations([j for j in range(n) if j != node], r)]


def reference_pvalues(data, n):
    xs = [env.x for env in data.envs]
    return {key: _finite_sample_pvalue(xs[key[0]][:, list(key[3])], xs[key[0]][:, key[2]],
                                       xs[key[1]][:, list(key[3])], xs[key[1]][:, key[2]])
            for key in all_keys(n, len(xs))}


def loop_score(dag, pvalues, n_envs, alpha=0.05):
    """Hard and one-minus-p soft score as the plain loop over the pairs and
    then the nodes, from a dict of p-values."""
    hard, soft = 0, 0.0
    for a, b in combinations(range(n_envs), 2):
        for node, ps in enumerate(dag.parents):
            p = pvalues[(a, b, node, ps)]
            hard += int(p < alpha)
            soft += 1.0 - p
    return hard, soft


def two_env_marginal_shift(rows=600):
    """True DAG X1 -> X2; the two environments differ only in X1's marginal."""
    dag = scm.Dag(2, ((), (0,)))
    base = scm.Scm(dag, (scm.linear_gaussian((), 0.0, 1.0),
                         scm.linear_gaussian((1.0,), 0.0, 1.0)))
    spec = scm.InterventionSpec((0,), (scm.linear_gaussian((), 1.5, 1.0),), ((),))
    shifted = scm.apply_intervention(base, spec)
    e0 = scm.EnvData(scm.InterventionSpec(), scm.ancestral_sample(base, rows, 1))
    e1 = scm.EnvData(spec, scm.ancestral_sample(shifted, rows, 2))
    return scm.MultiEnvDataset((e0, e1), 0, scm.DatasetMeta(scm=base))


class TestMssScore:
    def test_single_environment_scores_zero(self):
        data = two_env_marginal_shift()
        solo = scm.MultiEnvDataset((data.envs[0],), 0, data.meta)
        for dag in scm.enumerate_dags(2):
            hard, soft = mss.mss_score(dag, solo, mss.CiInvarianceTest("oracle"))
            assert hard == 0 and soft == 0.0

    def test_bogus_soft_kind_rejected_before_any_test(self, monkeypatch):
        data = two_env_marginal_shift()
        solo = scm.MultiEnvDataset((data.envs[0],), 0, data.meta)
        calls = []
        monkeypatch.setattr(mss, "_pvalues", lambda *args: calls.append(args))
        dag = scm.Dag(2, ((), (0,)))
        for d in (solo, data):
            with pytest.raises(ValueError):
                mss.mss_score(dag, d, mss.CiInvarianceTest("oracle"),
                              soft_kind="bogus")
        assert calls == []

    def test_identical_environments_score_zero(self):
        data = two_env_marginal_shift()
        dup = scm.MultiEnvDataset((data.envs[0], data.envs[0]), 0, data.meta)
        for dag in scm.enumerate_dags(2):
            hard, _ = mss.mss_score(dag, dup, mss.CiInvarianceTest("oracle"))
            assert hard == 0

    def test_marginal_shift_oracle_scores(self):
        # analytic factorization oracle: only X1's mechanism changes, so the
        # true graph pays 1, the empty graph and the reversed graph pay 2
        data = two_env_marginal_shift()
        oracle = mss.CiInvarianceTest("oracle")
        scores = {d.parents: mss.mss_score(d, data, oracle)[0]
                  for d in scm.enumerate_dags(2)}
        assert scores[((), (0,))] == 1
        assert scores[((), ())] == 2
        assert scores[((1,), ())] == 2

    def test_finite_sample_matches_oracle_on_strong_shift(self):
        data = two_env_marginal_shift(rows=2000)
        fs = mss.CiInvarianceTest("linear-gaussian", alpha=0.01)
        scores = {d.parents: mss.mss_score(d, data, fs)[0]
                  for d in scm.enumerate_dags(2)}
        assert scores[((), (0,))] == 1
        assert scores[((), ())] == 2

    def test_sample_size_guard(self):
        data = two_env_marginal_shift(rows=15)
        with pytest.raises(SampleSizeError):
            mss.mss_score(scm.Dag(2, ((), (0,))), data,
                          mss.CiInvarianceTest("linear-gaussian"))

    def test_pair_decomposition(self):
        data = mss.generate_mss_problem(3, 4, 800, seed=3)
        oracle = mss.CiInvarianceTest("oracle")
        dag = data.meta.scm.dag
        total, _ = mss.mss_score(dag, data, oracle)
        pair_sum = 0
        for a in range(4):
            for b in range(a + 1, 4):
                sub = scm.MultiEnvDataset((data.envs[a], data.envs[b]), 0,
                                          data.meta)
                pair_sum += mss.mss_score(dag, sub, oracle)[0]
        assert total == pair_sum

    def test_soft_score_monotone_in_environments(self):
        data = mss.generate_mss_problem(3, 5, 800, seed=4)
        fs = mss.CiInvarianceTest("linear-gaussian")
        dag = data.meta.scm.dag
        softs = []
        for k in (2, 3, 4, 5):
            sub = scm.MultiEnvDataset(data.envs[:k], 0, data.meta)
            softs.append(mss.mss_score(dag, sub, fs)[1])
        assert all(b >= a - 1e-12 for a, b in zip(softs, softs[1:]))

    def test_finite_sample_pvalue_equals_scipy_stats_reference(self):
        from scipy import stats

        cases, expected = [], []
        for seed in range(60):
            rng = np.random.default_rng([seed, 7])
            k, n_a, n_b = (int(v) for v in rng.integers([0, 20, 20], [4, 300, 300]))
            # odd seeds shift the second environment; even seeds do not
            shift, scale = rng.uniform(0, 0.5, size=2) * (seed % 2)
            xa = rng.standard_normal((n_a, k))
            xb = rng.standard_normal((n_b, k))
            ya = xa.sum(axis=1) + rng.standard_normal(n_a)
            yb = (1 + shift) * xb.sum(axis=1) + shift + \
                (1 + scale) * rng.standard_normal(n_b)
            rss_a, n_a, k = _ols(xa, ya)
            rss_b, n_b, _ = _ols(xb, yb)
            rss_p, _, _ = _ols(np.concatenate([xa, xb]),
                               np.concatenate([ya, yb]))
            cases.append((rss_a, rss_b, rss_p, n_a, n_b, k))
            dof = n_a + n_b - 2 * k
            num = max(rss_p - rss_a - rss_b, 0.0) / k
            den = (rss_a + rss_b) / dof
            p_coef = float(stats.f.sf(num / max(den, 1e-300), k, dof))
            ratio = (rss_a / (n_a - k)) / max(rss_b / (n_b - k), 1e-300)
            cdf = stats.f.cdf(ratio, n_a - k, n_b - k)
            p_var = float(2 * min(cdf, 1 - cdf))
            fisher = -2.0 * (np.log(max(p_coef, 1e-300))
                             + np.log(max(p_var, 1e-300)))
            expected.append(float(stats.chi2.sf(fisher, 4)))
        got = mss._pvalues_from_rss(*(np.array(col) for col in zip(*cases)))
        for seed, (g, e) in enumerate(zip(got.tolist(), expected)):
            assert g == e, seed


class TestSufficientStatistics:
    @pytest.mark.parametrize("seed", range(8))
    def test_rss_matches_least_squares_on_rows(self, seed):
        # the means of the three environments lie up to 1e4 apart
        rng = np.random.default_rng([seed, 11])
        d = 4
        mix = rng.standard_normal((d, d)) * np.tri(d, k=-1) + np.eye(d)
        xs = [(rng.standard_normal((int(rows), d)) * rng.uniform(0.5, 2.0, d)) @ mix.T
              + rng.uniform(-1, 1, d) * 10.0 ** rng.uniform(0, 4)
              for rows in rng.integers(40, 2000, size=3)]
        keys = all_keys(d, 3)
        got = mss._local_rss(xs, keys)
        expected = np.array([_key_rss(xs, key) for key in keys])
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0)

    def test_chunked_batch_equals_one_batch(self, monkeypatch):
        data = mss.generate_mss_problem(6, 4, 200, seed=3)
        xs = [env.x for env in data.envs]
        keys = all_keys(6, 4)
        assert len(keys) == 1152
        one_batch = mss._local_rss(xs, keys)
        sizes = []
        real = mss._rss_from_stats
        monkeypatch.setattr(mss, "_rss_from_stats",
                            lambda *a: sizes.append(len(a[-1])) or real(*a))
        monkeypatch.setattr(mss, "_KEY_CHUNK", 333)
        chunked = mss._local_rss(xs, keys)
        assert max(sizes) == 333 and len(sizes) > 6  # some group was split
        assert np.array_equal(chunked, one_batch)

    def test_duplicated_parent_column_falls_back_to_rows(self, monkeypatch):
        rng = np.random.default_rng(5)
        xs = []
        for rows, shift in ((300, 0.0), (250, 0.2)):
            x = rng.standard_normal((rows, 3))
            x[:, 1] = x[:, 0]
            x[:, 2] += x[:, 0] + shift
            xs.append(x)
        calls = []
        real = mss._rss_lstsq
        monkeypatch.setattr(mss, "_rss_lstsq",
                            lambda x, y: calls.append(x.shape) or real(x, y))
        keys = [(0, 1, 2, (0, 1)), (0, 1, 2, (0,)), (0, 1, 1, ())]
        got = mss._local_pvalues(xs, keys)
        # only the key whose parent block is singular is fitted on the rows
        assert calls == [(300, 2), (250, 2), (550, 2)]
        for key, p in zip(keys, got.tolist()):
            a, b, node, ps = key
            ps = list(ps)
            expected = _finite_sample_pvalue(xs[a][:, ps], xs[a][:, node],
                                             xs[b][:, ps], xs[b][:, node])
            assert p == pytest.approx(expected, rel=1e-9, abs=1e-300)

    @pytest.mark.parametrize("n, n_envs, rows, seeds", [
        (3, 5, 100, range(6)), (4, 4, 50, range(2)),
    ], ids=["n3", "n4"])
    def test_oracle_table_matches_per_key_reference(self, n, n_envs, rows, seeds):
        oracle = mss.CiInvarianceTest("oracle")
        for seed in seeds:
            data = mss.generate_mss_problem(n, n_envs, rows, seed=seed)
            keys = all_keys(n, n_envs)
            got = mss._pvalues(oracle, data, keys)
            expected = [_oracle_pvalue(data.meta.scm, data.envs[a].spec,
                                       data.envs[b].spec, node, ps)
                        for a, b, node, ps in keys]
            assert got.tolist() == expected
            assert 0 < sum(expected) < len(keys)  # both outcomes occur

    def test_pair_pvalue_is_a_batch_of_one(self):
        data = mss.generate_mss_problem(3, 3, 400, seed=2)
        test = mss.CiInvarianceTest("linear-gaussian")
        keys = all_keys(3, 3)
        batch = mss._local_pvalues([env.x for env in data.envs], keys)
        for key, p in zip(keys, batch.tolist()):
            assert mss.pair_invariance_pvalue(test, data, *key) == p


class TestMssDiscover:
    def test_unique_minimizer_on_marginal_shift(self):
        data = two_env_marginal_shift()
        res = mss.mss_discover(data, mss.CiInvarianceTest("oracle"), 2)
        assert [res.dags[i].parents for i in res.minimizers] == [((), (0,))]

    def test_dense_shifts_prohibit_orientation(self):
        # every node shifted in every environment: all graphs tie
        dag = scm.Dag(2, ((), (0,)))
        base = scm.Scm(dag, (scm.linear_gaussian((), 0.0, 1.0),
                             scm.linear_gaussian((1.0,), 0.0, 1.0)))
        spec = scm.InterventionSpec(
            (0, 1),
            (scm.linear_gaussian((), 2.0, 1.0),
             scm.linear_gaussian((1.0,), 2.0, 1.5)),
            ((), (0,)))
        shifted = scm.apply_intervention(base, spec)
        envs = (scm.EnvData(scm.InterventionSpec(),
                            scm.ancestral_sample(base, 500, 1)),
                scm.EnvData(spec, scm.ancestral_sample(shifted, 500, 2)))
        data = scm.MultiEnvDataset(envs, 0, scm.DatasetMeta(scm=base))
        res = mss.mss_discover(data, mss.CiInvarianceTest("oracle"), 2)
        assert len(res.minimizers) == 3  # no orientation information at all

    def test_true_dag_never_beaten_under_oracle(self):
        # principle-of-minimal-changes consequence on sparse-shift instances
        for seed in range(6):
            data = mss.generate_mss_problem(3, 5, 500, seed=seed)
            res = mss.mss_discover(data, mss.CiInvarianceTest("oracle"), 3)
            truth = data.meta.scm.dag.parents
            h_true = [h for d, h in zip(res.dags, res.hard)
                      if d.parents == truth][0]
            assert h_true == min(res.hard)

    @pytest.mark.parametrize("n, n_envs, rows, seeds, kinds", [
        (3, 3, 300, range(10), ("linear-gaussian", "oracle")),
        (4, 2, 200, range(2), ("linear-gaussian",)),
    ], ids=["n3", "n4"])
    def test_standalone_scores_match_discovery(self, n, n_envs, rows, seeds,
                                               kinds):
        for seed in seeds:
            data = mss.generate_mss_problem(n, n_envs, rows, seed=seed)
            for kind in kinds:
                test = mss.CiInvarianceTest(kind)
                for soft_kind in ("one-minus-p", "neglogp"):
                    res = mss.mss_discover(data, test, n, soft_kind)
                    scores = [mss.mss_score(d, data, test, soft_kind)
                              for d in scm.enumerate_dags(n)]
                    hard = tuple(h for h, _ in scores)
                    soft = tuple(s for _, s in scores)
                    ranking = tuple(sorted(range(len(scores)),
                                           key=lambda i: (hard[i], soft[i])))
                    assert res.hard == hard
                    assert res.soft == soft
                    assert res.ranking == ranking
                    assert res.minimizers == tuple(
                        i for i in ranking if hard[i] == min(hard))

    @pytest.mark.parametrize("n, n_envs, rows, seeds", [
        (3, 6, 2000, range(6)),
        (4, 6, 2000, range(2)),
    ], ids=["n3", "n4"])
    def test_discovery_matches_least_squares_reference(self, n, n_envs, rows,
                                                       seeds, monkeypatch):
        test = mss.CiInvarianceTest("linear-gaussian")
        for seed in seeds:
            data = mss.generate_mss_problem(n, n_envs, rows, seed=seed)
            ref = reference_pvalues(data, n)
            res = mss.mss_discover(data, test, n)
            # the scorer reads every p-value from the reference
            with monkeypatch.context() as m:
                m.setattr(mss, "_pvalues",
                          lambda _test, _data, keys: np.array([ref[k] for k in keys]))
                hard, soft = mss._score(res.dags, data, test, "one-minus-p")
            loop = [loop_score(d, ref, n_envs) for d in res.dags]
            assert hard == [h for h, _ in loop]
            # at most 60 terms in [0, 1], added in another order
            np.testing.assert_allclose(soft, [s for _, s in loop], rtol=1e-13, atol=0)
            hard = tuple(hard)
            ranking = tuple(sorted(range(len(hard)),
                                   key=lambda i: (hard[i], soft[i])))
            assert res.hard == hard
            assert res.ranking == ranking
            assert res.minimizers == tuple(i for i in ranking
                                           if hard[i] == min(hard))
            np.testing.assert_allclose(res.soft, soft, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_each_local_test_computed_once(self, n, monkeypatch):
        data = mss.generate_mss_problem(n, 6, 300, seed=n)
        real = mss._pvalues
        for kind in ("oracle", "linear-gaussian"):
            calls = []

            def counting(*args, **kwargs):
                assert not kwargs and len(args) == 3
                calls.append(list(args[2]))
                return real(*args)

            monkeypatch.setattr(mss, "_pvalues", counting)
            mss.mss_discover(data, mss.CiInvarianceTest(kind), n)
            assert len(calls) == 1
            keys = calls[0]
            assert len(keys) == len(set(keys)) == 15 * n * 2 ** (n - 1)

    def test_capacity_guard(self):
        data = two_env_marginal_shift()
        with pytest.raises(CapacityError):
            mss.mss_discover(data, mss.CiInvarianceTest("oracle"), 5)

    def test_soft_kind_switch(self):
        data = two_env_marginal_shift()
        fs = mss.CiInvarianceTest("linear-gaussian")
        dag = scm.Dag(2, ((), (0,)))
        _, soft_a = mss.mss_score(dag, data, fs, soft_kind="one-minus-p")
        _, soft_b = mss.mss_score(dag, data, fs, soft_kind="neglogp")
        assert soft_a != soft_b
        with pytest.raises(ValueError):
            mss.mss_score(dag, data, fs, soft_kind="bogus")


class TestGenerator:
    def test_shifts_are_single_node_and_structure_preserving(self):
        data = mss.generate_mss_problem(3, 6, 100, seed=9)
        base = data.meta.scm
        assert data.envs[0].spec.targets == ()
        for env in data.envs[1:]:
            assert len(env.spec.targets) == 1
            t = env.spec.targets[0]
            assert env.spec.new_parents[0] == base.dag.parents[t]

    def test_mixing_is_identity(self):
        data = mss.generate_mss_problem(2, 3, 50, seed=10)
        for env in data.envs:
            np.testing.assert_array_equal(env.x, env.v)
