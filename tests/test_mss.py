import numpy as np
import pytest

from crl_lab import mss, scm
from crl_lab.errors import CapacityError, SampleSizeError


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
        monkeypatch.setattr(mss, "pair_invariance_pvalue",
                            lambda *args: calls.append(args))
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
    def test_shared_cache_matches_uncached_scores(self, n, n_envs, rows, seeds,
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

    @pytest.mark.parametrize("n", [3, 4])
    def test_each_local_test_computed_once(self, n, monkeypatch):
        data = mss.generate_mss_problem(n, 6, 300, seed=n)
        real = mss.pair_invariance_pvalue
        keys = []

        def counting(*args, **kwargs):
            assert not kwargs and len(args) == 6
            _, _, e_a, e_b, node, parents = args
            keys.append((e_a, e_b, node, tuple(parents)))
            return real(*args)

        monkeypatch.setattr(mss, "pair_invariance_pvalue", counting)
        mss.mss_discover(data, mss.CiInvarianceTest("oracle"), n)
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
