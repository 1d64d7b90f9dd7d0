import numpy as np
import pytest

from crl_lab import flow, mixing, multienv, scm
from crl_lab.errors import SelectionError
from crl_lab.rng import spawn


def bivariate_chain(w=1.0, sigma2=1.0):
    return scm.Scm(scm.Dag(2, ((), (0,))),
                   (scm.linear_gaussian(),
                    scm.linear_gaussian((w,), 0.0, sigma2)))


# frozen 10^7-sample oracle for the fixed genericity reference instance
# (V1 ~ N(0,1), V2|V1 ~ N(v1, 2.5^2), intervened N(2,1) and N(0, 0.8^2),
# phi = square; seed 20250801)
GENERICITY_REFERENCE = -1.242079897177764
GENERICITY_REFERENCE_SE = 0.00435556268253737


def reference_instance():
    base = bivariate_chain(sigma2=2.5)
    p1t = scm.linear_gaussian((), 2.0, 1.0)
    p2t = scm.linear_gaussian((), 0.0, 0.8)
    return base, p1t, p2t


class TestProblemGeneration:
    def setup_method(self):
        self.cfg = multienv.CrlProblemConfig(rows_per_env=3000)
        self.data = multienv.generate_crl_problem(self.cfg, seed=0)

    def test_env_plan(self):
        assert len(self.data.envs) == 3
        assert self.data.envs[0].spec.targets == ()
        assert self.data.envs[1].spec.targets == (0,)
        assert self.data.envs[2].spec.targets == (1,)

    def test_intervened_marginal_matches_replacement(self):
        spec = self.data.envs[1].spec
        mech = spec.replacements[0]
        v1 = self.data.envs[1].v[:, 0]
        n = v1.size
        assert abs(v1.mean() - mech.bias) < 3 * mech.sigma / np.sqrt(n)
        assert abs(v1.std() - mech.sigma) < 0.05 * mech.sigma + 3 / np.sqrt(n)

    def test_post_intervention_independence(self):
        v = self.data.envs[2].v
        n = v.shape[0]
        assert abs(np.corrcoef(v.T)[0, 1]) < 3 / np.sqrt(n)

    def test_shared_mixing_reconstructible(self):
        mixer = mixing.mixing_from_dict(self.data.meta.mixing)
        for env in self.data.envs:
            np.testing.assert_allclose(mixer.forward(env.v), env.x, atol=1e-12)


class TestCandidates:
    def test_enumeration(self):
        data = multienv.generate_crl_problem(
            multienv.CrlProblemConfig(rows_per_env=1500), seed=1)
        cands = multienv.enumerate_bivariate_candidates(
            data, lambda: flow.default_bss_flow(2, 2, (8,)))
        ids = {c.cid for c in cands}
        assert len(ids) == 4
        assert {c.graph.n_edges() for c in cands} == {0, 1}

    def test_selection_rules(self):
        g0 = scm.Dag(2, ((), ()))
        g1 = scm.Dag(2, ((), (0,)))
        mk = lambda g, t: multienv.CrlCandidate(g, t, None, fitted=True)
        fitted = [(mk(g1, {1: 0, 2: 1}), {}, -1.0),
                  (mk(g0, {1: 0, 2: 1}), {}, -1.0),
                  (mk(g1, {1: 1, 2: 0}), {}, -2.0)]
        winner, ranking = multienv.select_candidate(fitted)
        assert winner[0].graph.n_edges() == 0  # tie broken toward fewer edges
        single, _ = multienv.select_candidate(fitted[2:])
        assert single[0].targets == {1: 1, 2: 0}
        with pytest.raises(SelectionError):
            multienv.select_candidate([(multienv.CrlCandidate(g0, {}, None), {},
                                        float("-inf"))])

    def test_wellspecified_fit_near_ground_truth(self):
        cfg = multienv.CrlProblemConfig(rows_per_env=3000)
        data = multienv.generate_crl_problem(cfg, seed=0)
        mixer = mixing.mixing_from_dict(data.meta.mixing)
        base = data.meta.scm
        # ground-truth held-out log-likelihood oracle from the sidecar
        gt_total, rows = 0.0, 0
        per_env_rows = []
        tc = flow.TrainConfig(lr=5e-3, epochs=250, batch_size=512, patience=40,
                              seed=3)
        for e, env in enumerate(data.envs):
            escm = scm.apply_intervention(base, env.spec) if env.spec.targets \
                else base
            rng = spawn(tc.seed, "env-split", e)
            perm = rng.permutation(env.x.shape[0])
            n_val = max(1, int(round(tc.val_fraction * env.x.shape[0])))
            val_rows = env.x[perm[:n_val]]
            v = mixer.inverse(val_rows)
            lp = scm.log_density(escm, v)
            _, ld = np.linalg.slogdet(mixer.jacobian(v))
            gt_total += float(np.sum(lp - ld))
            rows += n_val
        gt_mean = gt_total / rows

        cand = multienv.CrlCandidate(
            scm.Dag(2, ((), (0,))), {1: 0, 2: 1},
            flow.default_bss_flow(2, n_couplings=6, hidden=(16,)))
        cand, per_env, total = multienv.fit_candidate(cand, data, tc)
        assert cand.fitted
        # within 0.2 nats/dim (d = 2) of the oracle on the same split
        assert abs(total - gt_mean) / 2 < 0.2
        # non-intervened mechanisms have no per-environment storage at all:
        # every environment density reads the same base parameter block
        assert len(cand.base_mech_params) == 2
        assert all(p.size == 2 for p in cand.env_mech_params.values())
        assert set(cand.env_mech_params) == {1, 2}

    def test_psi_evaluator_round_trips_through_truth(self):
        cfg = multienv.CrlProblemConfig(rows_per_env=1000)
        data = multienv.generate_crl_problem(cfg, seed=6)
        cand = multienv.CrlCandidate(
            scm.Dag(2, ((), (0,))), {1: 0, 2: 1},
            flow.default_bss_flow(2, n_couplings=2, hidden=(8,)))
        with pytest.raises(ValueError):
            cand.psi_evaluator(data)  # not fitted yet
        tc = flow.TrainConfig(lr=3e-3, epochs=5, batch_size=256, seed=7)
        cand, _, _ = multienv.fit_candidate(cand, data, tc)
        psi = cand.psi_evaluator(data)
        z, _, _, _ = cand.flow.encode(data.envs[0].x[:50])
        np.testing.assert_allclose(psi(z), data.envs[0].v[:50], atol=1e-6)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning",
                                "ignore:divide by zero:RuntimeWarning")
    def test_fit_divergence_returns_last_finite_checkpoint(self):
        cfg = multienv.CrlProblemConfig(rows_per_env=600)
        data = multienv.generate_crl_problem(cfg, seed=3)
        cand = multienv.CrlCandidate(
            scm.Dag(2, ((), (0,))), {1: 0, 2: 1},
            flow.default_bss_flow(2, n_couplings=2, hidden=(8,)))
        tc = flow.TrainConfig(lr=1e9, epochs=10, batch_size=256, seed=3)
        cand, _, _ = multienv.fit_candidate(cand, data, tc)
        assert cand.fitted
        assert cand.failure == "training diverged; returning last finite checkpoint"
        assert np.all(np.isfinite(cand.flow.theta))

    def test_fit_deterministic(self):
        cfg = multienv.CrlProblemConfig(rows_per_env=1200)
        data = multienv.generate_crl_problem(cfg, seed=5)
        totals = []
        for _ in range(2):
            cand = multienv.CrlCandidate(
                scm.Dag(2, ((), (0,))), {1: 0, 2: 1},
                flow.default_bss_flow(2, n_couplings=2, hidden=(8,)))
            tc = flow.TrainConfig(lr=3e-3, epochs=8, batch_size=256, seed=9)
            _, _, total = multienv.fit_candidate(cand, data, tc)
            totals.append(total)
        assert totals[0] == totals[1]


class TestCandidateDensity:
    @pytest.mark.parametrize("k", range(4))
    def test_gradients_match_central_differences(self, k):
        data = multienv.generate_crl_problem(
            multienv.CrlProblemConfig(rows_per_env=200), seed=2)
        cand = multienv.enumerate_bivariate_candidates(
            data, lambda: flow.default_bss_flow(2, 2, (8,)))[k]
        dens = multienv._CandidateDensity(cand)
        rng = spawn(k, "density-grad")
        theta = 0.5 * rng.standard_normal(dens.n_params)
        z = rng.standard_normal((64, 2))
        h = 1e-6

        def rel(grad, ref):
            return np.max(np.abs(grad - ref)) / np.max(np.abs(ref))

        for env in range(3):
            def lp(zz, th):
                return dens.logpdf_and_grads(zz, env, th)[0]

            _, dz, dth = dens.logpdf_and_grads(z, env, theta)
            eye_z, eye_th = h * np.eye(2), h * np.eye(dens.n_params)
            fd_z = np.stack([(lp(z + e, theta) - lp(z - e, theta)) / (2 * h)
                             for e in eye_z], axis=1)
            fd_th = np.array([(lp(z, theta + e).sum() - lp(z, theta - e).sum())
                              / (2 * h) for e in eye_th])
            assert rel(dz, fd_z) <= 1e-5
            assert rel(dth.sum(axis=0), fd_th) <= 1e-5

    @pytest.mark.parametrize("k", range(4))
    def test_batch_nll_gradient_matches_central_differences(self, k):
        data = multienv.generate_crl_problem(
            multienv.CrlProblemConfig(rows_per_env=200), seed=2)
        cand = multienv.enumerate_bivariate_candidates(
            data, lambda: flow.default_bss_flow(2, 3, (8,)))[k]
        dens = multienv._CandidateDensity(cand)
        fl = cand.flow
        x = np.concatenate([env.x for env in data.envs])
        env = np.concatenate([np.full(e.x.shape[0], i)
                              for i, e in enumerate(data.envs)])
        fl.init_params(k)
        flow.init_whitening(fl, x)
        rng = spawn(k, "nll-grad")
        theta = np.concatenate([
            fl.theta + 0.3 * rng.standard_normal(fl.n_params),
            0.5 * rng.standard_normal(dens.n_params)])
        rows = rng.choice(x.shape[0], 64, replace=False)

        def nll(th):
            return multienv._batch_nll_grad(fl, dens, th, x[rows], env[rows])[0]

        _, grad = multienv._batch_nll_grad(fl, dens, theta, x[rows], env[rows])
        h = 1e-6
        fd = np.array([(nll(theta + e) - nll(theta - e)) / (2 * h)
                       for e in h * np.eye(theta.size)])
        assert np.max(np.abs(grad - fd)) / np.max(np.abs(fd)) <= 1e-6


class TestGenericity:
    def test_linear_phi_control(self):
        base, p1t, p2t = reference_instance()
        v, s = multienv.genericity_gap(
            base, p1t, p2t, multienv.GenericityProbe("linear", 200_000, 6))
        assert abs(v) <= 3 * s

    def test_identical_intervention_gives_zero_for_every_phi(self):
        base, _, p2t = reference_instance()
        same = scm.linear_gaussian((), 0.0, 1.0)  # equals the base marginal
        for k, phi in enumerate(("linear", "square", "sqrt", "log", "xlogx")):
            v, s = multienv.genericity_gap(
                base, same, p2t, multienv.GenericityProbe(phi, 100_000, 20 + k))
            assert abs(v) <= 3 * s, phi

    def test_square_phi_matches_frozen_reference(self):
        base, p1t, p2t = reference_instance()
        v, s = multienv.genericity_gap(
            base, p1t, p2t, multienv.GenericityProbe("square", 200_000, 17))
        joint = 3 * float(np.hypot(s, GENERICITY_REFERENCE_SE))
        assert abs(v - GENERICITY_REFERENCE) <= joint
        assert abs(v) > 3 * s  # nonzero

    def test_antisymmetry_exact_under_seed_transport(self):
        base, p1t, p2t = reference_instance()
        probe = multienv.GenericityProbe("square", 50_000, 5)
        a, sa = multienv.genericity_gap(base, p1t, p2t, probe)
        b, sb = multienv.genericity_gap(base, p1t, p2t, probe, swap_roles=True)
        assert a == -b and sa == sb


class TestDiscrepancy:
    grid = np.linspace(-4, 4, 81)

    def test_mean_shift_holds_everywhere(self):
        a = scm.linear_gaussian((), 0.0, 1.0)
        b = scm.linear_gaussian((), 1.0, 1.0)
        res = multienv.discrepancy_check(a, b, self.grid)
        assert res.holds and not res.failure_points

    def test_identical_fails_everywhere(self):
        a = scm.linear_gaussian((), 0.0, 1.0)
        res = multienv.discrepancy_check(a, scm.linear_gaussian((), 0.0, 1.0),
                                         self.grid)
        assert not res.holds
        assert len(res.failure_points) == self.grid.size

    def test_pure_variance_change_fails_at_the_mean(self):
        a = scm.linear_gaussian((), 0.0, 1.0)
        b = scm.linear_gaussian((), 0.0, 2.0)
        res = multienv.discrepancy_check(a, b, self.grid)
        assert not res.holds
        assert any(abs(p) < 1e-9 for p in res.failure_points)


class TestCausalInfluence:
    def test_unit_weight_closed_form(self):
        model = bivariate_chain(w=1.0)
        v, s = multienv.causal_influence(model, 0, 1, n_mc=100_000, seed=0)
        assert abs(v - 0.5 * np.log(2.0)) <= 0.02

    def test_zero_weight_edge(self):
        model = bivariate_chain(w=0.0)
        v, s = multienv.causal_influence(model, 0, 1, n_mc=50_000, seed=1)
        assert abs(v) <= 3 * max(s, 1e-12)

    def test_nonnegative(self):
        model = bivariate_chain(w=0.6)
        v, s = multienv.causal_influence(model, 0, 1, n_mc=50_000, seed=2)
        assert v + 3 * s >= 0

    def test_invariance_under_crl_reparametrization(self):
        model = bivariate_chain(w=1.0)
        ref, _ = multienv.causal_influence(model, 0, 1, n_mc=100_000, seed=3)
        phi = mixing.Elementwise([("cubic",), ("cubic",)])
        twisted = multienv.TransformedScm(model, (1, 0), phi)
        # the edge 0 -> 1 maps to perm(0) -> perm(1), i.e. 1 -> 0
        val, s = multienv.causal_influence(twisted, 1, 0, n_mc=100_000, seed=3,
                                           inner=512)
        assert abs(val - ref) <= 0.03

    def test_requires_edge(self):
        model = bivariate_chain()
        with pytest.raises(ValueError):
            multienv.causal_influence(model, 1, 0)


class TestMinimality:
    def test_identity_transport_preserves_mechanism(self):
        mech = scm.linear_gaussian((), 0.7, 1.3)
        coord = mixing.Elementwise([("identity",)]).coords[0]
        q = multienv.transported_density(mech, coord)
        grid = np.linspace(-4, 6, 50)
        np.testing.assert_allclose(
            q(grid), np.exp(mech.log_density(grid, np.zeros((50, 0)))),
            atol=1e-12)

    def test_affine_transport_matches_hand_derivation(self):
        # z = a v + b with v ~ N(mu, s^2)  =>  z ~ N(a mu + b, (a s)^2)
        mu, sig, a, b = 0.4, 1.2, -2.0, 0.5
        mech = scm.linear_gaussian((), mu, sig)
        coord = mixing.Elementwise([("affine", a, b)]).coords[0]
        q = multienv.transported_density(mech, coord)
        grid = np.linspace(-8, 8, 101)
        expected = (np.exp(-0.5 * ((grid - (a * mu + b)) / (abs(a) * sig))**2)
                    / (abs(a) * sig * np.sqrt(2 * np.pi)))
        np.testing.assert_allclose(q(grid), expected, atol=1e-12)

    def test_generic_smooth_transport_passes_ks(self):
        base = bivariate_chain(w=1.1)
        mixer = mixing.random_invertible_mlp(2, 2, seed=33)
        phi = mixing.Elementwise([("cubic",), ("affine", 0.8, -0.2)])
        spec = scm.perfect_intervention(0, scm.linear_gaussian((), 1.0, 0.8))
        assert multienv.verify_minimality(base, mixer, (0, 1), phi, spec,
                                          n=10_000, seed=2)
