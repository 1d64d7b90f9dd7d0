import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from crl_lab import scm
from crl_lab.errors import (
    AbductionError,
    CapacityError,
    CycleError,
    UnsupportedDensityError,
)
from crl_lab.rng import spawn


def example_three_node():
    """V1 := U1, V2 := V1 + U2, V3 := V1 + V2 + U3, U ~ N(0, I)."""
    dag = scm.Dag(3, ((), (0,), (0, 1)))
    mechs = (scm.linear_gaussian(), scm.linear_gaussian((1.0,)),
             scm.linear_gaussian((1.0, 1.0)))
    return scm.Scm(dag, mechs)


A_MATRIX = np.array([[1.0, 0, 0], [1, 1, 0], [2, 1, 1]])


class TestAncestralSampling:
    def test_single_standard_normal_node(self):
        model = scm.Scm(scm.Dag(1, ((),)), (scm.linear_gaussian(),))
        n = 100_000
        v = scm.ancestral_sample(model, n, seed=11)
        assert abs(v.mean()) < 3.0 / np.sqrt(n)
        assert abs(v.var() - 1.0) < 0.05

    def test_three_node_reduced_form_covariance(self):
        v = scm.ancestral_sample(example_three_node(), 200_000, seed=5)
        cov = np.cov(v.T)
        target = A_MATRIX @ A_MATRIX.T
        # tolerance 5 standard errors of a covariance entry (~sqrt(2/n)*scale)
        se = 5 * np.sqrt(2.0 / 200_000) * np.outer(np.sqrt(np.diag(target)),
                                                   np.sqrt(np.diag(target)))
        assert np.all(np.abs(cov - target) < se + 0.02)

    def test_point_mass_chain_is_deterministic(self):
        chain = scm.Scm(scm.Dag(2, ((), (0,))),
                        (scm.point_mass(1.0), scm.point_mass(0.0, weights=(2.0,))))
        v = scm.ancestral_sample(chain, 50, seed=0)
        assert np.array_equal(v, np.tile([1.0, 2.0], (50, 1)))

    def test_deterministic_given_seed(self):
        a = scm.ancestral_sample(example_three_node(), 100, seed=42)
        b = scm.ancestral_sample(example_three_node(), 100, seed=42)
        assert np.array_equal(a, b)


class TestLogDensity:
    def test_single_node_at_zero(self):
        model = scm.Scm(scm.Dag(1, ((),)), (scm.linear_gaussian(),))
        assert scm.log_density(model, [0.0]) == pytest.approx(-0.5 * np.log(2 * np.pi))

    def test_three_node_matches_multivariate_gaussian(self):
        model = example_three_node()
        oracle = multivariate_normal(np.zeros(3), A_MATRIX @ A_MATRIX.T)
        for v in (np.zeros(3), np.array([0.5, -1.0, 2.0])):
            assert scm.log_density(model, v) == pytest.approx(oracle.logpdf(v))

    def test_factorizes_into_conditionals(self):
        model = example_three_node()
        v = np.array([0.3, 1.1, -0.7])
        parts = sum(
            model.node_log_density(i, v[i], v[list(model.dag.parents[i])][None, :])[0]
            for i in range(3)
        )
        assert scm.log_density(model, v) == pytest.approx(parts)

    def test_point_mass_refused(self):
        model = scm.Scm(scm.Dag(1, ((),)), (scm.point_mass(1.0),))
        with pytest.raises(UnsupportedDensityError):
            scm.log_density(model, [1.0])


class TestInterventions:
    def test_do_shifts_downstream_mean(self):
        model = scm.apply_intervention(example_three_node(), scm.do(1, 4.0))
        v = scm.ancestral_sample(model, 100_000, seed=3)
        # V3 := V1 + V2 + U3 with E[V1] = 0 and V2 pinned at 4
        assert np.all(v[:, 1] == 4.0)
        assert abs(v[:, 2].mean() - 4.0) < 0.03

    def test_perfect_intervention_removes_parents(self):
        model = scm.apply_intervention(example_three_node(), scm.do(1, 0.0))
        assert model.dag.parents[1] == ()

    def test_empty_spec_is_identity(self):
        base = example_three_node()
        out = scm.apply_intervention(base, scm.InterventionSpec())
        assert out.mechanisms == base.mechanisms
        assert out.dag.parents == base.dag.parents

    def test_nontargeted_mechanisms_shared_and_pointwise_equal(self):
        base = example_three_node()
        out = scm.apply_intervention(base, scm.do(1, 2.0))
        assert out.mechanisms[0] is base.mechanisms[0]
        assert out.mechanisms[2] is base.mechanisms[2]
        rng = spawn(1, "probe")
        probe_v = rng.normal(size=20)
        probe_pa = rng.normal(size=(20, 2))
        np.testing.assert_array_equal(
            base.mechanisms[2].log_density(probe_v, probe_pa),
            out.mechanisms[2].log_density(probe_v, probe_pa),
        )

    def test_cycle_detected(self):
        base = example_three_node()
        bad = scm.InterventionSpec((0,), (scm.linear_gaussian((1.0,)),), ((2,),))
        with pytest.raises(CycleError):
            scm.apply_intervention(base, bad)


class TestCounterfactual:
    def test_textbook_example(self):
        out = scm.counterfactual(example_three_node(), (1.0, 2.0, 2.0),
                                 scm.do(1, 3.0))
        assert np.array_equal(out, [1.0, 3.0, 3.0])

    def test_empty_spec_is_identity_on_evidence(self):
        ev = (1.0, 2.0, 2.0)
        out = scm.counterfactual(example_three_node(), ev, scm.InterventionSpec())
        assert np.allclose(out, ev)

    def test_upstream_do_propagates_recovered_noise(self):
        out = scm.counterfactual(example_three_node(), (1.0, 2.0, 2.0),
                                 scm.do(0, 0.0))
        # noises (1, 1, -1); V2 = 0 + 1, V3 = 0 + 1 - 1
        assert np.array_equal(out, [0.0, 1.0, 0.0])

    def test_inconsistent_evidence_for_deterministic_mechanism(self):
        chain = scm.Scm(scm.Dag(2, ((), (0,))),
                        (scm.linear_gaussian(), scm.point_mass(0.0, weights=(2.0,))))
        with pytest.raises(AbductionError):
            scm.counterfactual(chain, (1.0, 5.0), scm.do(0, 0.0))


# -- d-separation against a brute-force path oracle --------------------------


def _oracle_d_separated(dag, i, j, cond):
    """Enumerate all simple trails and check blocking by hand."""
    cond = set(cond)
    children = dag.children()
    neighbours = [set(dag.parents[k]) | set(children[k]) for k in range(dag.n)]

    def arrows(a, b):
        return b in children[a]  # a -> b

    def path_active(path):
        for t in range(1, len(path) - 1):
            prev, node, nxt = path[t - 1], path[t], path[t + 1]
            collider = arrows(prev, node) and arrows(nxt, node)
            if collider:
                desc = {node} | _descendants(dag, node)
                if not (desc & cond):
                    return False
            elif node in cond:
                return False
        return True

    stack = [[i]]
    while stack:
        path = stack.pop()
        last = path[-1]
        if last == j:
            if path_active(path):
                return False
            continue
        for nb in neighbours[last]:
            if nb not in path:
                stack.append(path + [nb])
    return True


def _descendants(dag, node):
    out = set()
    stack = [node]
    children = dag.children()
    while stack:
        k = stack.pop()
        for c in children[k]:
            if c not in out:
                out.add(c)
                stack.append(c)
    return out


class TestDSeparation:
    def test_chain(self):
        dag = scm.Dag(3, ((), (0,), (1,)))
        assert scm.d_separated(dag, 0, 2, {1})
        assert not scm.d_separated(dag, 0, 2, set())

    def test_collider(self):
        dag = scm.Dag(3, ((), (), (0, 1)))
        assert scm.d_separated(dag, 0, 1, set())
        assert not scm.d_separated(dag, 0, 1, {2})

    def test_complete_graph_nothing_separated(self):
        dag = example_three_node().dag
        for i, j in itertools.combinations(range(3), 2):
            others = [k for k in range(3) if k not in (i, j)]
            for cond in ([], others):
                assert not scm.d_separated(dag, i, j, cond)

    def test_against_path_enumeration_oracle(self):
        for dag in scm.enumerate_dags(3):
            for i, j in itertools.combinations(range(3), 2):
                rest = [k for k in range(3) if k not in (i, j)]
                for r in range(len(rest) + 1):
                    for cond in itertools.combinations(rest, r):
                        assert scm.d_separated(dag, i, j, cond) == \
                            _oracle_d_separated(dag, i, j, cond), \
                            (dag.parents, i, j, cond)

    def test_agrees_with_partial_correlations(self):
        # faithfulness spot-check on every 3-node DAG with fixed weights
        n = 60_000
        for k, dag in enumerate(scm.enumerate_dags(3)):
            rng = spawn(77, "weights", k)
            mechs = []
            order = dag.topological_order()
            for i in range(3):
                w = tuple(rng.uniform(0.8, 1.4) * rng.choice((-1, 1))
                          for _ in dag.parents[i])
                mechs.append(scm.linear_gaussian(w, 0.0, 1.0))
            model = scm.Scm(dag, tuple(mechs))
            v = scm.ancestral_sample(model, n, seed=k)
            for i, j in itertools.combinations(range(3), 2):
                rest = tuple(k_ for k_ in range(3) if k_ not in (i, j))
                for cond in ([], list(rest)):
                    if cond:
                        prec = np.linalg.inv(np.cov(v.T))
                        rho = -prec[i, j] / np.sqrt(prec[i, i] * prec[j, j])
                    else:
                        rho = np.corrcoef(v[:, i], v[:, j])[0, 1]
                    sep = scm.d_separated(dag, i, j, cond)
                    if sep:
                        assert abs(rho) < 5.0 / np.sqrt(n)
                    else:
                        assert abs(rho) > 5.0 / np.sqrt(n)


def _kahn_acyclic(n, parents):
    """Reference acyclicity check: Kahn's algorithm, as in
    ``Dag.topological_order``."""
    indeg = [len(ps) for ps in parents]
    children = [[] for _ in range(n)]
    for i, ps in enumerate(parents):
        for p in ps:
            children[p].append(i)
    frontier = sorted(i for i in range(n) if indeg[i] == 0)
    order = []
    while frontier:
        i = frontier.pop(0)
        order.append(i)
        for c in children[i]:
            indeg[c] -= 1
            if indeg[c] == 0:
                frontier.append(c)
        frontier.sort()
    return len(order) == n


@st.composite
def _parent_lists(draw):
    """(n <= 5, parents): each node's parents, any order, never the node."""
    n = draw(st.integers(min_value=1, max_value=5))
    parents = []
    for i in range(n):
        ps = draw(st.lists(st.integers(min_value=0, max_value=n - 1), unique=True))
        parents.append(tuple(p for p in ps if p != i))
    return n, tuple(parents)


class TestDagChecks:
    @given(_parent_lists())
    @settings(max_examples=300, deadline=None)
    def test_cycle_error_exactly_when_kahn_finds_a_cycle(self, graph):
        n, parents = graph
        try:
            dag = scm.Dag(n, parents, ordered=False)
        except CycleError:
            assert not _kahn_acyclic(n, parents)
        else:
            assert _kahn_acyclic(n, parents)
            assert dag.parents == tuple(tuple(sorted(ps)) for ps in parents)

    @given(_parent_lists(), st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_malformed_parent_sets_raise_their_errors(self, graph, ordered, data):
        n, parents = graph
        if ordered:  # an ordered graph's parent sets keep to parent < child
            parents = tuple(tuple(p for p in ps if p < i)
                            for i, ps in enumerate(parents))
        node = data.draw(st.integers(min_value=0, max_value=n - 1))
        faults = [(node, CycleError, "lists itself"),
                  (data.draw(st.sampled_from([-1, n, n + 3])), ValueError,
                   "out-of-range parent")]
        if parents[node]:
            faults.append((parents[node][0], ValueError, "duplicate parent"))
        extra, error, message = data.draw(st.sampled_from(faults))
        bad = list(parents)
        bad[node] = parents[node] + (extra,)
        with pytest.raises(error, match=message) as info:
            scm.Dag(n, tuple(bad), ordered=ordered)
        assert isinstance(info.value, CycleError) == (error is CycleError)


class TestEnumerateDags:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 25)])
    def test_counts(self, n, count):
        # oracle: brute force over 2^(n(n-1)) directed edge sets with an
        # acyclicity filter is exactly what enumerate_dags implements; the
        # counts are the labeled-DAG sequence 1, 3, 25, 543
        dags = scm.enumerate_dags(n)
        assert len(dags) == count
        assert len({d.parents for d in dags}) == count

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_same_list_as_edge_set_loop(self, n):
        # the list index is mss.csv's dag_id, so the order must hold too:
        # every directed edge set in itertools.product order, cyclic ones
        # rejected by the Kahn reference
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        expected = []
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            parents = [[] for _ in range(n)]
            for (a, b), on in zip(pairs, bits):
                if on:
                    parents[b].append(a)
            if _kahn_acyclic(n, parents):
                expected.append(scm.Dag(n, tuple(tuple(p) for p in parents),
                                        ordered=False))
        assert len(expected) == [1, 3, 25, 543][n - 1]
        assert scm.enumerate_dags(n) == expected

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            scm.enumerate_dags(5)


class TestValidation:
    def test_dag_rejects_cycles_in_unordered_mode(self):
        with pytest.raises(CycleError):
            scm.Dag(2, ((1,), (0,)), ordered=False)

    def test_ordered_dag_rejects_forward_parents(self):
        with pytest.raises(ValueError):
            scm.Dag(2, ((1,), ()))

    def test_mechanism_needs_positive_sigma(self):
        with pytest.raises(ValueError):
            scm.Mechanism("linear-gaussian", (), 0.0, 0.0)

    def test_mechanism_parent_count_checked(self):
        with pytest.raises(ValueError):
            scm.Scm(scm.Dag(2, ((), (0,))),
                    (scm.linear_gaussian(), scm.linear_gaussian()))

    @given(st.integers(min_value=1, max_value=4), st.randoms())
    @settings(max_examples=20, deadline=None)
    def test_random_dags_have_topological_order(self, n, rnd):
        parents = []
        for i in range(n):
            pool = list(range(i))
            rnd.shuffle(pool)
            parents.append(tuple(sorted(pool[: rnd.randint(0, len(pool))])))
        dag = scm.Dag(n, tuple(parents))
        order = dag.topological_order()
        pos = {node: k for k, node in enumerate(order)}
        for child, ps in enumerate(dag.parents):
            for p in ps:
                assert pos[p] < pos[child]


class TestSerialization:
    def test_scm_round_trip(self):
        model = example_three_node()
        clone = scm.Scm.from_dict(model.to_dict())
        assert clone.dag.parents == model.dag.parents
        v = scm.ancestral_sample(model, 10, seed=1)
        np.testing.assert_array_equal(v, scm.ancestral_sample(clone, 10, seed=1))

    def test_tabulated_mechanism_round_trip(self):
        grid = np.linspace(-3, 3, 9)
        mech = scm.Mechanism("tabulated", (1.0,), 0.0, 0.5,
                             grid=tuple(grid), values=tuple(np.tanh(grid)))
        clone = scm.Mechanism.from_dict(mech.to_dict())
        pa = np.linspace(-2, 2, 7)[:, None]
        np.testing.assert_array_equal(mech.loc(pa), clone.loc(pa))

    def test_tabulated_abduction_exact(self):
        grid = np.linspace(-4, 4, 17)
        mech = scm.Mechanism("tabulated", (1.0,), 0.0, 0.7,
                             grid=tuple(grid), values=tuple(grid + 0.3 * grid**2))
        dag = scm.Dag(2, ((), (0,)))
        model = scm.Scm(dag, (scm.linear_gaussian(), mech))
        v, eps = scm.ancestral_sample(model, 50, seed=9, return_noise=True)
        rec = mech.abduct(v[:, 1], v[:, [0]])
        np.testing.assert_allclose(rec, eps[:, 1], atol=1e-12)
