import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abn_forge import (
    Cpdag,
    CyclicGraphError,
    Dag,
    compare,
    is_acyclic,
    parse_graph_json,
    random_dag,
    to_cpdag,
    topological_order,
)
from oracles import cpdag_oracle, enumerate_dags


def dag_from_masks(masks):
    return Dag(n=len(masks), parents=tuple(masks))


class TestIsAcyclic:
    def test_empty_graph(self):
        assert is_acyclic([0, 0, 0])

    def test_three_cycle(self):
        # 0 <- 2, 1 <- 0, 2 <- 1
        assert not is_acyclic([0b100, 0b001, 0b010])

    def test_collider_with_tail(self):
        # node 2 depends on 0 and 1 jointly, node 3 hangs off 2
        assert is_acyclic([0, 0, 0b0011, 0b0100])

    def test_self_loop(self):
        assert not is_acyclic([0b01, 0])


class TestDag:
    def test_rejects_cycle(self):
        with pytest.raises(CyclicGraphError):
            dag_from_masks([0b10, 0b01])

    def test_rejects_self_parent(self):
        with pytest.raises(ValueError):
            dag_from_masks([0b01, 0])

    def test_rejects_high_bits(self):
        with pytest.raises(ValueError):
            dag_from_masks([0b100, 0])

    def test_edges_round_trip(self):
        dag = Dag.from_edges(4, [(0, 2), (1, 2), (2, 3)])
        assert sorted(dag.edges()) == [(0, 2), (1, 2), (2, 3)]
        assert dag.edge_count() == 3
        assert dag.parent_list(2) == [0, 1]

    def test_json_round_trip(self):
        dag = Dag.from_edges(5, [(0, 4), (2, 3)])
        assert Dag.from_json(dag.to_json()) == dag

    def test_json_accepts_object_edges(self):
        text = json.dumps({"n": 3, "edges": [{"from": 0, "to": 2}]})
        assert Dag.from_json(text) == Dag.from_edges(3, [(0, 2)])

    @pytest.mark.parametrize(
        "obj, field",
        [
            ({"n": 3.7, "edges": []}, "n"),
            ({"n": 3, "edges": [[0, 1.9]]}, "edge to"),
            ({"n": 3, "edges": [{"from": 0.6, "to": 1}]}, "edge from"),
        ],
    )
    def test_json_rejects_a_non_integer_node(self, obj, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            Dag.from_json(json.dumps(obj))

    @pytest.mark.parametrize("edges", [[[0, 1], [0, 1]], [[0, 1], {"from": 0, "to": 1}]])
    def test_json_rejects_a_repeated_edge(self, edges):
        with pytest.raises(ValueError, match=r"edge \(0, 1\) is listed twice"):
            Dag.from_json(json.dumps({"n": 3, "edges": edges}))


class TestTopologicalOrder:
    def test_chain_is_forced(self):
        dag = Dag.from_edges(3, [(0, 1), (1, 2)])
        assert topological_order(dag) == [0, 1, 2]

    def test_parents_precede_children(self):
        dag = Dag.from_edges(5, [(1, 3), (2, 3), (3, 4)])
        order = topological_order(dag)
        pos = {node: i for i, node in enumerate(order)}
        for parent, child in dag.edges():
            assert pos[parent] < pos[child]

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_dags_order_validly(self, seed):
        rng = np.random.default_rng(seed)
        dag = random_dag(6, 0.5, rng)
        order = topological_order(dag)
        pos = {node: i for i, node in enumerate(order)}
        assert sorted(order) == list(range(6))
        assert all(pos[p] < pos[c] for p, c in dag.edges())


class TestRandomDag:
    def test_density_zero_is_edgeless(self):
        dag = random_dag(6, 0.0, np.random.default_rng(0))
        assert dag.edge_count() == 0

    def test_density_one_is_complete(self):
        dag = random_dag(3, 1.0, np.random.default_rng(0))
        assert dag.edge_count() == 3

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            random_dag(3, 1.5, np.random.default_rng(0))

    def test_mean_edge_count_matches_binomial(self):
        rng = np.random.default_rng(12345)
        counts = [random_dag(10, 0.8, rng).edge_count() for _ in range(1000)]
        expected = 0.8 * 45
        se = np.sqrt(45 * 0.8 * 0.2 / 1000)
        assert abs(np.mean(counts) - expected) < 3 * se

    def test_same_stream_same_graph(self):
        a = random_dag(8, 0.4, np.random.default_rng(7))
        b = random_dag(8, 0.4, np.random.default_rng(7))
        assert a == b


class TestToCpdag:
    def test_chain_is_fully_reversible(self):
        cp = to_cpdag(Dag.from_edges(3, [(0, 1), (1, 2)]))
        assert cp.directed == frozenset()
        assert cp.undirected == frozenset({(0, 1), (1, 2)})

    def test_collider_is_compelled(self):
        cp = to_cpdag(Dag.from_edges(3, [(0, 2), (1, 2)]))
        assert cp.directed == frozenset({(0, 2), (1, 2)})
        assert cp.undirected == frozenset()

    def test_collider_with_descendant_is_fully_compelled(self):
        # reversing the trailing edge would manufacture a new collider
        cp = to_cpdag(Dag.from_edges(4, [(0, 2), (1, 2), (2, 3)]))
        assert cp.directed == frozenset({(0, 2), (1, 2), (2, 3)})
        assert cp.undirected == frozenset()

    def test_matches_enumeration_on_all_small_graphs(self):
        for n in (1, 2, 3):
            for masks in enumerate_dags(n):
                cp = to_cpdag(dag_from_masks(masks))
                directed, undirected = cpdag_oracle(n, masks)
                assert cp.directed == frozenset(directed), masks
                assert cp.undirected == frozenset(undirected), masks

    @given(st.integers(0, 10_000), st.sampled_from([0.3, 0.5, 0.8]))
    @settings(max_examples=25, deadline=None)
    def test_matches_enumeration_on_random_graphs(self, seed, density):
        dag = random_dag(5, density, np.random.default_rng(seed))
        cp = to_cpdag(dag)
        directed, undirected = cpdag_oracle(5, dag.parents)
        assert cp.directed == frozenset(directed)
        assert cp.undirected == frozenset(undirected)

    def test_skeleton_is_preserved(self):
        dag = random_dag(7, 0.6, np.random.default_rng(3))
        cp = to_cpdag(dag)
        assert cp.skeleton() == {(min(a, b), max(a, b)) for a, b in dag.edges()}


class TestCpdagType:
    def test_rejects_overlapping_edge_sets(self):
        with pytest.raises(ValueError):
            Cpdag(3, directed=frozenset({(0, 1)}), undirected=frozenset({(0, 1)}))

    def test_rejects_two_cycle(self):
        with pytest.raises(ValueError):
            Cpdag(3, directed=frozenset({(0, 1), (1, 0)}), undirected=frozenset())

    def test_json_round_trip(self):
        cp = to_cpdag(Dag.from_edges(4, [(0, 2), (1, 2), (2, 3)]))
        assert Cpdag.from_json(cp.to_json()) == cp

    @pytest.mark.parametrize("obj", [{"n": 3.0, "edges": []}, {"n": 3, "edges": [], "undirected": [[1, 2.5]]}])
    def test_json_rejects_a_non_integer_node(self, obj):
        with pytest.raises(ValueError, match="must be an integer"):
            Cpdag.from_json(json.dumps(obj))

    @pytest.mark.parametrize(
        "obj",
        [{"n": 3, "edges": [[0, 2], [0, 2]], "undirected": []}, {"n": 3, "edges": [], "undirected": [[0, 2], [0, 2]]}],
    )
    def test_json_rejects_a_repeated_edge(self, obj):
        with pytest.raises(ValueError, match=r"edge \(0, 2\) is listed twice"):
            Cpdag.from_json(json.dumps(obj))

    def test_parse_dispatches_on_keys(self):
        dag = Dag.from_edges(3, [(0, 1)])
        assert parse_graph_json(dag.to_json()) == dag
        cp = Cpdag(3, frozenset(), frozenset({(0, 1)}))
        assert parse_graph_json(cp.to_json()) == cp


def undirected_cpdag(n, pairs):
    return Cpdag(n, directed=frozenset(), undirected=frozenset(pairs))


class TestCompare:
    def test_identical_graphs(self):
        cp = to_cpdag(Dag.from_edges(3, [(0, 2), (1, 2)]))
        m = compare(cp, cp)
        assert (m.tpr, m.fpr) == (1.0, 0.0)

    def test_empty_prediction(self):
        truth = undirected_cpdag(3, [(0, 1)])
        m = compare(undirected_cpdag(3, []), truth)
        assert (m.tpr, m.fpr) == (0.0, 0.0)

    def test_one_extra_edge(self):
        truth = undirected_cpdag(3, [(0, 1)])
        predicted = undirected_cpdag(3, [(0, 1), (1, 2)])
        m = compare(predicted, truth)
        assert m.tpr == 1.0
        assert m.fpr == 0.5

    def test_reversed_edge_is_neither_tp_nor_fp(self):
        truth = Cpdag(2, directed=frozenset({(0, 1)}), undirected=frozenset())
        predicted = Cpdag(2, directed=frozenset({(1, 0)}), undirected=frozenset())
        m = compare(predicted, truth)
        assert m.tpr == 0.0
        assert m.fpr == 0.0

    def test_undirected_prediction_matches_directed_truth(self):
        truth = Cpdag(2, directed=frozenset({(0, 1)}), undirected=frozenset())
        predicted = undirected_cpdag(2, [(0, 1)])
        assert compare(predicted, truth).tpr == 1.0

    def test_skeleton_only_forgives_orientation(self):
        truth = Cpdag(2, directed=frozenset({(0, 1)}), undirected=frozenset())
        predicted = Cpdag(2, directed=frozenset({(1, 0)}), undirected=frozenset())
        assert compare(predicted, truth, skeleton_only=True).tpr == 1.0

    def test_empty_truth_cases(self):
        empty = undirected_cpdag(3, [])
        assert compare(empty, empty).tpr == 1.0
        assert compare(undirected_cpdag(3, [(0, 1)]), empty).tpr == 0.0

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError):
            compare(undirected_cpdag(3, []), undirected_cpdag(4, []))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_rates_stay_in_bounds(self, seed):
        rng = np.random.default_rng(seed)
        predicted = to_cpdag(random_dag(5, float(rng.uniform(0.1, 1.0)), rng))
        truth = to_cpdag(random_dag(5, float(rng.uniform(0.1, 1.0)), rng))
        m = compare(predicted, truth)
        assert 0.0 <= m.tpr <= 1.0
        assert 0.0 <= m.fpr <= 1.0
        assert m.true_edges == truth.edge_count()
        assert m.predicted_edges == predicted.edge_count()


class TestDagEnumeration:
    def test_known_counts(self):
        assert [len(enumerate_dags(n)) for n in (1, 2, 3, 4)] == [1, 3, 25, 543]

    def test_every_enumerated_graph_validates(self):
        for masks in itertools.islice(enumerate_dags(3), None):
            dag_from_masks(masks)
