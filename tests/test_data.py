import json
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from abn_forge import (
    AbnParams,
    Dag,
    Dataset,
    SeparationStatus,
    aggregate_design,
    sample,
    separation_of_design,
    topological_order,
)
from abn_forge import data as data_module
from abn_forge.data import separation_of_patterns
from abn_forge.graph import MAX_NODES
from oracles import explicit_design, fm_separation, parent_table, reference_parent_tables


@pytest.fixture
def collider_params():
    dag = Dag.from_edges(4, [(0, 2), (1, 2), (2, 3)])
    return AbnParams.uniform(dag, edge_coef=5.0, intercept=0.0)


class TestAbnParams:
    def test_uniform_covers_every_edge(self, collider_params):
        assert set(collider_params.edge_coef) == set(collider_params.dag.edges())
        assert all(v == 5.0 for v in collider_params.edge_coef.values())
        assert collider_params.intercepts == (0.0, 0.0, 0.0, 0.0)

    def test_rejects_missing_edge_coef(self):
        dag = Dag.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            AbnParams(dag=dag, intercepts=(0.0, 0.0), edge_coef={})

    def test_rejects_stray_edge_coef(self):
        dag = Dag.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            AbnParams(dag=dag, intercepts=(0.0, 0.0), edge_coef={(0, 1): 5.0, (1, 0): 5.0})

    def test_rejects_non_finite(self):
        dag = Dag.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            AbnParams(dag=dag, intercepts=(0.0, float("inf")), edge_coef={(0, 1): 5.0})

    def test_json_round_trip(self, collider_params):
        assert AbnParams.from_json(collider_params.to_json()) == collider_params

    @pytest.mark.parametrize(
        "obj, field",
        [
            ({"n": 2.5, "edges": []}, "n"),
            ({"n": 2, "edges": [{"from": 0.6, "to": 1, "coef": 5.0}]}, "edge from"),
        ],
    )
    def test_json_rejects_a_non_integer_node(self, obj, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            AbnParams.from_json(json.dumps(obj))

    @pytest.mark.parametrize(
        "obj, field",
        [
            ({"n": 2, "edges": [{"from": 0, "to": 1, "coef": "5"}]}, "coef"),
            ({"n": 2, "edges": [], "intercepts": ["0.5", True]}, "intercepts"),
        ],
    )
    def test_json_rejects_a_parameter_that_is_no_number(self, obj, field):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            AbnParams.from_json(json.dumps(obj))

    def test_json_rejects_a_repeated_edge(self):
        # read entry by entry, the second coef would silently replace the first
        edges = [{"from": 0, "to": 1, "coef": 5.0}, {"from": 0, "to": 1, "coef": 3.0}]
        with pytest.raises(ValueError, match=r"edge \(0, 1\) is listed twice"):
            AbnParams.from_json(json.dumps({"n": 2, "edges": edges}))


def _sample_row_by_row(params, n_obs, rng):
    """``sample``'s draws from each row's own logit, summed over the parents in order, and scipy's expit."""
    values = np.zeros((n_obs, params.n), dtype=np.uint8)
    for node in topological_order(params.dag):
        eta = np.full(n_obs, params.intercepts[node])
        for parent in params.dag.parent_list(node):
            eta = eta + params.edge_coef[(parent, node)] * values[:, parent]
        values[:, node] = rng.random(n_obs) < expit(eta)
    return values


class TestSample:
    def test_all_zero_coefficients_give_half(self):
        dag = Dag(n=3, parents=(0, 0, 0))
        params = AbnParams.uniform(dag, edge_coef=5.0, intercept=0.0)
        data = sample(params, 10_000, np.random.default_rng(0))
        se3 = 3 * np.sqrt(0.25 / 10_000)
        assert np.all(np.abs(data.values.mean(axis=0) - 0.5) < se3)

    def test_orphan_intercept_five(self):
        dag = Dag(n=1, parents=(0,))
        params = AbnParams(dag=dag, intercepts=(5.0,), edge_coef={})
        data = sample(params, 10_000, np.random.default_rng(1))
        p = expit(5.0)
        se3 = 3 * np.sqrt(p * (1 - p) / 10_000)
        assert abs(data.values.mean() - p) < se3

    def test_conditional_frequency_tracks_logit(self, collider_params):
        data = sample(collider_params, 40_000, np.random.default_rng(2))
        x = data.values
        slice_ = x[(x[:, 0] == 0) & (x[:, 1] == 0)]
        assert len(slice_) > 5_000
        freq = slice_[:, 2].mean()
        se3 = 3 * np.sqrt(0.25 / len(slice_))
        assert abs(freq - 0.5) < se3

    def test_parent_effect_visible(self, collider_params):
        data = sample(collider_params, 40_000, np.random.default_rng(3))
        x = data.values
        on = x[(x[:, 0] == 1) & (x[:, 1] == 0)][:, 2].mean()
        assert abs(on - expit(5.0)) < 0.02

    def test_saturated_logits_sample_without_warnings(self):
        # eta = -1000 overflows exp(-eta) to inf: the probability is 0, as expit gives
        dag = Dag.from_edges(3, [(0, 1), (0, 2)])
        params = AbnParams(dag, (0.0, 0.0, 0.0), {(0, 1): 1000.0, (0, 2): -1000.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = sample(params, 200, np.random.default_rng(5))
        assert np.array_equal(data.values, _sample_row_by_row(params, 200, np.random.default_rng(5)))
        on = data.values[:, 0] == 1
        assert on.any() and data.values[on, 1].all() and not data.values[on, 2].any()

    @pytest.mark.parametrize("n_obs", [20, 300])  # fewer and more rows than node 5's 2^5 parent configurations
    def test_draws_match_a_row_by_row_logistic(self, n_obs):
        dag = Dag.from_edges(6, [(0, 1), *((parent, 5) for parent in range(5))])
        coefs = {(0, 1): 2.0, (0, 5): 3.5, (1, 5): -2.25, (2, 5): 3.0, (3, 5): -4.0, (4, 5): 2.75}
        params = AbnParams(dag, (0.3, -0.7, 0.1, 0.0, 0.4, -1.1), coefs)
        data = sample(params, n_obs, np.random.default_rng(11))
        assert np.array_equal(data.values, _sample_row_by_row(params, n_obs, np.random.default_rng(11)))

    def test_same_stream_same_data(self, collider_params):
        a = sample(collider_params, 500, np.random.default_rng(9))
        b = sample(collider_params, 500, np.random.default_rng(9))
        assert np.array_equal(a.values, b.values)


class TestDatasetCsv:
    def test_round_trip(self, collider_params):
        data = sample(collider_params, 40, np.random.default_rng(4))
        again = Dataset.from_csv(data.to_csv())
        assert np.array_equal(again.values, data.values)

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="^line 3: expected 2 fields, got 1$"):
            Dataset.from_csv("X1,X2\n0,1\n1\n")

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="^line 2: a field must be 0 or 1, got '2'$"):
            Dataset.from_csv("X1,X2\n0,2\n")

    def test_a_foreign_header_names_its_line(self):
        with pytest.raises(ValueError, match="^line 1: expected header X1,X2, got a,b$"):
            Dataset.from_csv("a,b\n0,1\n")

    def test_comment_and_blank_lines_above_the_header(self):
        assert Dataset.from_csv("# seed: 0\n\nX1,X2\n0,1\n").values.tolist() == [[0, 1]]

    @pytest.mark.parametrize("text, line", [("", 1), ("# only\n", 2), ("# only", 2), ("# a\n\n", 3)])
    def test_a_file_without_a_header_names_the_line_after_the_last(self, text, line):
        with pytest.raises(ValueError, match=f"^line {line}: expected header X1, got none$"):
            Dataset.from_csv(text)


class TestDatasetValues:
    @pytest.mark.parametrize("bad", [0.5, 1.7, 256, -1, np.nan])
    def test_rejects_values_the_cast_would_hide(self, bad):
        # a uint8 cast would store 0.5 and 256 as 0, 1.7 as 1
        with pytest.raises(ValueError, match="^dataset values must be 0 or 1$"):
            Dataset(np.array([[0, 1, bad]]))

    def test_accepts_zero_one_floats_and_bools(self):
        data = Dataset(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert data.values.dtype == np.uint8 and data.values.tolist() == [[0, 1], [1, 0]]
        assert Dataset(np.array([[True, False]])).values.tolist() == [[1, 0]]


def table_rows(patterns, successes, trials):
    """A (patterns, successes, trials) table as sorted rows, to compare tables as multisets."""
    return sorted(map(tuple, np.column_stack([patterns, successes, trials]).tolist()))


class TestParentTable:
    def test_empty_mask_gives_intercept_only(self, collider_params):
        data = sample(collider_params, 25, np.random.default_rng(5))
        patterns, successes, trials = parent_table(data, 2, 0)
        assert patterns.tolist() == [[1.0]]
        assert trials.tolist() == [25.0]
        assert successes.tolist() == [float(data.values[:, 2].sum())]

    def test_parents_appear_in_ascending_order(self):
        # parents 0 and 2 take the configurations (0, 0), (1, 0) and (1, 1); the
        # reverse column order would read (0, 0), (0, 1) and (1, 1)
        values = np.array(
            [[1, 0, 0, 1], [1, 1, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 1], [1, 1, 1, 1]],
            dtype=np.uint8,
        )
        patterns, successes, trials = parent_table(Dataset(values), 3, 0b0101)
        assert patterns.tolist() == [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]]
        assert successes.tolist() == [0.0, 1.0, 2.0]
        assert trials.tolist() == [2.0, 2.0, 2.0]

    @given(st.integers(0, 10_000), st.integers(0, 40))
    @example(seed=0, n_obs=0)
    @settings(max_examples=30, deadline=None)
    def test_matches_the_aggregated_explicit_design(self, seed, n_obs):
        rng = np.random.default_rng(seed)
        n_vars = int(rng.integers(1, 5))
        data = Dataset(rng.integers(0, 2, (n_obs, n_vars)))
        for node in range(n_vars):
            for mask in range(1 << n_vars):
                if (mask >> node) & 1:
                    continue
                table = parent_table(data, node, mask)
                reference = aggregate_design(*explicit_design(data, node, mask))
                assert table[0].shape[1] == reference[0].shape[1] == 1 + mask.bit_count()
                assert table_rows(*table) == table_rows(*reference)

    @pytest.mark.parametrize("chunk", [None, 1, 64])
    def test_parent_tables_match_the_reference_count_byte_for_byte(self, monkeypatch, chunk):
        # a chunk of 1 or 64 elements splits the moment and key loops of parent_tables
        if chunk is not None:
            monkeypatch.setattr(data_module, "_CHUNK", chunk)
        rng = np.random.default_rng(12)
        # fewer rows at wide n, where every size up to n - 1 gathers many itemset moments
        datasets = [
            (Dataset(rng.random((int(rng.integers(0, 60 if n < 15 else 25)), n)) < rng.uniform(0.1, 0.9)), n - 1)
            for n in range(1, 19)
        ]
        # deeper sizes at n = 24 would count millions of itemset moments
        datasets.append((Dataset(rng.integers(0, 2, (12, MAX_NODES))), 4))
        datasets.append((Dataset(np.zeros((0, 6), dtype=np.uint8)), 5))
        datasets.append((Dataset(np.repeat(rng.integers(0, 2, (1, 7)), 25, axis=0)), 6))
        all_rows = (np.arange(64)[:, None] >> np.arange(6)) & 1
        datasets.append((Dataset(all_rows[rng.permutation(64)]), 5))
        for data, cap in datasets:
            n = data.n_vars
            for size in range(cap + 1):
                nodes = rng.integers(0, n, 6 if size > 8 else 24)
                parents = [rng.choice(np.delete(np.arange(n), node), size, replace=False) for node in nodes]
                masks = np.array([sum(1 << int(v) for v in chosen) for chosen in parents])
                table = data.parent_tables(nodes, masks)
                reference = reference_parent_tables(data, nodes, masks)
                for got, expected in zip(table, reference):
                    assert (got.shape, got.dtype) == (expected.shape, expected.dtype), (n, size)
                    assert got.tobytes() == expected.tobytes(), (n, size)

    @pytest.mark.parametrize("n_obs", [30, 0])
    def test_distinct_tables_number_each_keys_table(self, n_obs):
        data = Dataset(np.random.default_rng(8).integers(0, 2, (n_obs, 5)))
        nodes = np.repeat(np.arange(5), 6)
        masks = np.array([mask for node in range(5) for mask in range(32) if mask.bit_count() == 2 and not mask >> node & 1])
        for keys in ((nodes, masks), (nodes[::2], masks[::2]), (nodes, masks)):
            *tables, number = data.distinct_tables(*keys)
            expected = data.parent_tables(*keys)
            assert data.distinct_tables(*keys)[0] is tables[0]  # kept for the same keys
            assert len(number) == len(keys[0]) and len(tables[1]) == number.max() + 1
            for got, full in zip(tables, expected):  # one row serves every key
                assert np.array_equal(*np.broadcast_arrays(got if len(got) == 1 else got[number], full))

    def test_rejects_node_out_of_range(self, collider_params):
        data = sample(collider_params, 10, np.random.default_rng(7))
        for node in (-1, 4):
            with pytest.raises(ValueError, match="out of range"):
                parent_table(data, node, 0)

    def test_rejects_node_inside_mask(self, collider_params):
        data = sample(collider_params, 10, np.random.default_rng(7))
        with pytest.raises(ValueError, match="own parent"):
            parent_table(data, 1, 0b0010)

    def test_rejects_bits_beyond_n_vars(self, collider_params):
        data = sample(collider_params, 10, np.random.default_rng(7))
        for mask in (0b10000, -2):
            with pytest.raises(ValueError, match="beyond the dataset"):
                parent_table(data, 0, mask)


class TestAggregateDesign:
    def test_counts_add_up(self):
        X = np.array([[1, 0], [1, 0], [1, 1], [1, 1], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 1, 0], dtype=float)
        patterns, successes, trials = aggregate_design(X, y)
        assert patterns.shape[0] == 2
        assert trials.sum() == 5
        assert successes.sum() == 3
        row_of = {tuple(p): i for i, p in enumerate(patterns)}
        assert trials[row_of[(1.0, 0.0)]] == 2 and successes[row_of[(1.0, 0.0)]] == 1
        assert trials[row_of[(1.0, 1.0)]] == 3 and successes[row_of[(1.0, 1.0)]] == 2

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_row_order_never_matters(self, seed):
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(30), rng.integers(0, 2, (30, 2))]).astype(float)
        y = rng.integers(0, 2, 30).astype(float)
        perm = rng.permutation(30)
        base = aggregate_design(X, y)
        shuffled = aggregate_design(X[perm], y[perm])
        for a, b in zip(base, shuffled):
            assert np.array_equal(a, b)


def design(xcols, y):
    X = np.column_stack([np.ones(len(y))] + [np.asarray(c, dtype=float) for c in xcols])
    return X, np.asarray(y, dtype=float)


class TestSeparationStatus:
    def test_perfect_predictor_is_complete(self):
        X, y = design([[0, 0, 1, 1]], [0, 0, 1, 1])
        assert separation_of_design(X, y) == SeparationStatus.COMPLETE

    def test_overlap_everywhere_is_none(self):
        X, y = design([[0, 0, 1, 1]], [0, 1, 0, 1])
        assert separation_of_design(X, y) == SeparationStatus.NONE

    def test_one_sided_overlap_is_quasi(self):
        # y always 1 when x = 1, mixed at x = 0
        X, y = design([[0, 0, 1, 1]], [0, 1, 1, 1])
        assert separation_of_design(X, y) == SeparationStatus.QUASI_COMPLETE

    def test_degenerate_outcome_is_complete(self):
        X, y = design([[0, 1, 0, 1]], [1, 1, 1, 1])
        assert separation_of_design(X, y) == SeparationStatus.COMPLETE

    def test_intercept_only_mixed_is_none(self):
        X, y = design([], [0, 1, 1, 0])
        assert separation_of_design(X, y) == SeparationStatus.NONE

    @pytest.mark.parametrize(
        "xcols, y, status, lps",
        [
            ([[0, 0, 1, 1]], [0, 0, 1, 1], SeparationStatus.COMPLETE, ["strict"]),
            ([[0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 0, 1]], [0, 1, 1, 0], SeparationStatus.QUASI_COMPLETE, ["strict"]),
            ([[0, 0, 1, 1]], [0, 1, 0, 1], SeparationStatus.NONE, []),
            ([[0, 0, 1, 1]], [0, 1, 1, 1], SeparationStatus.QUASI_COMPLETE, ["weak"]),
            ([[0, 0, 1, 1], [0, 0, 1, 1]], [0, 1, 1, 1], SeparationStatus.QUASI_COMPLETE, []),
        ],
        ids=["pure-strict", "pure-flat", "mixed-full-rank", "mixed-weak", "mixed-flat"],
    )
    def test_linear_programs_run_only_where_the_rank_leaves_the_answer_open(self, monkeypatch, xcols, y, status, lps):
        # a mixed pattern rules complete separation out, and a rank-deficient design is quasi-complete
        calls = Counter()
        lp = data_module._separation_lp

        def counted(signed, strict):
            calls.update(["strict" if strict else "weak"])
            return lp(signed, strict)

        monkeypatch.setattr(data_module, "_separation_lp", counted)
        X, y = design(xcols, y)
        assert separation_of_design(X, y) == status
        assert status.value == fm_separation(X, y)
        assert calls == Counter(lps)

    def test_parent_table_classifies_the_named_column(self, collider_params):
        data = sample(collider_params, 200, np.random.default_rng(8))
        status = separation_of_patterns(*parent_table(data, 3, 0b0100))
        assert status == separation_of_design(*explicit_design(data, 3, 0b0100))

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_rational_feasibility_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n_pred = int(rng.integers(0, 3))
        n_obs = int(rng.integers(1, 13))
        X = np.column_stack(
            [np.ones(n_obs)] + [rng.integers(0, 2, n_obs) for _ in range(n_pred)]
        ).astype(float)
        y = rng.integers(0, 2, n_obs).astype(float)
        assert separation_of_design(X, y).value == fm_separation(X, y)

    def test_complete_implies_quasi_condition(self):
        # the strict system is a special case of the weak one, so the detector
        # must never report complete where the weak certificate is infeasible
        X, y = design([[0, 0, 1, 1]], [0, 0, 1, 1])
        assert fm_separation(X, y) == "complete"
