import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abn_forge import (
    Dag,
    ScoreCache,
    best_parent_sets,
    exact_search,
    search,
)
from abn_forge.score import parent_masks
from oracles import (
    brute_force_search,
    cache_from_scores,
    full_mask_tables,
    reference_best_parent_sets,
    reference_exact_search,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def random_cache(n_vars, rng, max_parents=None, draw=lambda rng: rng.normal(scale=3.0)):
    cap = n_vars - 1 if max_parents is None else max_parents
    keys = [(node, mask) for node in range(n_vars) for mask in parent_masks(n_vars, node, cap)]
    return cache_from_scores(n_vars, cap, {key: draw(rng) for key in keys})


def constant_cache(n_vars, value=0.0, bonus=None):
    keys = [(node, mask) for node in range(n_vars) for mask in parent_masks(n_vars, node, n_vars - 1)]
    return cache_from_scores(n_vars, n_vars - 1, {**dict.fromkeys(keys, value), **(bonus or {})})


def dag_score(cache, dag):
    return sum(cache.score(j, dag.parents[j]) for j in range(dag.n))


class TestBestParentSets:
    def test_empty_set_dominates_when_it_scores_highest(self):
        cache = constant_cache(3, value=-1.0, bonus={(0, 0): 5.0, (1, 0): 5.0, (2, 0): 5.0})
        score, mask = full_mask_tables(best_parent_sets(cache))
        for node in range(3):
            for candidate in range(8):
                if (candidate >> node) & 1:
                    continue
                assert mask[node, candidate] == 0
                assert score[node, candidate] == 5.0

    def test_agrees_with_direct_enumeration(self):
        rng = np.random.default_rng(0)
        caches = [random_cache(4, rng) for _ in range(20)]
        # integer scores make ties common, so the lowest-mask tie-break is exercised
        caches += [random_cache(4, rng, draw=lambda r: r.integers(-2, 3)) for _ in range(10)]
        caches += [
            random_cache(4, rng, draw=lambda r: -np.inf if r.random() < 0.3 else r.integers(-2, 3))
            for _ in range(10)
        ]
        caches += [random_cache(5, rng, max_parents=2) for _ in range(5)]
        # a real cache whose failed st fits are scored -inf
        caches.append(ScoreCache.from_csv((GOLDEN / "cache_st.csv").read_text()))
        for cache in caches:
            n = cache.n_vars
            entries = list(zip(cache.nodes.tolist(), cache.masks.tolist(), cache.log_score.tolist()))
            score, mask = full_mask_tables(best_parent_sets(cache))
            for node in range(n):
                for candidate in range(1 << n):
                    if (candidate >> node) & 1:
                        continue
                    best = max((s, -m) for j, m, s in entries if j == node and m & candidate == m)
                    assert score[node, candidate] == best[0]
                    assert mask[node, candidate] == -best[1]

    def test_monotone_in_candidate_set(self):
        cache = random_cache(5, np.random.default_rng(1))
        score, _ = full_mask_tables(best_parent_sets(cache))
        for node in range(5):
            for candidate in range(32):
                if (candidate >> node) & 1:
                    continue
                for bit in range(5):
                    if bit == node or (candidate >> bit) & 1:
                        continue
                    bigger = candidate | (1 << bit)
                    assert score[node, bigger] >= score[node, candidate]

    def test_respects_parent_cap(self):
        cache = random_cache(5, np.random.default_rng(2), max_parents=2)
        _, mask = full_mask_tables(best_parent_sets(cache))
        full = 0b11110
        assert bin(mask[0, full]).count("1") <= 2


class TestExactSearch:
    def test_empty_cache_preference_gives_empty_dag(self):
        cache = constant_cache(4, value=-2.0)
        bonus = {(j, 0): 1.0 for j in range(4)}
        cache = constant_cache(4, value=-2.0, bonus=bonus)
        result = exact_search(cache)
        assert result.dag.edge_count() == 0
        assert result.total_score == pytest.approx(4.0)

    def test_total_score_sums_node_scores(self):
        cache = random_cache(4, np.random.default_rng(3))
        result = exact_search(cache)
        assert result.total_score == pytest.approx(dag_score(cache, result.dag))

    def test_matches_brute_force_scores(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            cache = random_cache(4, rng)
            exact = exact_search(cache)
            brute = brute_force_search(cache)
            assert exact.total_score == pytest.approx(brute.total_score, abs=1e-9)

    def test_result_is_acyclic_and_within_cap(self):
        cache = random_cache(6, np.random.default_rng(5), max_parents=2)
        result = exact_search(cache)
        assert all(bin(m).count("1") <= 2 for m in result.dag.parents)

    def test_all_ties_resolve_to_empty_graph(self):
        cache = constant_cache(4, value=1.5)
        result = exact_search(cache)
        assert result.dag.edge_count() == 0
        assert result.total_score == pytest.approx(6.0)

    def test_equal_scores_resolve_to_the_lowest_sink(self):
        # 1 -> 0 and 0 -> 1 score the same; peeling node 0 off first keeps 1 -> 0
        cache = constant_cache(2, value=0.0, bonus={(0, 0b10): 4.0, (1, 0b01): 4.0})
        assert exact_search(cache).dag.parents == (0b10, 0)

    def test_node_without_a_finite_score_has_no_admissible_sink(self):
        cache = constant_cache(3, bonus={(2, m): -np.inf for m in parent_masks(3, 2, 2)})
        with pytest.raises(RuntimeError, match="no admissible sink"):
            exact_search(cache)

    def test_two_runs_agree_exactly(self):
        cache = random_cache(5, np.random.default_rng(6))
        a = exact_search(cache)
        b = exact_search(cache)
        assert a.dag == b.dag
        assert a.total_score == b.total_score

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_beats_every_sampled_dag(self, seed):
        rng = np.random.default_rng(seed)
        cache = random_cache(4, rng)
        best = exact_search(cache).total_score
        masks = [list(parent_masks(4, node, 3)) for node in range(4)]
        for _ in range(30):
            candidate = [int(rng.choice(m)) for m in masks]
            from abn_forge import is_acyclic

            if is_acyclic(candidate):
                dag = Dag(n=4, parents=tuple(candidate))
                assert dag_score(cache, dag) <= best + 1e-9

    def test_shifting_one_node_shifts_total_by_the_same_amount(self):
        rng = np.random.default_rng(7)
        cache = random_cache(4, rng)
        base = exact_search(cache)
        shifted = dataclasses.replace(cache, log_score=cache.log_score + np.where(cache.nodes == 2, 2.5, 0.0))
        moved = exact_search(shifted)
        assert moved.dag == base.dag
        assert moved.total_score == pytest.approx(base.total_score + 2.5)


DRAWS = {
    "normal": lambda rng: rng.normal(scale=3.0),
    # integer scores make ties common, for both tie-breaks
    "ties": lambda rng: rng.integers(-2, 3),
    "inf": lambda rng: -np.inf if rng.random() < 0.3 else rng.integers(-2, 3),
}


def assert_matches_reference(cache):
    """The rank-table search gives the float-and-mask reference bit for bit."""
    table_score, table_mask = full_mask_tables(best_parent_sets(cache))
    score, mask = reference_best_parent_sets(cache)
    assert table_score.dtype == score.dtype and table_mask.dtype == mask.dtype
    np.testing.assert_array_equal(table_score, score)
    np.testing.assert_array_equal(table_mask, mask)
    try:
        expected = reference_exact_search(cache)
    except RuntimeError:
        with pytest.raises(RuntimeError, match="no admissible sink"):
            exact_search(cache)
        return
    result = exact_search(cache)
    assert result.dag == expected.dag
    assert result.total_score == expected.total_score


class TestAgainstReference:
    @pytest.mark.parametrize("draw", sorted(DRAWS))
    @pytest.mark.parametrize("n_vars", range(1, 11))
    def test_random_caches_under_every_cap(self, n_vars, draw):
        rng = np.random.default_rng([n_vars, sorted(DRAWS).index(draw)])
        for cap in range(n_vars):
            assert_matches_reference(random_cache(n_vars, rng, max_parents=cap, draw=DRAWS[draw]))

    @pytest.mark.parametrize("draw", ["ties", "inf"])
    @pytest.mark.parametrize("n_vars", range(11, 15))
    def test_random_caches_beyond_n10_with_two_parents(self, n_vars, draw):
        # wider subset lattices than the every-cap test reaches: up to 14 sinks to peel per subset
        rng = np.random.default_rng([n_vars, sorted(DRAWS).index(draw)])
        assert_matches_reference(random_cache(n_vars, rng, max_parents=2, draw=DRAWS[draw]))

    @pytest.mark.parametrize("name", ["cache_wi.csv", "cache_st.csv", "cache_si.csv"])
    def test_golden_caches(self, name):
        assert_matches_reference(ScoreCache.from_csv((GOLDEN / name).read_text()))

    @pytest.mark.parametrize(
        "n_vars, max_parents, dtype",
        [(1, 0, np.uint8), (2, 1, np.uint8), (9, 7, np.uint8), (9, 8, np.uint16), (12, 2, np.uint8)],
    )
    def test_rank_rows_cover_the_other_nodes(self, n_vars, max_parents, dtype):
        # one rank per candidate mask over the n - 1 other nodes; a node with
        # at most 255 finite entries ranks in one byte, up to 65,535 in two
        cache = random_cache(n_vars, np.random.default_rng(12), max_parents=max_parents)
        rank = best_parent_sets(cache).rank
        assert rank.shape == (n_vars, 2 ** (n_vars - 1))
        assert rank.dtype == dtype

    def test_full_parent_sets_at_n10_rank_in_two_bytes(self):
        # 512 parent sets per node do not fit a one-byte rank
        cache = random_cache(10, np.random.default_rng(9), draw=DRAWS["ties"])
        assert best_parent_sets(cache).rank.dtype == np.uint16
        assert_matches_reference(cache)

    def test_node_without_a_finite_score_fails_as_the_reference_does(self):
        cache = random_cache(4, np.random.default_rng(10))
        cache.log_score[cache.nodes == 1] = -np.inf
        cache.converged[cache.nodes == 1] = False
        with pytest.raises(RuntimeError, match="no admissible sink"):
            reference_exact_search(cache)
        assert_matches_reference(cache)

    def test_missing_sets_count_as_unscored(self):
        # a cache built in code may leave out sets; the search never picks them
        cache = random_cache(5, np.random.default_rng(11), draw=DRAWS["inf"])
        kept = np.ones(cache.total_entries(), dtype=bool)
        for node, mask in [(0, 0), (2, 0b01), (3, 0b10011)]:
            kept &= (cache.nodes != node) | (cache.masks != mask)
        columns = {name: getattr(cache, name)[kept] for name in ("nodes", "masks", "log_score", "converged")}
        cache = dataclasses.replace(cache, **columns)
        assert cache.total_entries() == 5 * 2**4 - 3
        assert_matches_reference(cache)


def search_outcome(search_fn, cache):
    """The DAG and total ``search_fn`` finds, or the message of its RuntimeError."""
    try:
        result = search_fn(cache)
    except RuntimeError as exc:
        return str(exc)
    return result.dag, result.total_score


class TestBlockShapes:
    """The sink DP's table cut into rows of any shape gives the reference search bit for bit."""

    # rows of 2^bits subsets at every n; None keeps every table one row
    SHAPES = {"one row": None, "one column": 0, "one low bit": 1, "rows of 4": 2, "rows of 8": 3}

    @pytest.mark.parametrize("draw", ["ties", "inf"])
    @pytest.mark.parametrize("n_vars", range(2, 13))
    def test_random_caches_under_every_cap(self, monkeypatch, n_vars, draw):
        rng = np.random.default_rng([n_vars, 100 + sorted(DRAWS).index(draw)])
        caches = [random_cache(n_vars, rng, max_parents=cap, draw=DRAWS[draw]) for cap in range(n_vars)]
        shapes = []

        def recorded(table, b):
            shapes.append((table.n_vars - b, b))
            return sink_table(table, b)

        sink_table = search._sink_table
        monkeypatch.setattr(search, "_sink_table", recorded)
        for cache in caches:
            # the reference search is the slow part, so it runs once per cache
            expected = search_outcome(reference_exact_search, cache)
            for shape, bits in self.SHAPES.items():
                monkeypatch.setattr(search, "_ONE_ROW_BELOW", 99 if bits is None else 0)
                monkeypatch.setattr(search, "_BLOCK_BITS", bits)
                assert search_outcome(exact_search, cache) == expected, shape
        # (high bits, low bits) of every table: one row, one column, and a block of two or more of each
        assert (0, n_vars) in shapes and (n_vars, 0) in shapes
        assert any(h >= 2 and b >= 2 for h, b in shapes) == (n_vars >= 4)


def test_sink_dp_peaks_within_16_bytes_per_subset_at_n18(monkeypatch):
    # 8 bytes are the table's float per subset; the rank table is built before tracing
    cache = random_cache(18, np.random.default_rng(14), max_parents=2)
    table = best_parent_sets(cache)
    monkeypatch.setattr(search, "best_parent_sets", lambda _: table)
    tracemalloc.start()
    try:
        exact_search(cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**18


def test_exact_search_looks_up_best_parent_sets_by_module_name(monkeypatch):
    # layer tracing wraps search.best_parent_sets by name and counts one call per search
    calls = []

    def counted(cache):
        calls.append(cache)
        return best_parent_sets(cache)

    monkeypatch.setattr(search, "best_parent_sets", counted)
    cache = random_cache(5, np.random.default_rng(13))
    result = exact_search(cache)
    assert calls == [cache]
    assert result == reference_exact_search(cache)


class TestBruteForceSearch:
    def test_single_node(self):
        cache = constant_cache(1, value=0.75)
        result = brute_force_search(cache)
        assert result.dag == Dag(n=1, parents=(0,))
        assert result.total_score == pytest.approx(0.75)

    def test_two_nodes_with_dominant_edge(self):
        cache = constant_cache(2, value=0.0, bonus={(1, 0b01): 4.0})
        result = brute_force_search(cache)
        assert result.dag == Dag.from_edges(2, [(0, 1)])
        assert result.total_score == pytest.approx(4.0)

    def test_rejects_large_problems(self):
        cache = constant_cache(6)
        with pytest.raises(ValueError):
            brute_force_search(cache)

    def test_five_node_agreement_with_exact(self):
        cache = random_cache(5, np.random.default_rng(8))
        assert brute_force_search(cache).total_score == pytest.approx(
            exact_search(cache).total_score, abs=1e-9
        )

    def test_explores_every_dag(self):
        # on a cache rewarding a specific dense structure the maximum is
        # only found if the walk really covers the full space
        target = Dag.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        bonus = {(j, target.parents[j]): 10.0 for j in range(4)}
        cache = constant_cache(4, value=0.0, bonus=bonus)
        result = brute_force_search(cache)
        assert result.dag == target
        assert result.total_score == pytest.approx(40.0)
