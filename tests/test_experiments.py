import importlib.util
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from abn_forge import (
    AbnParams,
    compare,
    parse_graph_json,
    to_cpdag,
)
from abn_forge import experiments, score, search
from abn_forge._util import csv_text
from abn_forge.experiments import (
    RESULT_FIELDS,
    SUMMARY_FIELDS,
    ResultRow,
    StudyConfig,
    derive_rng,
    results_from_csv,
    results_to_csv,
    run_study,
    summarize_rows,
    summary_from_csv,
    summary_to_csv,
    timings_to_csv,
)
from test_cli import DESCRIBED, SET_HYPERPARAMETERS


def tiny_separation_config(**overrides):
    base = dict(
        study="separation",
        n_nodes=3,
        densities=(0.8,),
        sample_sizes=(60,),
        replicates=2,
        priors=("wi", "st"),
        master_seed=11,
    )
    base.update(overrides)
    return StudyConfig(**base)


class TestDeriveRng:
    def test_same_identity_same_stream(self):
        a = derive_rng(7, "separation:n=5:density=0.8:N=100", 3)
        b = derive_rng(7, "separation:n=5:density=0.8:N=100", 3)
        assert np.array_equal(a.integers(0, 1 << 30, 8), b.integers(0, 1 << 30, 8))

    def test_replicates_get_distinct_streams(self):
        a = derive_rng(7, "lindley:n=8:density=0.5:N=1000", 0)
        b = derive_rng(7, "lindley:n=8:density=0.5:N=1000", 1)
        assert not np.array_equal(a.integers(0, 1 << 30, 8), b.integers(0, 1 << 30, 8))

    def test_labels_and_seeds_get_distinct_streams(self):
        base = derive_rng(7, "separation:n=5:density=0.8:N=100", 0)
        other_label = derive_rng(7, "separation:n=5:density=0.8:N=1000", 0)
        other_seed = derive_rng(8, "separation:n=5:density=0.8:N=100", 0)
        draws = base.integers(0, 1 << 30, 8)
        assert not np.array_equal(draws, other_label.integers(0, 1 << 30, 8))
        assert not np.array_equal(draws, other_seed.integers(0, 1 << 30, 8))


class TestStudyConfig:
    def test_rejects_unknown_study(self):
        with pytest.raises(ValueError, match="study"):
            tiny_separation_config(study="bootstrap")

    def test_rejects_bad_densities(self):
        with pytest.raises(ValueError):
            tiny_separation_config(densities=())
        with pytest.raises(ValueError):
            tiny_separation_config(densities=(0.0,))
        with pytest.raises(ValueError):
            tiny_separation_config(densities=(1.2,))

    def test_rejects_bad_sample_sizes(self):
        with pytest.raises(ValueError):
            tiny_separation_config(sample_sizes=(0,))

    def test_rejects_negative_replicates(self):
        with pytest.raises(ValueError):
            tiny_separation_config(replicates=-1)

    def test_si_prior_only_in_lindley_study(self):
        with pytest.raises(ValueError, match="priors"):
            tiny_separation_config(priors=("wi", "si"))
        StudyConfig(
            study="lindley",
            n_nodes=3,
            densities=(0.5,),
            sample_sizes=(50,),
            replicates=1,
            priors=("wi", "st", "si"),
        )

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(n_nodes=0), "n_nodes"),
            (dict(n_nodes=30), "n_nodes"),
            (dict(n_nodes=2.5), "n_nodes"),
            (dict(n_nodes=True), "n_nodes"),
            (dict(max_parents=-1), "max_parents"),
            (dict(max_parents=3), "max_parents"),
            # a JSON 1.0 or 100.9 is no count: int() would truncate it, or a cell would fail on it late
            (dict(max_parents=1.0), "max_parents must be an integer"),
            (dict(sample_sizes=(100.9,)), "sample_sizes must be an integer"),
            (dict(replicate_ids=(1.2,)), "replicate_ids must be an integer"),
            (dict(replicates=1.5), "replicates must be an integer"),
            (dict(master_seed=2.0), "master_seed must be an integer"),
            (dict(edge_coef=float("nan")), "edge_coef"),
            (dict(edge_coef=float("inf")), "edge_coef"),
            (dict(intercept=float("-inf")), "intercept"),
            (dict(wi_variance=float("nan")), "wi_variance"),
            (dict(wi_variance=0.0), "wi_variance"),
            (dict(st_df=0.0), "st_df"),
            (dict(st_scale=-1.0), "st_scale"),
            (dict(st_intercept_scale=float("inf")), "st_intercept_scale"),
            (dict(si_variance=float("-inf")), "si_variance"),
            (dict(si_absent_variance=float("nan")), "si_absent_variance"),
            # a repeated value would run its cells again; no replicate_ids would run nothing
            (dict(priors=("wi", "wi")), "priors must not repeat"),
            (dict(priors=("wi", "WI")), "priors must not repeat"),
            (dict(densities=(0.8, 0.8)), "densities must not repeat"),
            (dict(sample_sizes=(60, 60)), "sample_sizes must not repeat"),
            (dict(replicate_ids=(1, 1)), "replicate_ids must not repeat"),
            (dict(replicate_ids=()), "replicate_ids must be nonempty"),
        ],
    )
    def test_rejects_sizes_and_coefficients_no_cell_can_use(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            tiny_separation_config(**overrides)

    @pytest.mark.parametrize(
        "field, value",
        [
            # JSON's true and "5" are no numbers: float() would read them as 1.0 and 5.0
            ("densities", (True,)),
            ("edge_coef", True),
            ("intercept", True),
            ("wi_variance", "1000"),
            ("st_df", True),
            ("st_scale", "2.5"),
            ("st_intercept_scale", True),
            ("si_variance", "0.1"),
            ("si_absent_variance", True),
        ],
    )
    def test_rejects_a_float_field_that_is_no_number(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            tiny_separation_config(**{field: value})

    def test_rejects_out_of_range_replicate_ids(self):
        with pytest.raises(ValueError, match="replicate_ids"):
            tiny_separation_config(replicate_ids=(2,))

    def test_json_round_trip(self):
        config = tiny_separation_config(intercept=0.5, max_parents=2, replicate_ids=(0,))
        again = StudyConfig.from_json(config.to_json())
        assert again == config

    @pytest.mark.parametrize(
        "path", sorted((Path(__file__).parents[1] / "configs").glob("*.json")), ids=lambda path: path.name
    )
    def test_shipped_config_reads_back_to_its_own_bytes(self, path):
        text = path.read_text()
        assert StudyConfig.from_json(text).to_json() == text

    def test_numpy_integers_are_stored_as_ints(self):
        plain = tiny_separation_config(max_parents=1)
        config = tiny_separation_config(
            n_nodes=np.int64(3), replicates=np.int64(2), master_seed=np.int32(11), max_parents=np.int64(1)
        )
        assert config.to_json() == plain.to_json()
        for name in ("n_nodes", "replicates", "master_seed", "max_parents"):
            assert type(getattr(config, name)) is int, name

    def test_default_intercept_serializes_as_null(self):
        config = tiny_separation_config()
        obj = json.loads(config.to_json())
        assert obj["intercept"] is None
        assert StudyConfig.from_json(config.to_json()).intercept is None

    def test_rejects_unknown_json_keys(self):
        obj = json.loads(tiny_separation_config().to_json())
        obj["burn_in"] = 10
        with pytest.raises(ValueError, match="burn_in"):
            StudyConfig.from_json(json.dumps(obj))


class TestRunStudy:
    def test_zero_replicates_give_no_rows(self):
        assert run_study(tiny_separation_config(replicates=0)) == []

    def test_row_count_and_sorting(self):
        config = tiny_separation_config(sample_sizes=(40, 80))
        rows = run_study(config, workers=1)
        assert len(rows) == 1 * 2 * 2 * 2
        keys = [(r.prior_name, r.density, r.n_obs, r.replicate) for r in rows]
        assert keys == sorted(keys)

    def test_same_config_twice_is_byte_identical(self):
        config = tiny_separation_config()
        a = results_to_csv(run_study(config, workers=1))
        b = results_to_csv(run_study(config, workers=1))
        assert a == b

    def test_different_seed_changes_results(self):
        a = results_to_csv(run_study(tiny_separation_config(master_seed=1), workers=1))
        b = results_to_csv(run_study(tiny_separation_config(master_seed=2), workers=1))
        assert a != b

    def test_parallel_run_matches_serial(self):
        config = tiny_separation_config(replicates=3)
        serial = results_to_csv(run_study(config, workers=1))
        parallel = results_to_csv(run_study(config, workers=2))
        assert serial == parallel

    def test_replicate_subset_reproduces_full_run_rows(self):
        config = tiny_separation_config(replicates=4)
        full = run_study(config, workers=1)
        subset = run_study(
            tiny_separation_config(replicates=4, replicate_ids=(2,)), workers=1
        )
        wanted = [r for r in full if r.replicate == 2]
        assert [(r.prior_name, r.tpr, r.fpr, r.edges_fitted) for r in subset] == [
            (r.prior_name, r.tpr, r.fpr, r.edges_fitted) for r in wanted
        ]

    def test_constant_intercept_changes_the_data(self):
        balanced = results_to_csv(run_study(tiny_separation_config(), workers=1))
        shifted = results_to_csv(
            run_study(tiny_separation_config(intercept=5.0), workers=1)
        )
        assert balanced != shifted

    def test_empty_truth_rows_are_flagged(self):
        config = StudyConfig(
            study="lindley",
            n_nodes=3,
            densities=(0.02,),
            sample_sizes=(40,),
            replicates=4,
            priors=("wi",),
            master_seed=0,
        )
        rows = run_study(config, workers=1)
        flagged = [r for r in rows if r.note == "empty_truth"]
        assert flagged, "at density 0.02 on 3 nodes some truth draw has no edges"
        assert all(math.isnan(r.normalized_parents) for r in flagged)
        assert all(r.edges_true == 0 for r in flagged)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_study(tiny_separation_config(), workers=workers)

    def test_failing_fit_yields_error_row(self, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("fit blew up")

        monkeypatch.setattr(experiments, "build_score_cache", explode)
        rows = run_study(tiny_separation_config(replicates=1), workers=1)
        assert results_to_csv(rows).splitlines()[1:] == [
            f"separation,{prior},0.8,60,0,nan,nan,nan,0,0,nan,error: fit blew up" for prior in ("st", "wi")
        ]

    def test_failing_draw_yields_error_row_per_prior(self, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("draw blew up")

        monkeypatch.setattr(experiments, "random_dag", explode)
        rows = run_study(tiny_separation_config(replicates=1), workers=1)
        assert results_to_csv(rows).splitlines()[1:] == [
            f"separation,{prior},0.8,60,0,nan,nan,nan,0,0,nan,error: draw blew up" for prior in ("st", "wi")
        ]


def _perfbench_layers():
    # perfbench/layers.py imports nothing from abn_forge, so loading it runs no benchmark code
    path = Path(__file__).parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkContract:
    # perfbench times a study cell through these module attributes, and its worker marks a cell
    # wrong unless it sees one build_score_cache and one exact_search call per prior
    TRACED = _perfbench_layers().TRACED
    MODULES = {"experiments": experiments, "score": score, "search": search}
    # a cache classifies separation only on request, which a study cell never makes
    UNCALLED = {"separation_of_patterns"}

    @pytest.mark.parametrize("module, name", TRACED)
    def test_every_traced_name_resolves(self, module, name):
        assert callable(getattr(self.MODULES[module], name))

    def test_a_cell_calls_every_timed_layer_and_builds_once_per_prior(self, monkeypatch):
        config = StudyConfig(
            study="lindley",
            n_nodes=4,
            densities=(0.5,),
            sample_sizes=(50,),
            replicates=1,
            priors=("wi", "st", "si"),
            master_seed=3,
        )
        unwrapped = results_to_csv(run_study(config, workers=1))
        calls = Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        for module, name in self.TRACED:
            target = self.MODULES[module]
            monkeypatch.setattr(target, name, counting(name, getattr(target, name)))
        assert results_to_csv(run_study(config, workers=1)) == unwrapped
        assert set(calls) == {name for _, name in self.TRACED} - self.UNCALLED
        assert calls["build_score_cache"] == calls["exact_search"] == len(config.priors)


class TestPriorHyperparameters:
    def test_each_config_hyperparameter_reaches_the_prior_a_cell_builds(self, monkeypatch):
        described = []
        build = experiments.build_score_cache

        def capture(data, prior, max_parents=None):
            described.append(prior.describe())
            return build(data, prior, max_parents)

        monkeypatch.setattr(experiments, "build_score_cache", capture)
        config = StudyConfig(
            study="lindley",
            n_nodes=3,
            densities=(0.5,),
            sample_sizes=(30,),
            replicates=1,
            priors=("wi", "st", "si"),
            **SET_HYPERPARAMETERS,
        )
        rows = run_study(config, workers=1)
        assert [row.note for row in rows] == [""] * 3
        assert described == [DESCRIBED[name] for name in config.priors]


class TestRunArtifacts:
    def test_cell_artifacts_reproduce_the_reported_metrics(self, tmp_path):
        config = tiny_separation_config(replicates=1)
        rows = run_study(config, runs_dir=tmp_path, workers=1)
        cell = tmp_path / "separation" / "d0.8_N60_rep000"
        truth_params = AbnParams.from_json((cell / "truth.json").read_text())
        truth_cp = to_cpdag(truth_params.dag)
        for row in rows:
            estimate = parse_graph_json(
                (cell / f"estimate_{row.prior_name}.json").read_text()
            )
            metrics = compare(to_cpdag(estimate), truth_cp)
            assert metrics.tpr == pytest.approx(row.tpr)
            assert metrics.fpr == pytest.approx(row.fpr)

    def test_truth_uses_balanced_intercepts_by_default(self, tmp_path):
        run_study(tiny_separation_config(replicates=1), runs_dir=tmp_path, workers=1)
        cell = tmp_path / "separation" / "d0.8_N60_rep000"
        params = AbnParams.from_json((cell / "truth.json").read_text())
        for node in range(params.n):
            k = len(params.dag.parent_list(node))
            assert params.intercepts[node] == pytest.approx(-5.0 * k / 2.0)

    def test_dataset_file_matches_reported_sample_size(self, tmp_path):
        from abn_forge import Dataset

        run_study(tiny_separation_config(replicates=1), runs_dir=tmp_path, workers=1)
        data = Dataset.from_csv(
            (tmp_path / "separation" / "d0.8_N60_rep000" / "data.csv").read_text()
        )
        assert data.n_obs == 60
        assert data.n_vars == 3


class TestResultTables:
    def make_rows(self):
        return [
            ResultRow(
                study="separation",
                prior_name="wi",
                density=0.8,
                n_obs=100,
                replicate=i,
                tpr=v,
                fpr=f,
                tnr=1.0 - f,
                edges_true=4,
                edges_fitted=3,
                normalized_parents=0.75,
                wall_time_ms=12.5,
            )
            for i, (v, f) in enumerate([(0.5, 0.0), (0.75, 0.25), (1.0, 0.0), (0.25, 0.5)])
        ]

    def test_csv_round_trip(self):
        rows = self.make_rows()
        again = results_from_csv(results_to_csv(rows))
        assert [(r.tpr, r.fpr, r.replicate) for r in again] == [
            (r.tpr, r.fpr, r.replicate) for r in rows
        ]

    def test_nan_metrics_survive_round_trip(self):
        row = self.make_rows()[0]
        row.tpr = float("nan")
        row.normalized_parents = float("nan")
        again = results_from_csv(results_to_csv([row]))[0]
        assert math.isnan(again.tpr) and math.isnan(again.normalized_parents)

    def test_results_csv_excludes_wall_time(self):
        text = results_to_csv(self.make_rows())
        assert "wall_time" not in text
        timing = timings_to_csv(self.make_rows())
        assert timing.splitlines()[1].endswith("12.500")

    def test_rejects_foreign_header(self):
        with pytest.raises(ValueError, match="header"):
            results_from_csv("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize("got", [13, 11])
    @pytest.mark.parametrize("kind", ["results", "summary"])
    def test_rejects_a_row_of_the_wrong_width(self, kind, got):
        rows = self.make_rows()
        if kind == "results":
            text, read = results_to_csv(rows), results_from_csv
        else:
            text, read = summary_to_csv(summarize_rows(rows)), summary_from_csv
        lines = text.splitlines()
        lines[2] = ",".join((lines[2].split(",") + ["extra"])[:got])
        with pytest.raises(ValueError, match=f"^line 3: expected 12 fields, got {got}$"):
            read("\n".join(lines) + "\n")

    def test_a_field_that_does_not_convert_names_its_line(self):
        lines = results_to_csv(self.make_rows()).splitlines()
        lines[1] = lines[1].replace(",100,", ",many,")
        with pytest.raises(ValueError, match="^line 2: invalid literal for int"):
            results_from_csv("\n".join(lines) + "\n")

    @pytest.mark.parametrize("kind", ["results", "summary"])
    def test_comment_lines_above_the_header_are_skipped(self, kind):
        if kind == "results":
            fields, records, read = RESULT_FIELDS, [vars(row) for row in self.make_rows()], results_from_csv
        else:
            fields, records, read = SUMMARY_FIELDS, summarize_rows(self.make_rows()), summary_from_csv
        values = [[rec[name] for name in fields] for rec in records]
        text = csv_text(fields, values, [("study", "separation"), ("seed", 0)])
        assert text.startswith("# study: separation\n# seed: 0\n")
        assert read(text) == read(csv_text(fields, values))

    def test_summary_stats_match_numpy(self):
        rows = self.make_rows()
        summary = summarize_rows(rows)
        tpr = next(rec for rec in summary if rec["metric"] == "tpr")
        values = np.array([0.5, 0.75, 1.0, 0.25])
        assert tpr["count"] == 4
        assert tpr["mean"] == pytest.approx(values.mean())
        assert tpr["median"] == pytest.approx(np.median(values))
        assert tpr["q1"] == pytest.approx(np.percentile(values, 25))
        assert tpr["q3"] == pytest.approx(np.percentile(values, 75))
        assert tpr["lo"] == pytest.approx(0.25) and tpr["hi"] == pytest.approx(1.0)

    def test_flagged_rows_are_left_out_of_summaries(self):
        rows = self.make_rows()
        rows[0].note = "empty_truth"
        rows[1].note = "error: boom"
        summary = summarize_rows(rows)
        tpr = next(rec for rec in summary if rec["metric"] == "tpr")
        assert tpr["count"] == 2

    def test_summary_csv_round_trip(self):
        summary = summarize_rows(self.make_rows())
        again = summary_from_csv(summary_to_csv(summary))
        assert again == summary
