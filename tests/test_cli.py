import json
import re
from collections import Counter

import pytest

from abn_forge import AbnParams, Dag, ScoreCache, experiments
from abn_forge.cli import main
from abn_forge.experiments import results_from_csv


@pytest.fixture
def chain_params_file(tmp_path):
    dag = Dag.from_edges(3, [(0, 1), (1, 2)])
    path = tmp_path / "params.json"
    path.write_text(AbnParams.balanced(dag, 5.0).to_json())
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestPipeline:
    def test_simulate_score_search_evaluate(self, tmp_path, chain_params_file, capsys):
        data = tmp_path / "data.csv"
        cache = tmp_path / "cache.csv"
        estimate = tmp_path / "estimate.json"

        assert run_cli(
            "simulate", "--params", chain_params_file, "--n-obs", 4000, "--seed", 5,
            "--out", data,
        ) == 0
        assert run_cli(
            "score", "--data", data, "--prior", "wi", "--out", cache,
        ) == 0
        assert run_cli("search", "--cache", cache, "--out", estimate) == 0
        assert run_cli(
            "evaluate", "--truth", chain_params_file, "--estimate", estimate,
        ) == 0

        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "tpr=1.000 fpr=0.000"

    def test_search_total_matches_cache_sum(self, tmp_path, chain_params_file, capsys):
        data = tmp_path / "data.csv"
        cache_path = tmp_path / "cache.csv"
        estimate = tmp_path / "estimate.json"
        run_cli("simulate", "--params", chain_params_file, "--n-obs", 300, "--seed", 9,
                "--out", data)
        run_cli("score", "--data", data, "--prior", "st", "--out", cache_path)
        run_cli("search", "--cache", cache_path, "--out", estimate)

        printed = re.search(
            r"total log score (-?\d+\.\d+)", capsys.readouterr().out
        )
        cache = ScoreCache.from_csv(cache_path.read_text())
        dag = Dag.from_json(estimate.read_text())
        total = sum(cache.score(j, dag.parents[j]) for j in range(dag.n))
        assert float(printed.group(1)) == pytest.approx(total, abs=5e-7)

    def test_score_tallies_the_separation_column(self, tmp_path, chain_params_file, capsys):
        data = tmp_path / "data.csv"
        cache_path = tmp_path / "cache.csv"
        run_cli("simulate", "--params", chain_params_file, "--n-obs", 30, "--seed", 2,
                "--out", data)
        assert run_cli("score", "--data", data, "--prior", "wi", "--out", cache_path) == 0

        printed = re.search(
            r"separation: (\d+) none, (\d+) quasi_complete, (\d+) complete\)",
            capsys.readouterr().out,
        )
        rows = [line for line in cache_path.read_text().splitlines() if not line.startswith("#")]
        column = Counter(row.split(",")[4] for row in rows[1:])
        assert printed is not None
        tally = dict(zip(("none", "quasi_complete", "complete"), map(int, printed.groups())))
        assert tally == {status: column[status] for status in tally}
        assert sum(tally.values()) == len(rows) - 1

    def test_simulate_reports_shape(self, tmp_path, chain_params_file, capsys):
        out = tmp_path / "data.csv"
        run_cli("simulate", "--params", chain_params_file, "--n-obs", 25, "--seed", 0,
                "--out", out)
        assert "25 rows x 3 vars" in capsys.readouterr().out
        assert out.read_text().splitlines()[0] == "X1,X2,X3"

    def test_skeleton_only_evaluation(self, tmp_path, capsys):
        truth = tmp_path / "truth.json"
        estimate = tmp_path / "estimate.json"
        truth.write_text(Dag.from_edges(2, [(0, 1)]).to_json())
        estimate.write_text(Dag.from_edges(2, [(1, 0)]).to_json())
        assert run_cli("evaluate", "--truth", truth, "--estimate", estimate,
                       "--skeleton-only") == 0
        assert capsys.readouterr().out.strip() == "tpr=1.000 fpr=0.000"


class TestErrorHandling:
    def test_usage_error_is_exit_one(self, capsys):
        assert run_cli("simulate", "--n-obs", 10) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command_is_exit_one(self):
        assert run_cli("frobnicate") == 1

    def test_missing_file_is_exit_two_and_names_the_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = run_cli("score", "--data", missing, "--prior", "wi",
                       "--out", tmp_path / "cache.csv")
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_malformed_dataset_is_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("X1,X2\n0,2\n")
        code = run_cli("score", "--data", bad, "--prior", "wi",
                       "--out", tmp_path / "cache.csv")
        assert code == 2
        assert "malformed" in capsys.readouterr().err

    def test_malformed_score_cache_is_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "cache.csv"
        bad.write_text(
            "# n_vars: 2\n# max_parents: 1\nnode,parent_mask,log_score,converged,separation\n"
            "0,0,-1.0,true,none\n1,0,-1.0,true,none\n-1,0,-1.0,true,none\n"
        )
        code = run_cli("search", "--cache", bad, "--out", tmp_path / "dag.json")
        assert code == 2
        assert "malformed score cache" in capsys.readouterr().err

    def test_score_cache_of_no_variables_is_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "cache.csv"
        bad.write_text("# n_vars: 0\n# max_parents: 0\nnode,parent_mask,log_score,converged,separation\n")
        code = run_cli("search", "--cache", bad, "--out", tmp_path / "dag.json")
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed score cache" in err
        assert "line 1: n_vars must be an integer in 1..24, got '0'" in err
        assert not (tmp_path / "dag.json").exists()

    def test_incomplete_score_cache_is_exit_two(self, tmp_path, capsys):
        # node 1 has no line for its one-parent set {0}
        bad = tmp_path / "cache.csv"
        bad.write_text(
            "# n_vars: 2\n# max_parents: 1\nnode,parent_mask,log_score,converged,separation\n"
            "0,0,-1.0,true,none\n0,2,-1.0,true,none\n1,0,-1.0,true,none\n"
        )
        code = run_cli("search", "--cache", bad, "--out", tmp_path / "dag.json")
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed score cache" in err
        assert "missing entry for node 1, parent mask 1" in err
        assert not (tmp_path / "dag.json").exists()

    def test_infinite_student_df_is_exit_two_and_writes_nothing(self, tmp_path, capsys):
        # every fit would fail after 200 sweeps and the cache would be all -inf
        data = tmp_path / "data.csv"
        data.write_text("X1,X2\n0,1\n1,0\n1,1\n")
        code = run_cli("score", "--data", data, "--prior", "st", "--st-df", "inf",
                       "--out", tmp_path / "cache.csv")
        assert code == 2
        assert "df must be finite" in capsys.readouterr().err
        assert not (tmp_path / "cache.csv").exists()

    def test_si_prior_requires_truth_file(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("X1,X2\n0,1\n1,0\n")
        code = run_cli("score", "--data", data, "--prior", "si",
                       "--out", tmp_path / "cache.csv")
        assert code == 1
        assert "--si-truth" in capsys.readouterr().err


class TestStudyCommand:
    def write_config(self, tmp_path, **overrides):
        base = dict(
            study="separation",
            n_nodes=3,
            densities=[0.8],
            sample_sizes=[50],
            replicates=2,
            priors=["wi"],
            master_seed=4,
        )
        base.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base))
        return path

    def test_study_writes_expected_rows_and_timings(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out = tmp_path / "results.csv"
        assert run_cli("study", "--config", config, "--out", out, "--workers", 1) == 0
        rows = results_from_csv(out.read_text())
        assert len(rows) == 2
        assert (tmp_path / "results_timings.csv").exists()
        assert (tmp_path / "runs" / "separation").is_dir()
        assert "2 rows" in capsys.readouterr().out

    def test_a_failed_cell_is_exit_one_after_writing_results(self, tmp_path, capsys, monkeypatch):
        def fail(data, prior, max_parents=None):
            raise RuntimeError("scoring broke")

        monkeypatch.setattr(experiments, "build_score_cache", fail)
        config = self.write_config(tmp_path)
        out = tmp_path / "results.csv"
        assert run_cli("study", "--config", config, "--out", out, "--workers", 1) == 1
        rows = results_from_csv(out.read_text())
        assert [row.note for row in rows] == ["error: scoring broke"] * 2
        assert (tmp_path / "results_timings.csv").exists()
        captured = capsys.readouterr()
        assert "2 rows (separation, seed 4, 2 failed cells)" in captured.out
        assert "2 failed cells" in captured.err

    def test_study_is_byte_deterministic(self, tmp_path):
        config = self.write_config(tmp_path)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run_cli("study", "--config", config, "--out", first, "--workers", 1)
        run_cli("study", "--config", config, "--out", second, "--workers", 1)
        assert first.read_bytes() == second.read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        config = self.write_config(tmp_path)
        base = tmp_path / "a.csv"
        other = tmp_path / "b.csv"
        run_cli("study", "--config", config, "--out", base, "--workers", 1)
        run_cli("study", "--config", config, "--seed", 99, "--out", other,
                "--workers", 1)
        assert base.read_bytes() != other.read_bytes()

    def test_rejects_bad_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"study": "separation"}')
        out = tmp_path / "results.csv"
        assert run_cli("study", "--config", config, "--out", out) == 2
        assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_nodes=30),
            dict(max_parents=3),
            dict(edge_coef=float("nan")),
            dict(wi_variance=float("nan")),
            dict(priors=["wi", "st"], st_df=0.0),
            dict(priors=["wi", "st"], st_scale=-1.0),
            dict(max_parents=1.0),
            dict(sample_sizes=[100.9]),
            dict(replicate_ids=[1.2]),
            dict(replicates=1.5),
        ],
    )
    def test_rejects_config_values_no_cell_can_use(self, tmp_path, capsys, overrides):
        config = self.write_config(tmp_path, **overrides)
        out = tmp_path / "results.csv"
        assert run_cli("study", "--config", config, "--out", out, "--workers", 1) == 2
        assert "malformed study config" in capsys.readouterr().err
        assert not out.exists()


class TestSummarizeCommand:
    def test_summary_and_svg(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                dict(
                    study="separation",
                    n_nodes=3,
                    densities=[0.8],
                    sample_sizes=[50],
                    replicates=3,
                    priors=["wi", "st"],
                    master_seed=1,
                )
            )
        )
        results = tmp_path / "results.csv"
        run_cli("study", "--config", config, "--out", results, "--workers", 1)
        summary = tmp_path / "summary.csv"
        svg = tmp_path / "plots.svg"
        assert run_cli("summarize", "--in", results, "--out", summary,
                       "--svg", svg) == 0
        text = svg.read_text()
        assert text.count('<g class="box"') == 4  # 2 priors x 2 metric panels
        assert summary.read_text().startswith("study,prior_name,")

    def test_empty_results_warn_but_render(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        results.write_text(
            "study,prior_name,density,n_obs,replicate,tpr,fpr,tnr,"
            "edges_true,edges_fitted,normalized_parents,note\n"
        )
        svg = tmp_path / "plots.svg"
        assert run_cli("summarize", "--in", results, "--out", tmp_path / "s.csv",
                       "--svg", svg) == 0
        captured = capsys.readouterr()
        assert "empty summary" in captured.err
        assert svg.read_text().startswith("<svg ")
        assert svg.read_text().rstrip().endswith("</svg>")
