"""Tests for the command line interface."""

import pytest

from repro.cli import main
from repro.graph.io import write_edgelist

from tests.conftest import random_graph


class TestDatasets:
    def test_lists_all_seventeen(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("chess", "enron", "flickr"):
            assert name in out


class TestBuild:
    def test_build_dataset(self, capsys):
        assert main(["build", "chess"]) == 0
        out = capsys.readouterr().out
        assert "label entries" in out
        assert "build time" in out

    def test_build_and_save(self, tmp_path, capsys):
        out_file = tmp_path / "chess.till"
        assert main(["build", "chess", "-o", str(out_file)]) == 0
        assert out_file.exists()

    def test_build_from_file(self, tmp_path, capsys):
        g = random_graph(0, num_vertices=10, num_edges=30)
        path = tmp_path / "g.txt"
        write_edgelist(g, path)
        assert main(["build", str(path)]) == 0

    def test_build_with_vartheta(self, capsys):
        assert main(["build", "chess", "--vartheta", "5"]) == 0

    def test_unknown_source(self, capsys):
        assert main(["build", "atlantis"]) == 2
        assert "error:" in capsys.readouterr().err


class TestQuery:
    def test_true_query_exit_zero(self, tmp_path, capsys):
        g = random_graph(0, num_vertices=6, num_edges=40, max_time=5)
        path = tmp_path / "g.txt"
        write_edgelist(g, path)
        # dense graph: 0 -> anything over the full window is very likely;
        # find a guaranteed pair from the file itself
        u, v, t = next(iter(g.edges()))
        code = main(["query", str(path), str(u), str(v), str(t), str(t)])
        assert code == 0
        assert "True" in capsys.readouterr().out

    def test_false_query_exit_one(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("a b 1\n")
        assert main(["query", str(path), "b", "a", "1", "1"]) == 1

    def test_online_flag(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("a b 1\nb c 2\n")
        assert main(["query", str(path), "a", "c", "1", "2", "--online"]) == 0

    def test_theta_query(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("a b 3\nb c 5\n")
        assert main(["query", str(path), "a", "c", "1", "9", "--theta", "3"]) == 0
        assert main(["query", str(path), "a", "c", "1", "9", "--theta", "2"]) == 1

    def test_saved_index_roundtrip(self, tmp_path, capsys):
        g = random_graph(1, num_vertices=8, num_edges=25, max_time=6)
        gpath = tmp_path / "g.txt"
        write_edgelist(g, gpath)
        ipath = tmp_path / "g.till"
        assert main(["build", str(gpath), "-o", str(ipath)]) == 0
        u, v, t = next(iter(g.edges()))
        code = main([
            "query", str(gpath), str(u), str(v), str(t), str(t),
            "--index", str(ipath),
        ])
        assert code == 0


class TestExperimentCommand:
    def test_list(self, capsys):
        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "table2" in out

    def test_run_with_dataset_subset(self, capsys):
        assert main(["experiment", "table2", "--datasets", "chess"]) == 0
        out = capsys.readouterr().out
        assert "chess" in out and "Table II" in out

    def test_unknown_experiment_error(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])


class TestVerifyCommand:
    def test_verify_dataset(self, capsys):
        from repro.cli import main

        assert main(["verify", "chess", "--samples", "100"]) == 0
        assert "all agree" in capsys.readouterr().out

    def test_verify_saved_index(self, tmp_path, capsys):
        from repro.cli import main

        ipath = tmp_path / "c.till"
        assert main(["build", "chess", "-o", str(ipath)]) == 0
        assert main(["verify", "chess", "--index", str(ipath),
                     "--samples", "100"]) == 0

    def test_verify_unknown_source(self, capsys):
        from repro.cli import main

        assert main(["verify", "nowhere"]) == 2


class TestAnatomyCommand:
    def test_anatomy_dataset(self, capsys):
        from repro.cli import main

        assert main(["anatomy", "chess", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "index anatomy" in out and "top hubs" in out

    def test_anatomy_saved_index(self, tmp_path, capsys):
        from repro.cli import main

        ipath = tmp_path / "c.till"
        assert main(["build", "chess", "-o", str(ipath)]) == 0
        assert main(["anatomy", "chess", "--index", str(ipath)]) == 0


class TestFuzzCommand:
    def test_clean_campaign_exit_zero(self, capsys):
        assert main(["fuzz", "--seeds", "4"]) == 0
        out = capsys.readouterr().out
        assert "fuzz[small]" in out
        assert "OK" in out

    def test_profile_selection(self, capsys):
        assert main(["fuzz", "--profile", "theta", "--seeds", "2"]) == 0
        assert "fuzz[theta]" in capsys.readouterr().out

    def test_unknown_profile_exit_two(self, capsys):
        assert main(["fuzz", "--profile", "bogus"]) == 2
        assert "unknown fuzz profile" in capsys.readouterr().err

    def test_verbose_logs_cases(self, capsys):
        assert main(["fuzz", "--seeds", "2", "--verbose"]) == 0
        assert "case profile=small seed=0" in capsys.readouterr().out

    def test_seed_is_not_read_as_seeds(self, capsys):
        # Without allow_abbrev=False argparse expands `--seed 3` to
        # `--seeds 3` and silently runs cases 0-2.
        with pytest.raises(SystemExit) as info:
            main(["fuzz", "--seed", "3"])
        assert info.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_base_seed_replays_one_case(self, capsys):
        assert main(["fuzz", "--base-seed", "3", "--seeds", "1", "-v"]) == 0
        out = capsys.readouterr().out
        assert "case profile=small seed=3" in out
        assert "seed=0" not in out and "1 case(s)" in out

    def test_failure_exit_one_with_repro(self, capsys, monkeypatch):
        import repro.core.queries as queries

        real = queries.span_reachable

        def broken(graph, labels, rank, ui, vi, window, prefilter=True):
            return not real(graph, labels, rank, ui, vi, window,
                            prefilter=prefilter)

        monkeypatch.setattr(queries, "span_reachable", broken)
        assert main(["fuzz", "--seeds", "2", "--fail-fast"]) == 1
        captured = capsys.readouterr()
        assert "FAILURE" in captured.out
        assert "FAIL profile=small" in captured.err
        assert "test_fuzz_regression" in captured.err  # shrunk pytest repro
