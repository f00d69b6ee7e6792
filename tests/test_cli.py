"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "E5"])
        assert args.experiment == "E5"
        assert args.scale == "small"
        assert args.seed == 2013

    def test_trial_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trial", "--network", "torus"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E5" in out and "A2" in out

    def test_paper(self, capsys):
        assert main(["paper"]) == 0
        out = capsys.readouterr().out
        assert "Ω(n / log n)" in out
        assert "no dynamic links" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_tiny_experiment(self, capsys):
        assert main(["run", "E1b", "--scale", "tiny", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "E1b" in out and "median rounds" in out

    def test_run_trace_writes_trial_records_that_trace_renders(self, capsys, tmp_path):
        from repro.obs import read_trace

        path = str(tmp_path / "p")
        assert main(["run", "E1a", "--scale", "tiny", "--trace", path]) in (0, 1)
        assert f"trace    : {path}" in capsys.readouterr().out
        assert any(record["kind"] == "trial" for record in read_trace(path))
        assert main(["trace", path]) == 0
        out = capsys.readouterr().out
        assert "reception" in out and "(total)" in out

    @pytest.mark.parametrize(
        "network,algorithm,adversary",
        [
            ("geographic", "permuted-decay", "none"),
            ("dual-clique", "round-robin", "offline-solo-blocker"),
            ("funnel", "plain-decay", "none"),
            ("line-of-cliques", "permuted-decay", "ge-fade"),
            ("geographic", "static-local", "all"),
        ],
    )
    def test_trial_combinations(self, capsys, network, algorithm, adversary):
        code = main(
            [
                "trial",
                "--network", network,
                "--algorithm", algorithm,
                "--adversary", adversary,
                "--n", "32",
                "--seed", "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "solved   : True" in out

    def test_trial_bracelet_online_attack(self, capsys):
        code = main(
            [
                "trial",
                "--network", "bracelet",
                "--algorithm", "static-local",
                "--adversary", "online-dense-sparse",
                "--n", "32",
                "--seed", "5",
            ]
        )
        assert code == 0
        assert "bracelet" in capsys.readouterr().out

    def test_trial_geo_local(self, capsys):
        code = main(
            [
                "trial",
                "--network", "geographic",
                "--algorithm", "geo-local",
                "--adversary", "ge-fade",
                "--n", "32",
                "--seed", "6",
            ]
        )
        assert code == 0

    def test_components_lists_engines_and_experiments(self, capsys):
        """The docs catalog and campaign specs name engines and
        experiment ids; `components` must list them too."""
        assert main(["components"]) == 0
        out = capsys.readouterr().out
        for section in ("graphs:", "algorithms:", "adversaries:", "problems:",
                        "engines:", "experiments:"):
            assert section in out
        assert "  reference" in out and "  bitset" in out
        from repro.experiments import ALL_EXPERIMENTS

        for exp_id in ALL_EXPERIMENTS:
            assert f"  {exp_id}" in out


class TestCampaignCommands:
    GRID = ["E1b", "--scale", "tiny", "--engine", "reference"]

    def test_run_status_and_resume(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["campaign", "status", *self.GRID, "--store", store]) == 1
        out = capsys.readouterr().out
        assert "0/1 shards complete" in out and "pending" in out

        assert main(["campaign", "run", *self.GRID, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "done    E1b@tiny/reference/seed2013" in out
        assert "1 shards run, 0 resumed" in out

        # Second invocation: everything resumes from checkpoints.
        assert main(["campaign", "run", *self.GRID, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "resumed E1b@tiny/reference/seed2013" in out
        assert "0 shards run, 1 resumed" in out

        assert main(["campaign", "status", *self.GRID, "--store", store]) == 0
        assert "campaign finished" in capsys.readouterr().out

    def test_run_rejects_unknown_experiment(self, tmp_path, capsys):
        code = main(
            ["campaign", "run", "E99", "--store", str(tmp_path / "s")]
        )
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_status_rejects_unknown_experiment(self, tmp_path, capsys):
        """A typo'd id must error, not report a forever-pending shard."""
        code = main(
            ["campaign", "status", "E99", "--store", str(tmp_path / "s")]
        )
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_spec_file_is_authoritative(self, tmp_path, capsys):
        spec_path = tmp_path / "c.json"
        spec_path.write_text(
            '{"name": "filed", "experiments": ["E1b"], "scales": ["tiny"]}',
            encoding="utf-8",
        )
        store = str(tmp_path / "store")
        assert main(
            ["campaign", "run", "--spec", str(spec_path), "--store", store]
        ) == 0
        assert "filed" in capsys.readouterr().out
        # Mixing --spec with grid flags is an error, not a silent merge.
        with pytest.raises(SystemExit):
            main(["campaign", "run", "E2a", "--spec", str(spec_path),
                  "--store", store])

    def test_fresh_reruns_everything(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["campaign", "run", *self.GRID, "--store", store])
        capsys.readouterr()
        assert main(
            ["campaign", "run", *self.GRID, "--store", store, "--fresh"]
        ) == 0
        assert "1 shards run, 0 resumed" in capsys.readouterr().out

    def test_report_write_and_staleness_check(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        out_path = tmp_path / "results.md"
        main(["campaign", "run", *self.GRID, "--store", store])
        capsys.readouterr()

        # stdout rendering
        assert main(["campaign", "report", "--store", store,
                     "--bench-dir", ""]) == 0
        assert "## Verdicts by cell" in capsys.readouterr().out

        # --check before the file exists: stale
        assert main(["campaign", "report", "--store", store, "--bench-dir", "",
                     "--out", str(out_path), "--check"]) == 1
        assert "stale" in capsys.readouterr().err

        # write, then check: fresh
        assert main(["campaign", "report", "--store", store, "--bench-dir", "",
                     "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", "--store", store, "--bench-dir", "",
                     "--out", str(out_path), "--check"]) == 0
        assert "up to date" in capsys.readouterr().out

        # tamper with a verdict: stale again
        out_path.write_text(
            out_path.read_text(encoding="utf-8").replace("100%", "37%"),
            encoding="utf-8",
        )
        assert main(["campaign", "report", "--store", store, "--bench-dir", "",
                     "--out", str(out_path), "--check"]) == 1
