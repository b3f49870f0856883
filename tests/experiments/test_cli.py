"""Tests for the CLI entry point."""

import pytest

from repro.cli import _config, build_parser, main


class TestParser:
    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["figure4", "--tasks", "50"])
        assert args.experiment == "figure4"
        assert args.tasks == 50

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure9"])

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.tasks == 1000
        assert args.workers == 20
        assert args.seed == 0


class TestMain:
    def test_figure2_prints_table(self, capsys):
        assert main(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "evaluate_mpnn" in out

    def test_figure4_small(self, capsys):
        assert main(["figure4", "--tasks", "100"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out

    def test_figure5_tiny_grid(self, capsys):
        # A tiny but complete run through the heavy path.
        assert main(["figure5", "--tasks", "60", "--workers", "3", "--ramp-up", "30"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "exhaustive_bucketing" in out


class TestRemovedFaultFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--faults", "poisson"],
            ["--fault-seed", "3"],
            ["--fault-rate", "0.005"],
            ["--fault-trace", "condor.log"],
        ],
    )
    def test_fault_flags_are_usage_errors(self, argv, capsys):
        """Pool churn is the simulator's one adversity model; the fault
        injector's flags are gone and argparse refuses them."""
        with pytest.raises(SystemExit) as excinfo:
            main(["figure5", *argv])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestServiceChaos:
    @pytest.mark.parametrize("match,code", [(True, 0), (False, 1)])
    def test_exit_code_follows_the_verdict(self, monkeypatch, capsys, match, code):
        from repro.experiments import service_chaos

        result = service_chaos.ServiceChaosResult(
            n_ops=1,
            seed=0,
            reference_digests=["d"],
            crashes={"shard.apply.before": (match, 1, 0)},
        )
        monkeypatch.setattr(service_chaos, "run", lambda seed: result)
        assert main(["service-chaos"]) == code
        out = capsys.readouterr().out
        assert ("STATE DIVERGED" in out) is not match

    def test_seed_comes_from_the_seed_flag(self, monkeypatch, capsys):
        from repro.experiments import service_chaos

        seen = []
        result = service_chaos.ServiceChaosResult(
            n_ops=1, seed=7, reference_digests=["d"], crashes={}
        )
        monkeypatch.setattr(service_chaos, "run", lambda seed: seen.append(seed) or result)
        assert main(["service-chaos", "--seed", "7"]) == 0
        assert main(["service-chaos"]) == 0
        assert seen == [7, 0]

    def test_per_op_durability_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--durability", "op"])
        assert build_parser().parse_args(["serve", "--durability", "batch"]).durability == "batch"


class TestRetryBudget:
    @pytest.mark.parametrize("value", ["0", "-3", "2.5", "x"])
    def test_invalid_budget_is_a_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure3", f"--retry-budget={value}"])
        assert excinfo.value.code == 2
        assert "--retry-budget: must be an integer >= 1" in capsys.readouterr().err

    def test_budget_reaches_the_experiment_config(self):
        args = build_parser().parse_args(["figure5", "--retry-budget", "3"])
        assert _config(args).retry_budget == 3
        assert _config(build_parser().parse_args(["figure5"])).retry_budget is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure5", "--quarantine"],
            ["figure5", "--circuit-breaker"],
            ["figure5", "--task-deadline", "60"],
            ["resilience"],
        ],
    )
    def test_retired_retry_policy_surfaces_are_refused(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2


class TestCountFlags:
    @pytest.mark.parametrize("value", ["0", "-3", "2.5", "x"])
    @pytest.mark.parametrize("flag", ["--jobs", "--tasks", "--workers"])
    def test_invalid_count_is_a_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure5", "--tasks", "20", "--workers", "2", f"{flag}={value}"])
        assert excinfo.value.code == 2
        assert f"{flag}: must be an integer >= 1, got {value!r}" in capsys.readouterr().err

    def test_valid_counts_are_parsed(self):
        args = build_parser().parse_args(
            ["figure5", "--jobs", "3", "--tasks", "40", "--workers", "5"]
        )
        assert (args.jobs, args.tasks, args.workers) == (3, 40, 5)


class TestCheckpointFlags:
    def test_resume_without_checkpoint_dir_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure5", "--resume", "--tasks", "20", "--workers", "2"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--resume requires --checkpoint-dir" in captured.err
        assert "Figure 5" not in captured.out

    def test_retired_checkpoint_interval_is_refused(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["figure5", "--checkpoint-interval", "0.2"])
        assert excinfo.value.code == 2


class TestOptionValues:
    """A value a config or the crash-point registry refuses is a usage
    error (exit 2) with its reason, not a traceback."""

    @pytest.mark.parametrize(
        "argv,reason",
        [
            (["--shards", "0"], "n_shards must be >= 1"),
            (["--dedup-window", "-1"], "dedup_window must be >= 0"),
            (["--snapshot-retention", "0"], "snapshot_retention must be >= 1"),
            (["--max-connections", "0"], "max_connections must be >= 1"),
            (["--read-timeout", "-1"], "read_timeout must be finite and > 0"),
            (["--read-timeout", "nan"], "read_timeout must be finite and > 0"),
            (["--chaos-crash", "foo:abc"], "invalid literal"),
            (["--chaos-crash", "foo"], "unknown crash site"),
            (["--chaos-crash", "shard.apply.before:0"], "at_hit must be >= 1"),
            (["--service-seed", "-1"], "seed must be an integer >= 0"),
        ],
    )
    def test_bad_serve_value_is_a_usage_error(self, argv, reason, tmp_path, capsys):
        from repro.service import CRASH_POINTS

        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--socket", str(tmp_path / "s.sock"), *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert reason in err
        assert "Traceback" not in err
        assert CRASH_POINTS.armed is None

    @pytest.mark.parametrize("value", ["-5", "nan"])
    def test_bad_ramp_up_is_a_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["ablation", "--ramp-up", value, "--tasks", "20", "--workers", "2"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "ramp_up_seconds must be finite and >= 0" in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize("target", ["figure5", "figure2", "service-chaos"])
    def test_negative_seed_is_a_usage_error(self, target, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([target, "--seed", "-1", "--tasks", "20", "--workers", "2"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "workflow_seed must be an integer >= 0" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestRemovedExtras:
    """The registry holds the paper's seven allocators; the two extras,
    the hybrid study and the convergence study are gone."""

    @pytest.mark.parametrize("target", ["hybrid", "convergence"])
    def test_removed_targets_are_usage_errors(self, target, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([target])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["kmeans_bucketing", "hybrid_bucketing"])
    def test_removed_service_algorithms_are_usage_errors(self, algorithm, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--service-algorithm", algorithm])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
