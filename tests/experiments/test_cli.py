"""Tests for the CLI entry point."""

import pytest

from repro.cli import build_parser, main


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


class TestFaultFlags:
    def test_fault_flag_defaults(self):
        args = build_parser().parse_args(["robustness"])
        assert args.faults == "none"
        assert args.fault_seed == 0

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--faults", "meteor"])

    def test_robustness_fault_sweep(self, capsys):
        argv = [
            "robustness",
            "--faults", "poisson",
            "--fault-rate", "0.005",
            "--fault-seed", "42",
            "--tasks", "60",
            "--workers", "4",
            "--ramp-up", "0",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "fault injection" in out
        assert "poisson" in out and "none" in out

    def test_seeded_chaos_run_replays_bit_identically(self, capsys):
        """Acceptance criterion: the same --faults/--seed invocation
        produces byte-identical output across two runs."""
        argv = [
            "robustness",
            "--faults", "poisson",
            "--seed", "42",
            "--fault-rate", "0.005",
            "--tasks", "60",
            "--workers", "4",
            "--ramp-up", "0",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_figure4_runs_under_faults(self, capsys):
        assert main(
            ["figure4", "--tasks", "80", "--faults", "fixed", "--fault-seed", "3"]
        ) == 0
        assert "Figure 4" in capsys.readouterr().out


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

    def test_per_op_durability_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--durability", "op"])
        assert build_parser().parse_args(["serve", "--durability", "batch"]).durability == "batch"
