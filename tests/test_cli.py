"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main


class TestTrace:
    def test_prints_table1(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "dNCWe_6HAM8" in out
        assert "14,144,021" in out


class TestScenario:
    def test_runs_algorithms(self, capsys):
        code = main(
            [
                "scenario",
                "--link-fraction", "0",
                "--algorithms", "alg1,sp",
                "--runs", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "alg1" in out
        assert "sp" in out

    def test_unknown_algorithm_exits(self):
        with pytest.raises(SystemExit):
            main(["scenario", "--algorithms", "quantum"])

    def test_ksp_with_custom_k(self, capsys):
        code = main(
            [
                "scenario",
                "--link-fraction", "0",
                "--algorithms", "ksp2",
                "--runs", "1",
                "--videos", "4",
            ]
        )
        assert code == 0
        assert "ksp2" in capsys.readouterr().out


class TestOnline:
    def test_oracle_loop(self, capsys):
        code = main(
            [
                "online",
                "--hours", "2",
                "--algorithm", "sp",
                "--link-fraction", "0",
                "--videos", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total cost" in out
        assert "oracle" in out


class TestSimulate:
    def test_simulation_summary(self, capsys):
        code = main(
            [
                "simulate",
                "--algorithm", "sp",
                "--scale", "1e-4",
                "--horizon", "0.5",
                "--videos", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "max link utilization" in out


class TestServe:
    def test_streaming_replay_summary(self, capsys):
        code = main(
            [
                "serve",
                "--algorithm", "sp",
                "--link-fraction", "0",
                "--videos", "4",
                "--requests", "20000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replayed" in out
        assert "requests/sec" in out
        assert "delivered cost rate" in out

    def test_sharded_replay(self, capsys):
        code = main(
            [
                "serve",
                "--algorithm", "sp",
                "--link-fraction", "0",
                "--videos", "4",
                "--requests", "20000",
                "--shards", "2",
            ]
        )
        assert code == 0
        assert "2 shard(s)" in capsys.readouterr().out


class TestRobustness:
    def test_gadget_survives_every_single_link_failure(self, capsys):
        assert main(["robustness", "--topology", "gadget"]) == 0
        out = capsys.readouterr().out
        assert "4/4 scenarios fully served" in out
        assert "link:'v1'--'s'" in out

    def test_node_failures_on_scenario_topology(self, capsys):
        code = main(
            [
                "robustness",
                "--link-fraction", "0",
                "--videos", "4",
                "--failures", "single-node",
                "--max-scenarios", "2",
                "--repair",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "worst inflation" in out
        assert "node:" in out

    def test_timeline_replay_on_gadget(self, capsys):
        code = main(
            [
                "robustness",
                "--topology", "gadget",
                "--timeline",
                "--horizon", "30",
                "--seed", "3",
                "--detection-delay", "0.5",
                "--backoff", "0.25",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "events over horizon 30" in out
        assert "availability" in out
        assert "re-optimizations" in out

    def test_timeline_serve_on_gadget(self, capsys):
        code = main(
            [
                "robustness",
                "--topology", "gadget",
                "--timeline",
                "--serve",
                "--serve-requests", "20000",
                "--shards", "2",
                "--horizon", "25",
                "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert re.search(r"^streamed \d+ requests over \d+ segments \(", out, re.M)
        assert "cost integral: streamed " in out

    def test_random_failures_need_no_extra_flags(self, capsys):
        code = main(
            [
                "robustness",
                "--topology", "gadget",
                "--failures", "random",
                "--samples", "3",
            ]
        )
        assert code == 0
        assert "worst unserved" in capsys.readouterr().out


class TestPredict:
    def test_prediction_table(self, capsys):
        code = main(["predict", "--hours", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MAPE" in out
