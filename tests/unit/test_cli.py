"""Unit tests for the command-line interface."""

from __future__ import annotations

import argparse
import json
import pathlib
from types import SimpleNamespace

import pytest

from repro.cli import _FANOUT, _reproduce, _spec_fields, build_parser, main

#: The user-visible CLI surface: every sub-command's flag names, dests,
#: types, defaults, choices and help text.  A refactor leaves it
#: byte-identical; a deliberate flag change edits this file in the same
#: commit.
SURFACE_PIN = pathlib.Path(__file__).with_name("cli_surface.txt")


def _subcommands() -> dict:
    """Sub-command name → (its parser, its one-line help)."""
    parser = build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    helps = {choice.dest: choice.help for choice in sub._choices_actions}
    return {name: (sub.choices[name], helps[name]) for name in sub.choices}


def cli_surface() -> str:
    """Every sub-command's options, one sorted JSON row per line."""
    lines = []
    for name, (parser, summary) in _subcommands().items():
        rows = [
            [action.option_strings, action.dest,
             getattr(action.type, "__name__", None), action.default,
             action.nargs,
             None if action.choices is None else list(action.choices),
             action.metavar, action.help]
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        lines.append(f"{name}: {summary}")
        lines += ["  " + json.dumps(row, ensure_ascii=False)
                  for row in sorted(rows, key=lambda row: (row[0], row[1]))]
    return "\n".join(lines) + "\n"


class TestParser:
    def test_surface_is_pinned(self):
        assert cli_surface() == SURFACE_PIN.read_text(encoding="utf-8")

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "achilles"])
        assert args.protocol == "achilles"
        assert args.faults == 2
        assert args.network == "LAN"
        assert args.batch == 400
        assert args.rate is None

    def test_compare_takes_multiple_protocols(self):
        args = build_parser().parse_args(
            ["compare", "achilles", "braft", "--network", "WAN", "--f", "4"])
        assert args.protocols == ["achilles", "braft"]
        assert args.network == "WAN"
        assert args.faults == 4

    def test_soak_defaults(self):
        args = build_parser().parse_args(["soak"])
        assert args.protocols is None  # resolved to the default trio
        assert args.scenario == ["all"]
        assert args.seeds == 3 and args.seed is None
        assert args.faults == 1
        assert not args.vulnerable and args.expect is None
        assert args.hours is None and args.pressure == 4000.0

    def test_soak_hours_and_expect(self):
        args = build_parser().parse_args(
            ["soak", "--hours", "0.5", "--vulnerable",
             "--expect", "degradation-cycle,post-quiesce-liveness",
             "--scenario", "sub-quorum", "flash-crowd"])
        assert args.hours == 0.5
        assert args.vulnerable
        assert args.expect == "degradation-cycle,post-quiesce-liveness"
        assert args.scenario == ["sub-quorum", "flash-crowd"]

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_network_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "achilles", "--network", "MOON"])


class TestReproduceRoundTrip:
    """The printed ``reproduce with:`` command must re-run the campaign
    that failed, not one that silently lost a flag: parse an invocation,
    print the reproduce line for one of its runs, parse that line back,
    and compare the campaign spec both produce."""

    @staticmethod
    def _round_trip(words: list, **run) -> dict:
        """The spec fields of ``run``'s campaign, checked equal between
        the invocation and its reproduce line (and accepted by the spec)."""
        parser = build_parser()
        args = parser.parse_args(words)
        line = _reproduce(args, SimpleNamespace(**run))
        assert line.startswith("python -m repro ")
        again = parser.parse_args(line.split()[3:])
        assert again.seed == run.pop("seed")
        for dest, axis in _FANOUT.items():  # narrowed to exactly this run
            if axis in run:
                assert getattr(again, dest) == [run[axis]]
        fields = _spec_fields(again, **run)
        assert fields == _spec_fields(args, **run)
        args.spec_type(**fields)
        return fields

    def test_chaos(self):
        spec = self._round_trip(
            "chaos --seeds 3 --f 2 --duration 2500 --quiesce 1000 "
            "--loss 0.05 --dup 0.02 --corrupt 0.01 --timeout-jitter 0.1 "
            "--byz withhold-vote,garbage --byz-nodes 2 "
            "--byz-expect agreement --snapshot-interval 5".split(),
            protocol="minbft", seed=2)
        assert spec["timeout_jitter"] == 0.1 and spec["byz_nodes"] == 2
        assert spec["expect_violations"] == ("agreement",)

    def test_chaos_byz_nodes_only_count_with_byz(self):
        args = build_parser().parse_args(["chaos"])
        assert args.byz_nodes == 1
        assert _spec_fields(args, protocol="achilles")["byz_nodes"] == 0

    def test_powercut(self):
        spec = self._round_trip(
            "powercut --protocols achilles minbft --seeds 2 --max-cuts 2 "
            "--duration 1200 --quiesce 500 --warmup 150 --journal-off".split(),
            protocol="minbft", seed=1)
        assert spec["journal_off"]
        assert spec["expect_violations"] == ("durable-prefix",)

    def test_soak_hours_keep_their_diurnal_period(self):
        spec = self._round_trip(
            "soak --hours 0.5 --vulnerable --rate 3000 "
            "--expect degradation-cycle,post-quiesce-liveness".split(),
            protocol="minbft", scenario="flash-crowd", seed=0)
        assert spec["pressure_ms"] == 1_800_000.0
        assert spec["diurnal_period_ms"] == 900_000.0

    def test_shard_chaos(self):
        spec = self._round_trip(
            "shard-chaos --seeds 1 --duration 4000 --quiesce 1200 "
            "--downtime 800 --rate 800 --cross-fraction 0.2 "
            "--ttl-blocks 1000 --fault partition".split(),
            seed=0)
        assert (spec["quiesce_ms"], spec["downtime_ms"], spec["rate_tps"],
                spec["cross_fraction"], spec["txn_ttl_blocks"]) == \
               (1200.0, 800.0, 800.0, 0.2, 1000)

    def test_defaults_are_left_out(self):
        args = build_parser().parse_args(["shard-chaos", "--no-ttl"])
        assert _reproduce(args, SimpleNamespace(seed=4)) == \
            "python -m repro shard-chaos --seed 4 --no-ttl"

    #: Campaign command → the run its reproduce line is narrowed to.
    CAMPAIGNS = {
        "chaos": dict(protocol="minbft", seed=7),
        "powercut": dict(protocol="minbft", seed=7),
        "soak": dict(protocol="minbft", scenario="flash-crowd", seed=7),
        "shard-chaos": dict(seed=7),
    }

    @staticmethod
    def _non_default(action: argparse.Action, run: dict) -> list:
        """Words that set ``action`` to a valid value other than its
        default (fan-out options get the run they are narrowed to)."""
        flag = action.option_strings[0]
        if action.nargs == 0:
            return [flag]
        if action.nargs == "+":  # a fan-out axis
            return [flag, run[_FANOUT[action.dest]]]
        if action.choices is not None:
            value = [c for c in action.choices if c != action.default][-1]
        elif action.metavar == "STRAT[,STRAT]":
            value = "withhold-vote,garbage"
        elif action.metavar == "INV[,INV]":
            value = "agreement,durable-prefix"
        elif action.type is int:
            value = 2 if action.default is None else action.default + 1
        elif action.type is float:
            value = 0.25 if not action.default else action.default * 1.5
        else:
            value = f"{action.default}-elsewhere"
        return [flag, str(value)]

    @pytest.mark.parametrize("command", sorted(CAMPAIGNS))
    def test_every_flag_survives(self, command):
        """Set every flag of the command to a non-default value: the
        reproduce line must carry each one, and parse back to the same
        (valid) spec — so a field added later cannot be dropped from it."""
        run = self.CAMPAIGNS[command]
        flags = [action for action in _subcommands()[command][0]._actions
                 if action.option_strings
                 and not isinstance(action, argparse._HelpAction)]
        words = [command]
        for action in flags:
            words += self._non_default(action, run)

        parser = build_parser()
        fields = self._round_trip(words, **run)
        line = _reproduce(parser.parse_args(words), SimpleNamespace(**run))
        for action in flags:
            if action.dest != "seeds":  # the fan-out --seed replaces
                assert action.option_strings[0] in line.split()
        # ... and every flagged field reached the spec with a new value.
        narrow = {axis: value for axis, value in run.items() if axis != "seed"}
        defaults = _spec_fields(parser.parse_args([command]), **narrow)
        changed = {name for name in defaults if fields[name] != defaults[name]}
        assert changed >= set(parser.parse_args([command]).spec_type.CLI)


class TestCommands:
    @staticmethod
    def _canned(monkeypatch, result_of) -> list:
        """Stand ``result_of(config)`` in for running each campaign;
        returns the list the configs handed to the harness collect in."""
        seen = []

        def run_experiments(configs, **kwargs):
            seen.extend(configs)
            return [result_of(config) for config in configs]

        monkeypatch.setattr("repro.harness.parallel.run_experiments",
                            run_experiments)
        return seen

    def test_protocols_lists_registry(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        for name in ("achilles", "damysus-r", "flexibft", "braft", "minbft"):
            assert name in out

    def test_run_prints_metrics(self, capsys):
        code = main(["run", "achilles", "--f", "1", "--batch", "20",
                     "--payload", "16", "--duration", "200", "--warmup", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tput (KTPS)" in out
        assert "achilles" in out

    def test_unknown_protocol_is_clean_error(self, capsys):
        # A usage error: argparse's own exit code, not the 1 a campaign
        # returns for an invariant violation.
        code = main(["run", "pbft", "--duration", "100"])
        assert code == 2
        assert "error: unknown protocol" in capsys.readouterr().err

    def test_bad_spec_is_clean_error(self, capsys):
        code = main(["chaos", "--duration", "100", "--quiesce", "1000"])
        assert code == 2
        assert "error: duration_ms must exceed" in capsys.readouterr().err

    def test_programming_errors_are_not_swallowed(self, monkeypatch):
        """A harness crash must not masquerade as "safety violated" (or
        as anything else ``main`` returns): it propagates, traceback and
        all."""
        def broken(*args, **kwargs):
            raise AttributeError("'NoneType' object has no attribute 'nodes'")

        monkeypatch.setattr("repro.harness.parallel.run_experiments", broken)
        with pytest.raises(AttributeError, match="nodes"):
            main(["chaos", "--seeds", "1"])

    def test_counters_table(self, capsys):
        assert main(["counters", "--samples", "20"]) == 0
        out = capsys.readouterr().out
        assert "TPM" in out and "Narrator_WAN" in out

    def test_recovery_table(self, capsys):
        assert main(["recovery", "--nodes", "3", "5"]) == 0
        out = capsys.readouterr().out
        assert "initialization" in out

    def test_soak_negative_control_passes(self, capsys):
        code = main(["soak", "--protocols", "minbft", "--scenario",
                     "flash-crowd", "--seeds", "1", "--vulnerable",
                     "--warmup", "800", "--pressure", "2000",
                     "--budget", "2500", "--settle", "1500",
                     "--expect", "degradation-cycle,post-quiesce-liveness"])
        assert code == 0
        out = capsys.readouterr().out
        assert "VULNERABLE CONTROL" in out
        assert "negative controls tripped" in out

    def test_soak_missing_expected_violation_fails(self, capsys, tmp_path,
                                                   monkeypatch):
        # A defended campaign with --expect: the cycle never trips, so
        # the run must FAIL loudly with a reproduction command and re-run
        # the failing seed with tracing on.  A canned result stands in
        # for the 10 s run: the verdict that produces this violation is
        # pinned in test_cluster_and_runner.py, soak's negative control in
        # tests/integration/test_soak_campaigns.py.
        from repro.harness.soak import SoakResult

        missing = ("[expected-violation-missing] negative control "
                   "'degradation-cycle' never tripped")
        configs = self._canned(monkeypatch, lambda config: SoakResult(
            protocol=config["spec"].protocol, f=config["spec"].f, n=3,
            network=config["spec"].network,
            scenario=config["spec"].scenario,
            seed=config["seed"], committed_height=900,
            min_committed_height=900, recoveries=0,
            reconverged_at_ms=1600.0, cycle="", violations=[missing]))
        reruns = []
        monkeypatch.setattr(
            "repro.harness.soak.run_soak",
            lambda spec, seed, trace_path: reruns.append(
                (spec, seed, trace_path)))

        code = main(["soak", "--protocols", "achilles", "--scenario",
                     "flash-crowd", "--seeds", "1",
                     "--warmup", "400", "--pressure", "1200",
                     "--budget", "2500", "--settle", "1000",
                     "--expect", "degradation-cycle",
                     "--trace-dir", str(tmp_path)])
        assert code == 1
        assert [c["spec"].expect_violations for c in configs] == \
            [("degradation-cycle",)]
        err = capsys.readouterr().err
        assert "expected-violation-missing" in err
        assert "reproduce with:" in err
        assert "repro soak" in err
        [(spec, seed, trace_path)] = reruns
        assert (spec.protocol, spec.scenario, spec.pressure_ms, seed) == \
            ("achilles", "flash-crowd", 1200.0, 0)
        assert trace_path == str(
            tmp_path / "soak-achilles-flash-crowd-f1-seed0.json")

    def test_powercut_defaults(self):
        args = build_parser().parse_args(["powercut"])
        assert args.protocols is None  # resolved to the default trio
        assert args.seeds == 3 and args.seed is None
        assert args.max_cuts == 6 and args.reorder_cuts == 1
        assert not args.journal_off and args.expect is None

    def test_powercut_small_run_passes(self, capsys):
        code = main(["powercut", "--protocols", "minbft", "--seeds", "1",
                     "--max-cuts", "2", "--duration", "1200",
                     "--quiesce", "500", "--warmup", "150"])
        assert code == 0
        out = capsys.readouterr().out
        assert "powercut" in out
        assert "every recovery preserved the durable prefix" in out

    def test_powercut_journal_off_control(self, capsys, monkeypatch):
        # --journal-off implies --expect durable-prefix; a control that
        # tripped on every cut reports no violation and the command exits
        # 0.  (tests/integration/test_powercut.py runs the control itself.)
        from repro.faults.powercut import PowercutResult

        configs = self._canned(monkeypatch, lambda config: PowercutResult(
            protocol=config["spec"].protocol, f=config["spec"].f, n=3,
            network=config["spec"].network, seed=config["seed"], victim=1))
        code = main(["powercut", "--protocols", "minbft", "--seeds", "1",
                     "--max-cuts", "2", "--duration", "1200",
                     "--quiesce", "500", "--warmup", "150",
                     "--journal-off"])
        assert code == 0
        [config] = configs
        assert config["spec"].journal_off
        assert config["spec"].expect_violations == ("durable-prefix",)
        out = capsys.readouterr().out
        assert "negative control held" in out

    def test_compare_runs_multiple(self, capsys):
        code = main(["compare", "achilles", "braft", "--f", "1",
                     "--batch", "20", "--payload", "16",
                     "--duration", "200", "--warmup", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "achilles" in out and "braft" in out
