"""Tests for the command-line interface."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main
from tests.test_decompose import _json_values

class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_global_options(self):
        args = build_parser().parse_args(["--seed", "7", "--count", "5",
                                          "phones"])
        assert args.seed == 7 and args.count == 5

    def test_compare_options(self):
        args = build_parser().parse_args(
            ["compare", "--phone", "nexus4", "--rtt", "60",
             "--cross-traffic"])
        assert args.phone == "nexus4"
        assert args.rtt == 60.0
        assert args.cross_traffic

    def test_unknown_phone_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--phone", "pixel"])

    def test_obs_options(self):
        args = build_parser().parse_args(
            ["obs", "--phone", "nexus4", "--rtt", "60", "--tool", "ping",
             "--out", "prefix"])
        assert args.phone == "nexus4"
        assert args.rtt == 60.0
        assert args.tool == "ping"
        assert args.out == "prefix"

    def test_campaign_metrics_out_option(self):
        args = build_parser().parse_args(
            ["campaign", "--metrics-out", "metrics.prom"])
        assert args.metrics_out == "metrics.prom"
        assert build_parser().parse_args(["campaign"]).metrics_out is None

    def test_campaign_env_option(self):
        args = build_parser().parse_args(
            ["campaign", "--env", "wifi", "cellular-lte"])
        assert args.env == ["wifi", "cellular-lte"]
        assert build_parser().parse_args(["campaign"]).env == ["wifi"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--env", "ethernet"])

    def test_campaign_resilience_options(self):
        args = build_parser().parse_args(
            ["campaign", "--checkpoint", "sweep.jsonl", "--resume",
             "--cell-timeout", "30", "--retries", "2",
             "--retry-backoff", "0.5"])
        assert args.checkpoint == "sweep.jsonl"
        assert args.resume
        assert args.cell_timeout == 30.0
        assert args.retries == 2
        assert args.retry_backoff == 0.5

    def test_campaign_resilience_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.checkpoint is None
        assert not args.resume
        assert args.cell_timeout is None
        assert args.retries == 0
        assert args.retry_backoff == 0.0

    def test_scenario_run_options(self):
        args = build_parser().parse_args(
            ["scenario", "run", "--env", "cellular-lte",
             "--tool", "acutemon", "--phone", "nexus4", "--rtt", "50",
             "--interval", "0.5", "--observe"])
        assert args.scenario_command == "run"
        assert args.env == "cellular-lte"
        assert args.tool == "acutemon"
        assert args.phone == "nexus4"
        assert args.rtt == 50.0
        assert args.interval == 0.5
        assert args.observe and not args.cross_traffic

    def test_scenario_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_campaign_fabric_options(self):
        args = build_parser().parse_args(
            ["campaign", "--shards", "4", "--store", "cache-dir"])
        assert args.shards == 4
        assert args.store == "cache-dir"
        defaults = build_parser().parse_args(["campaign"])
        assert defaults.shards is None and defaults.store is None

    def test_cache_options(self):
        args = build_parser().parse_args(
            ["cache", "stats", "--store", "cache-dir"])
        assert args.cache_command == "stats"
        assert args.store == "cache-dir"
        assert build_parser().parse_args(
            ["cache", "gc", "--store", "d"]).cache_command == "gc"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "stats"])  # --store required

    def test_scenario_rejects_unknown_env_and_tool(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "run", "--env",
                                       "ethernet"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "run", "--tool",
                                       "warpspeed"])


class TestCommands:
    def test_phones_lists_all_profiles(self, capsys):
        assert main(["phones"]) == 0
        out = capsys.readouterr().out
        for key in ("nexus5", "nexus4", "htc_one", "xperia_j",
                    "galaxy_grand"):
            assert key in out
        assert "BCM4339" in out

    def test_table3_runs_small(self, capsys):
        assert main(["--count", "5", "table3"]) == 0
        out = capsys.readouterr().out
        assert "dvsend" in out and "dvrecv" in out
        assert "Enabled" in out and "Disabled" in out

    def test_overheads_runs_small(self, capsys):
        assert main(["--count", "5", "overheads", "--phone", "nexus4"]) == 0
        out = capsys.readouterr().out
        assert "du_k" in out and "dk_n" in out

    def test_compare_runs_small(self, capsys):
        assert main(["--count", "5", "compare"]) == 0
        out = capsys.readouterr().out
        for tool in ("acutemon", "ping", "httping", "javaping"):
            assert tool in out

    def test_obs_prints_histograms_and_exports(self, capsys, tmp_path):
        prefix = tmp_path / "cell"
        assert main(["--count", "5", "obs", "--out", str(prefix)]) == 0
        out = capsys.readouterr().out
        assert "sdio_promotion_seconds" in out
        assert "psm_beacon_wait_seconds" in out
        assert "p50=" in out
        prom = (tmp_path / "cell.prom").read_text()
        assert "sdio_promotion_seconds_bucket" in prom
        assert (tmp_path / "cell.jsonl").read_text().strip()
        assert (tmp_path / "cell.trace.json").read_text().startswith("{")

    def test_campaign_metrics_out_writes_merged_snapshot(self, capsys,
                                                         tmp_path):
        path = tmp_path / "merged.prom"
        assert main(["--count", "4", "campaign", "--rtts", "20",
                     "--tools", "acutemon", "--metrics-out",
                     str(path)]) == 0
        out = capsys.readouterr().out
        assert "wrote merged metrics" in out
        text = path.read_text()
        assert "sdio_promotion_seconds_bucket" in text
        assert "psm_beacon_wait_seconds_bucket" in text

    def test_campaign_sweeps_environments(self, capsys):
        assert main(["--count", "3", "campaign", "--env", "wifi",
                     "cellular-lte", "--rtts", "20", "--tools",
                     "ping"]) == 0
        out = capsys.readouterr().out
        assert "over wifi" in out and "over cellular-lte" in out
        assert "Env" in out

    def test_campaign_checkpoint_and_resume(self, capsys, tmp_path):
        checkpoint = tmp_path / "sweep.ckpt.jsonl"
        base = ["--count", "3", "campaign", "--rtts", "20", "--tools",
                "ping", "--checkpoint", str(checkpoint)]
        assert main(base) == 0
        capsys.readouterr()
        assert checkpoint.read_text().strip()
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed 1 cell(s) from checkpoint" in out

    def test_campaign_resume_without_checkpoint_errors(self, capsys):
        assert main(["campaign", "--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --resume requires --checkpoint PATH\n"

    def test_campaign_shards_with_workers(self, capsys):
        # Two shards on a pool capped at two of the four workers.
        assert main(["--count", "3", "campaign", "--rtts", "20", "50",
                     "--tools", "ping", "--shards", "2",
                     "--workers", "4"]) == 0
        out = capsys.readouterr().out
        assert "shards: 2 dispatched, 0 stolen" in out
        assert "finished" in out

    def test_campaign_store_cold_then_warm(self, capsys, tmp_path):
        store = tmp_path / "cache"
        base = ["--count", "3", "campaign", "--rtts", "20", "--tools",
                "ping", "--store", str(store)]
        assert main(base) == 0
        assert "store cache: 0 hit(s), 1 miss(es)" \
            in capsys.readouterr().out
        assert main(base) == 0
        assert "store cache: 1 hit(s), 0 miss(es)" \
            in capsys.readouterr().out

    def test_campaign_sharded_run_reports_shards(self, capsys):
        assert main(["--count", "3", "campaign", "--rtts", "20",
                     "--tools", "ping", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "shards: 1 dispatched, 0 stolen" in out
        assert "finished" in out

    def test_campaign_quarantined_cells_exit_nonzero(self, capsys,
                                                     monkeypatch):
        from tests.chaos import ChaosInjector
        # The single grid cell has seed 0 (base seed 0, index 0).
        ChaosInjector(always_fail={0}).install(monkeypatch)
        assert main(["--count", "3", "campaign", "--rtts", "20",
                     "--tools", "ping", "--retries", "1"]) == 1
        assert "Quarantined cells" in capsys.readouterr().out

    def test_cache_stats_and_gc(self, capsys, tmp_path):
        store = tmp_path / "cache"
        assert main(["--count", "3", "campaign", "--rtts", "20",
                     "--tools", "ping", "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "1 live cell(s)" in out
        assert "1 record(s) in 1 segment(s)" in out
        assert main(["cache", "gc", "--store", str(store)]) == 0
        assert "gc: kept 1 live cell(s), removed 1 segment(s), " \
            "dropped 0 stale or superseded record(s)" \
            in capsys.readouterr().out

    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for key in ("wifi", "cellular-3g", "cellular-lte"):
            assert key in out
        for tool in ("acutemon", "ping2", "mobiperf"):
            assert tool in out
        assert "nexus5" in out

    def test_scenario_run_cellular_acutemon(self, capsys):
        assert main(["--count", "4", "scenario", "run", "--env",
                     "cellular-lte", "--tool", "acutemon"]) == 0
        out = capsys.readouterr().out
        assert "cellular-lte" in out
        assert "probes: 4" in out
        assert "user RTT" in out

    def test_scenario_spec_save_and_load(self, capsys, tmp_path):
        spec_path = tmp_path / "cell.json"
        assert main(["--count", "3", "scenario", "run", "--tool", "ping",
                     "--interval", "0.05", "--save-spec",
                     str(spec_path)]) == 0
        first = capsys.readouterr().out
        assert "saved spec to" in first
        assert main(["scenario", "run", "--spec", str(spec_path)]) == 0
        second = capsys.readouterr().out
        # Same spec, same seed: the reported medians agree exactly.
        assert first.splitlines()[-2:] == second.splitlines()[-2:]

    def test_scenario_run_with_every_probe_lost(self, capsys, tmp_path):
        spec_path = tmp_path / "dark.json"
        spec_path.write_text('{"env":"wifi","tool":"ping","count":2,'
                             '"env_params":{"path_loss":1.0}}')
        assert main(["scenario", "run", "--spec", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "probes: 2 (2 lost)" in out
        assert "user RTT: none (every probe was lost)" in out


def _run(argv):
    """``repro ARGV`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


#: ``--spec`` file contents ``repro scenario run`` rejects with exit 2
#: (``None``: no file), and a fragment of the one-line error.
BAD_SPEC_FILES = {
    "missing_file": (None, "No such file"),
    "not_json": (b"{not json", "Expecting property name"),
    "not_utf8": (b"\xff\xfe{", "codec can't decode"),
    "not_an_object": (b"[1,2]", "must be a JSON object"),
    "negative_count": (b'{"env":"wifi","phone":"nexus5","tool":"ping",'
                       b'"count":-3}', "count must be >= 1"),
    "unknown_field": (b'{"tool":"ping","probes":3}',
                      "unknown scenario field"),
    "nan_rtt": (b'{"emulated_rtt":NaN}', "must be finite"),
    "unknown_env_param": (b'{"env":"wifi","phone":"nexus5","tool":"ping",'
                          b'"count":2,"env_params":{"bogus":1}}',
                          "env_params key(s) ['bogus'] not taken by 'wifi'"),
    "unknown_tool_param": (b'{"env":"wifi","phone":"nexus5","tool":"ping",'
                           b'"count":2,"tool_params":{"bogus":1}}',
                           "tool_params key(s) ['bogus'] not taken by "
                           "'ping'"),
    "wrong_type_env_param": (b'{"env":"wifi","tool":"ping","count":2,'
                             b'"env_params":{"beacon_interval_tu":"a"}}',
                             "env_params['beacon_interval_tu'] must be int"),
    "non_json_env_param": (b'{"env":"wifi","tool":"ping","count":2,'
                           b'"env_params":{"phy":1}}',
                           "env_params key(s) ['phy'] not taken by 'wifi'"),
    "zero_beacon_interval": (b'{"env":"wifi","tool":"ping","count":2,'
                             b'"env_params":{"beacon_interval_tu":0}}',
                             "beacon_interval_tu must be >= 1"),
    # Spec files written when the testbed still built sniffers: the
    # keys are gone, so each fails as unknown, never with a traceback.
    "removed_sniffer_count": (b'{"env":"wifi","tool":"ping","count":2,'
                              b'"env_params":{"sniffer_count":3}}',
                              "env_params key(s) ['sniffer_count'] not "
                              "taken by 'wifi'"),
    "negative_sniffer_count": (b'{"env":"wifi","tool":"ping","count":2,'
                               b'"env_params":{"sniffer_count":-1}}',
                               "env_params key(s) ['sniffer_count'] not "
                               "taken by 'wifi'"),
    "too_many_sniffers": (b'{"env":"wifi","tool":"ping","count":2,'
                          b'"env_params":{"sniffer_count":5}}',
                          "env_params key(s) ['sniffer_count'] not "
                          "taken by 'wifi'"),
    "sniffer_loss_above_one": (b'{"env":"wifi","tool":"ping","count":2,'
                               b'"env_params":{"sniffer_loss":2.0}}',
                               "env_params key(s) ['sniffer_loss'] not "
                               "taken by 'wifi'"),
    "negative_rtt_jitter": (b'{"env":"wifi","tool":"ping","count":2,'
                            b'"env_params":{"rtt_jitter":-1.0}}',
                            "rtt_jitter must be >= 0"),
    "path_loss_above_one": (b'{"env":"wifi","tool":"ping","count":2,'
                            b'"env_params":{"path_loss":2.0}}',
                            "path_loss must be within [0, 1]"),
    "negative_path_loss": (b'{"env":"wifi","tool":"ping","count":2,'
                           b'"env_params":{"path_loss":-0.1}}',
                           "path_loss must be within [0, 1]"),
    "negative_rrc_t1": (b'{"env":"cellular-3g","tool":"ping","count":2,'
                        b'"env_params":{"t1":-1.0}}',
                        "t1 must be finite and >= 0"),
    "zero_dch_rate": (b'{"env":"cellular-3g","tool":"ping","count":2,'
                      b'"env_params":{"dch_rate_bps":0}}',
                      "dch_rate_bps must be finite and > 0"),
    "negative_fach_threshold": (b'{"env":"cellular-3g","tool":"ping",'
                                b'"count":2,'
                                b'"env_params":{"fach_threshold":-5}}',
                                "fach_threshold must be >= 0"),
    "unknown_env": (b'{"env":"ethernet","tool":"ping","count":2}',
                    "unknown environment 'ethernet'; known: "
                    "['cellular-3g', 'cellular-lte', 'wifi']"),
    "negative_ping_timeout": (b'{"env":"wifi","tool":"ping","count":2,'
                              b'"tool_params":{"timeout":-1.0}}',
                              "tool_params: timeout must be finite and > 0"),
    "zero_ping2_timeout": (b'{"env":"wifi","tool":"ping2","count":2,'
                           b'"tool_params":{"timeout":0.0}}',
                           "tool_params: timeout must be finite and > 0"),
    "negative_acutemon_dpre": (b'{"env":"wifi","tool":"acutemon","count":2,'
                               b'"tool_params":{"dpre":-1.0}}',
                               "tool_params: dpre must be finite and > 0"),
    "unknown_acutemon_method": (b'{"env":"wifi","tool":"acutemon",'
                                b'"count":2,'
                                b'"tool_params":{"probe_method":"raw"}}',
                                "tool_params: probe_method must be one of"),
}

#: Command lines that exit 2 with a one-line error before any cell runs.
BAD_COMMANDS = {
    "campaign_nan_rtt": (["campaign", "--rtts", "nan"], "must be finite"),
    "campaign_negative_rtt": (["campaign", "--rtts", "-5"],
                              "emulated_rtt must be >= 0.0"),
    "campaign_zero_count": (["--count", "0", "campaign"],
                            "count must be >= 1"),
    "scenario_nan_rtt": (["scenario", "run", "--rtt", "nan"],
                         "must be finite"),
    "campaign_zero_shards": (["campaign", "--shards", "0"],
                             "shard_count must be None or an int >= 1"),
    "campaign_negative_retries": (["campaign", "--retries", "-1"],
                                  "retries must be an int >= 0"),
    "campaign_negative_timeout": (["campaign", "--cell-timeout", "-1"],
                                  "cell_timeout must be a positive"),
    "campaign_nan_timeout": (["campaign", "--cell-timeout", "nan"],
                             "cell_timeout must be a positive finite"),
    "campaign_negative_backoff": (["campaign", "--retry-backoff", "-1"],
                                  "backoff must be a finite number"),
    "campaign_inf_backoff": (["campaign", "--retry-backoff", "inf"],
                             "backoff must be a finite number"),
    "analytic_nan_rtt": (["analytic", "--rtt", "nan"],
                         "base_rtt must be a non-negative finite"),
    "analytic_negative_load": (["analytic", "--load", "-1"],
                               "offered_load must be a non-negative"),
}


class TestBadInput:
    @pytest.mark.parametrize("case", sorted(BAD_SPEC_FILES))
    def test_bad_spec_file_exits_2_with_one_line_error(self, case,
                                                       tmp_path):
        content, fragment = BAD_SPEC_FILES[case]
        path = tmp_path / "spec.json"
        if content is not None:
            path.write_bytes(content)
        code, out, err = _run(["scenario", "run", "--spec", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert fragment in err

    @pytest.mark.parametrize("case", sorted(BAD_COMMANDS))
    def test_bad_arguments_exit_2_with_one_line_error(self, case):
        argv, fragment = BAD_COMMANDS[case]
        code, out, err = _run(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert fragment in err

    @pytest.mark.parametrize("argv", [
        ["scenario", "run", "--spec", "missing.json"],
        ["campaign", "--rtts", "nan"],
        ["campaign", "--cell-timeout", "nan"],
    ], ids=["scenario_missing_spec", "campaign_nan_rtt",
            "campaign_nan_timeout"])
    def test_process_exit_code_and_no_traceback(self, argv, tmp_path):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", *argv], cwd=tmp_path,
            env=_subprocess_env(), capture_output=True, text=True,
            timeout=120)
        assert completed.returncode == 2
        assert completed.stderr.startswith("error: ")
        assert "Traceback" not in completed.stderr

    def test_closed_stdout_pipe_exits_without_traceback(self, tmp_path):
        """``repro ... | head -1``: the reader has gone away.  Its end of
        the pipe is closed before the child starts, so the child's first
        write meets the broken pipe however the two are scheduled."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "phones"], cwd=tmp_path,
                env=_subprocess_env(), stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert (completed.returncode, completed.stderr) == (1, "")

    def test_broken_pipe_elsewhere_still_raises(self, capsys):
        """Only a broken stdout is the reader going away; a broken pipe
        from any other stream inside a command is not swallowed."""
        def command(_args):
            print("partial output")
            raise BrokenPipeError("worker pipe")

        with mock.patch.dict("repro.cli.COMMANDS",
                             {"phones": (command, "stub")}):
            with pytest.raises(BrokenPipeError, match="worker pipe"):
                main(["phones"])
        assert capsys.readouterr().out == "partial output\n"


def _subprocess_env():
    """The environment for ``python -m repro`` run from any directory."""
    env = dict(os.environ)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                      else []))
    return env


#: A valid spec the fuzz edits one field of.
_BASE_SPEC = {"env": "wifi", "phone": "nexus5", "tool": "ping",
              "emulated_rtt": 0.03, "count": 2, "interval": 0.05,
              "seed": 3, "cross_traffic": False, "bus_sleep": True,
              "settle": 0.5, "observe": False, "env_params": {},
              "tool_params": {}}


@st.composite
def _spec_files(draw):
    """Raw bytes, arbitrary JSON, or a valid spec with one field
    replaced by arbitrary JSON, deleted, or joined by an unknown one."""
    shape = draw(st.sampled_from(("bytes", "any", "edited")))
    if shape == "bytes":
        return draw(st.binary(max_size=64))
    if shape == "any":
        return json.dumps(draw(_json_values)).encode("utf-8")
    doc = dict(_BASE_SPEC)
    key = draw(st.sampled_from(sorted(doc) + ["unknown"]))
    if key in doc and draw(st.booleans()):
        del doc[key]
    else:
        doc[key] = draw(_json_values)
    return json.dumps(doc).encode("utf-8")


@pytest.fixture(scope="module")
def small_result():
    from repro.testbed.scenario import ScenarioSpec, run_scenario

    return run_scenario(ScenarioSpec(**dict(_BASE_SPEC, observe=True)))


class TestSpecFileFuzz:
    @settings(max_examples=300, deadline=None)
    @given(content=_spec_files())
    def test_any_spec_file_exits_0_or_2(self, small_result, content):
        """A spec file either loads or is rejected with one ``error:``
        line; it never ends in a traceback.  Accepted specs do not run
        here (a drawn ``count`` can be 10**18): a small real result
        stands in for the cell, so the fuzz covers loading, validation
        and the summary printed after the run."""
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch("repro.testbed.scenario.run_scenario",
                           return_value=small_result):
            path = pathlib.Path(tmp) / "spec.json"
            path.write_bytes(content)
            # An uncaught exception here is the traceback a user sees.
            code, out, err = _run(["scenario", "run", "--spec", str(path)])
        assert code in (0, 2)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert out == ""
        else:
            assert err == "" and "user RTT" in out


#: A number as a command-line word: any int or float (NaN, infinities
#: and huge magnitudes included), or a word that is no number.
_NUMBER_WORDS = st.one_of(st.integers().map(str), st.floats().map(repr),
                          st.sampled_from(["", "x", "1e999", "-0", "0x10"]))


def _run_exit_code(argv):
    """``_run`` that also maps argparse's usage error to its exit code."""
    try:
        return _run(argv)
    except SystemExit as exc:
        return exc.code, "", ""


def _stub_fabric_run(runner, **_kwargs):
    """``FabricRunner.run`` without simulating a cell.  ``Campaign.run``
    still builds the runner and the fault policy, so the option checks
    it makes before dispatch stay under the fuzz."""
    campaign = runner.campaign
    campaign.results, campaign.quarantine = [], []
    campaign.run_metrics = {"metrics": []}
    return campaign.results


class TestRunOptionFuzz:
    """``campaign``'s run options and ``analytic``'s numbers either run
    or exit 2 with one ``error:`` line; none ends in a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(options=st.dictionaries(
        st.sampled_from(["--workers", "--shards", "--retries",
                         "--cell-timeout", "--retry-backoff"]),
        _NUMBER_WORDS, min_size=1))
    def test_campaign_run_options(self, options):
        from repro.testbed.fabric import FabricRunner

        argv = ["campaign"] + [f"{flag}={word}"
                               for flag, word in options.items()]
        with mock.patch.object(FabricRunner, "run", autospec=True,
                               side_effect=_stub_fabric_run) as run:
            code, out, err = _run_exit_code(argv)
        assert code in (0, 2)
        if code == 0:
            assert run.call_count == 1 and "Campaign results" in out
        else:
            assert run.call_count == 0
            assert "Traceback" not in err

    @settings(max_examples=200, deadline=None)
    @given(options=st.dictionaries(
        st.sampled_from(["--rtt", "--load", "--listen-interval",
                         "--beacon-interval-tu"]),
        _NUMBER_WORDS, min_size=1))
    def test_analytic_numbers(self, options):
        argv = ["analytic"] + [f"{flag}={word}"
                               for flag, word in options.items()]
        code, out, err = _run_exit_code(argv)
        assert code in (0, 2)
        if code == 0:
            assert err == "" and "mean delay" in out
        elif err.startswith("error: "):
            assert err.count("\n") == 1


@st.composite
def _stores(draw):
    """``(kind, build)``: a ``--store`` path that is missing, a file, or
    a directory whose ``segments`` entry is absent, a file, or holds
    segment files of arbitrary bytes or JSON lines."""
    kind = draw(st.sampled_from(("missing", "file", "dir")))
    layout = draw(st.sampled_from(("none", "file", "segments")))
    blobs = draw(st.lists(st.one_of(
        st.binary(max_size=64),
        st.lists(_json_values, max_size=3).map(
            lambda rows: "".join(json.dumps(row) + "\n"
                                 for row in rows).encode("utf-8"))),
        max_size=3))

    def build(path):
        if kind == "file":
            path.write_bytes(b"".join(blobs))
        elif kind == "dir":
            path.mkdir()
            if layout == "file":
                (path / "segments").write_bytes(b"")
            elif layout == "segments":
                (path / "segments").mkdir()
                for index, blob in enumerate(blobs):
                    (path / "segments" / f"seg-1-{index:08d}.jsonl") \
                        .write_bytes(blob)

    return kind, build


class TestCacheFuzz:
    @pytest.mark.parametrize("subcommand", ["stats", "gc"])
    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_store_must_be_a_directory(self, subcommand, kind, tmp_path):
        store = tmp_path / "store"
        if kind == "file":
            store.write_text("{}\n", encoding="utf-8")
        code, out, err = _run(["cache", subcommand, "--store", str(store)])
        assert (code, out) == (2, "")
        assert err == (f"error: --store {str(store)!r} is not an existing "
                       "directory\n")

    @settings(max_examples=200, deadline=None)
    @given(subcommand=st.sampled_from(["stats", "gc"]), store=_stores())
    def test_any_store_exits_0_or_2(self, subcommand, store):
        """``cache`` either reports on the store or exits 2 with one
        ``error:`` line; a path that is no directory is always 2."""
        kind, build = store
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "store"
            build(path)
            code, out, err = _run(["cache", subcommand, "--store",
                                   str(path)])
        assert code in (0, 2)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert out == ""
        else:
            assert kind == "dir" and err == ""
            assert out.startswith("store " if subcommand == "stats"
                                  else "gc: ")
