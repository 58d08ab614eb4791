"""Causal delay decomposition: per-probe attribution and campaign reports.

Pins the PR's acceptance properties:

* per-probe attribution sums **exactly** to the measured user RTT on
  the integer-nanosecond grid, with an explicit, never-negative
  ``unattributed`` residual;
* the campaign decomposition report is bit-identical across serial,
  parallel, and crash+resume runs;
* the ``repro report`` / ``campaign --report-out`` surfaces work.
"""

import contextlib
import functools
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.decompose import (
    decompose_campaign,
    decompose_snapshot,
    render_report,
    write_report,
)
from repro.cli import main
from repro.core.measurement import ProbeRecord
from repro.obs.attribution import (
    COMPONENTS,
    RESIDUAL,
    attribute_record,
    spans_by_probe,
)
from repro.obs.metrics import merge_snapshots
from repro.obs.names import SPAN_SDIO_PROMOTION, SPAN_WIRE_NETEM
from repro.obs.spans import SpanTracker
from repro.testbed.campaign import Campaign, CampaignFileError
from repro.testbed.scenario import ScenarioSpec, run_scenario


def _record(probe_id, send, recv):
    record = ProbeRecord(probe_id)
    record.user_send = send
    record.user_recv = recv
    return record


class TestAttributeRecord:
    def test_exact_sum_identity_and_clipping(self):
        spans = SpanTracker(enabled=True)
        # Ambient span bracketing the window: only the overlap counts.
        spans.record(SPAN_SDIO_PROMOTION, 0.9, 1.2, probe_id=7)
        spans.record(SPAN_WIRE_NETEM, 1.2, 1.23, probe_id=7)
        record = _record(7, 1.0, 1.25)
        attribution = attribute_record(record, spans_by_probe(spans)[7])
        assert attribution.total_ns == 250_000_000
        assert attribution.component_ns["sdio.promotion"] == 200_000_000
        assert attribution.component_ns["wire"] == 30_000_000
        assert attribution.residual_ns == 20_000_000
        assert (sum(attribution.component_ns.values())
                + attribution.residual_ns) == attribution.total_ns

    def test_overclaiming_spans_clamped_to_budget(self):
        spans = SpanTracker(enabled=True)
        # Overlapping mechanisms that together exceed the window: the
        # later component is clamped, residual stays at zero, never
        # negative.
        spans.record(SPAN_SDIO_PROMOTION, 1.0, 1.2, probe_id=1)
        spans.record(SPAN_WIRE_NETEM, 1.0, 1.2, probe_id=1)
        attribution = attribute_record(_record(1, 1.0, 1.2),
                                       spans_by_probe(spans)[1])
        assert attribution.component_ns["sdio.promotion"] == 200_000_000
        assert attribution.component_ns["wire"] == 0
        assert attribution.residual_ns == 0

    def test_incomplete_record_skipped(self):
        record = ProbeRecord(3)
        record.user_send = 1.0  # never answered
        assert attribute_record(record, []) is None

    def test_components_dict_covers_declared_order(self):
        attribution = attribute_record(_record(1, 0.0, 0.1), [])
        components = attribution.components()
        assert tuple(components) == COMPONENTS
        assert components[RESIDUAL] == pytest.approx(0.1)


class TestExperimentAttribution:
    def test_ping_attributions_sum_exactly(self):
        result = run_scenario(ScenarioSpec(tool="ping", count=8, observe=True))
        assert len(result.attributions) == 8
        for attribution in result.attributions:
            assert attribution.residual_ns >= 0
            assert (sum(attribution.component_ns.values())
                    + attribution.residual_ns) == attribution.total_ns
        # 1s-interval ping on a sleeping bus: promotion inflation shows.
        assert any(a.component_ns["sdio.promotion"] > 0
                   for a in result.attributions)
        assert all(a.component_ns["wire"] > 0
                   for a in result.attributions)

    def test_httping_attributions_sum_exactly(self):
        result = run_scenario(ScenarioSpec(
            tool="httping", count=6, observe=True))
        assert result.attributions
        for attribution in result.attributions:
            assert attribution.residual_ns >= 0
            assert (sum(attribution.component_ns.values())
                    + attribution.residual_ns) == attribution.total_ns

    def test_unobserved_cell_has_no_attributions(self):
        result = run_scenario(ScenarioSpec(
            tool="ping", count=2, observe=False))
        assert result.attributions == []

    def test_snapshot_series_counts_match(self):
        result = run_scenario(ScenarioSpec(tool="ping", count=5, observe=True))
        slice_ = decompose_snapshot(result.metrics_snapshot())
        assert slice_.probes == 5
        for stats in slice_.components:
            assert stats.count == 5  # residual included, same count
        shares = [stats.share for stats in slice_.components]
        assert sum(shares) == pytest.approx(1.0)


def _campaign():
    return Campaign(phones=("nexus5",), rtts=(0.02,),
                    tools=("ping", "acutemon"), count=4, base_seed=3)


class TestCampaignReport:
    def test_decompose_requires_metrics(self):
        campaign = _campaign()
        campaign.run()
        assert decompose_campaign(campaign) is None

    def test_report_shape_and_dominant(self):
        campaign = _campaign()
        campaign.run(collect_metrics=True)
        report = decompose_campaign(campaign)
        assert len(report.slices) == 2
        assert report.overall is not None
        for slice_ in report.slices + [report.overall]:
            assert slice_.dominant in COMPONENTS
            assert [stats.name for stats in slice_.components] \
                == list(COMPONENTS)
        # At 20ms wire RTT the wired path dominates every cell.
        assert report.overall.dominant == "wire"

    def test_bit_identical_serial_parallel_resume(self, tmp_path):
        serial = _campaign()
        serial.run(collect_metrics=True)
        parallel = _campaign()
        parallel.run(collect_metrics=True, workers=2)
        journal = tmp_path / "cells.jsonl"
        interrupted = _campaign()
        interrupted.run(collect_metrics=True, checkpoint=str(journal))
        lines = journal.read_text(encoding="utf-8").splitlines()
        journal.write_text("\n".join(lines[:1]) + "\n", encoding="utf-8")
        resumed = _campaign()
        resumed.run(collect_metrics=True, checkpoint=str(journal),
                    resume=True)
        texts = {}
        for label, campaign in (("serial", serial), ("parallel", parallel),
                                ("resumed", resumed)):
            report = decompose_campaign(campaign)
            texts[label] = {fmt: render_report(report, fmt)
                            for fmt in ("text", "json", "prom")}
        assert texts["serial"] == texts["parallel"] == texts["resumed"]

    def test_write_report_formats_by_suffix(self, tmp_path):
        campaign = _campaign()
        campaign.run(collect_metrics=True)
        report = decompose_campaign(campaign)
        assert write_report(tmp_path / "r.json", report) == "json"
        assert write_report(tmp_path / "r.prom", report) == "prom"
        assert write_report(tmp_path / "r.txt", report) == "text"
        doc = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        assert len(doc["slices"]) == 2
        assert doc["overall"]["dominant"] == "wire"
        prom = (tmp_path / "r.prom").read_text(encoding="utf-8")
        assert "# TYPE decomposition_component_seconds_total gauge" in prom
        assert 'component="unattributed"' in prom


    def test_overall_is_the_merge_of_every_whole_snapshot(self):
        # Only the component series are merged for the overall view;
        # it must equal decomposing the merge of every series of every
        # cell, on a campaign mixing WiFi and cellular cells.
        campaign = Campaign(envs=("wifi", "cellular-lte"),
                            phones=("nexus5", "nexus4"), rtts=(0.02,),
                            tools=("ping", "acutemon"), count=3)
        campaign.run(collect_metrics=True)
        assert {result.env for result in campaign.results} \
            == {"wifi", "cellular-lte"}
        whole = decompose_snapshot(merge_snapshots(
            [result.metrics for result in campaign.results]))
        report = decompose_campaign(campaign)
        assert json.dumps(report.overall.as_dict(), sort_keys=True) \
            == json.dumps(whole.as_dict(), sort_keys=True)


class TestReportCli:
    def test_campaign_report_out_then_report_command(self, tmp_path,
                                                     capsys):
        campaign_path = tmp_path / "campaign.json"
        report_path = tmp_path / "report.txt"
        assert main(["--count", "4", "campaign", "--rtts", "20",
                     "--tools", "ping", "--out", str(campaign_path),
                     "--report-out", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote decomposition report (text)" in out
        direct = report_path.read_text(encoding="utf-8")
        assert "Delay decomposition" in direct
        assert "Dominant" in direct

        assert main(["report", str(campaign_path)]) == 0
        assert capsys.readouterr().out == direct

        json_path = tmp_path / "report.json"
        assert main(["report", str(campaign_path), "--format", "json",
                     "--out", str(json_path)]) == 0
        capsys.readouterr()
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        assert doc["overall"]["dominant"] == "wire"

    def test_report_errors_without_metrics(self, tmp_path, capsys):
        campaign_path = tmp_path / "campaign.json"
        assert main(["--count", "2", "campaign", "--rtts", "20",
                     "--tools", "ping", "--out",
                     str(campaign_path)]) == 0
        capsys.readouterr()
        assert main(["report", str(campaign_path)]) == 1
        assert "no decomposition data" in capsys.readouterr().out


@functools.lru_cache(maxsize=None)
def _saved_campaign_text():
    """A small observed campaign (one WiFi, one cellular cell) as
    :meth:`Campaign.save` writes it."""
    campaign = Campaign(envs=("wifi", "cellular-lte"), phones=("nexus5",),
                        rtts=(0.02,), tools=("ping",), count=2)
    campaign.run(collect_metrics=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "campaign.json")
        campaign.save(path)
        return pathlib.Path(path).read_text(encoding="utf-8")


def _component_entry(doc, cell):
    return next(entry for entry in doc["results"][cell]["metrics"]["metrics"]
                if entry["name"] == "probe_component_seconds"
                and entry["labels"]["kind"] == "probe")


def _drop_sketch(doc):
    del _component_entry(doc, 1)["sketch"]


def _other_alpha(doc):
    _component_entry(doc, 1)["sketch"]["alpha"] = 0.02


def _run_report(path):
    """``repro report PATH`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["report", str(path)])
    return code, out.getvalue(), err.getvalue()


#: Inputs ``repro report`` rejects with exit 2: raw file text, or an
#: edit of a saved campaign, and a fragment of the one-line error.
BAD_INPUTS = {
    "missing_file": (None, "No such file"),
    "not_json": ("{not json", "cannot read"),
    "json_list": ("[1,2]", "not a campaign record"),
    "record_without_fields": ('{"results":[{"env":"wifi"}]}',
                              "not a campaign record"),
    "result_without_rtts": (lambda doc: doc["results"][0].pop("rtts"),
                            "result 0 has no valid 'rtts'"),
    "result_rtt_string": (lambda doc: doc["results"][1].update(rtt="20ms"),
                          "result 1 has no valid 'rtt'"),
    "result_not_object": (lambda doc: doc["results"].append([]),
                          "result 2 is not an object"),
    "quarantine_without_phone": (
        lambda doc: doc.update(quarantine=[{"tool": "ping"}]),
        "quarantined cell 0 has no valid 'phone'"),
    "metric_kind_a_list": (
        lambda doc: doc["results"][0]["metrics"]["metrics"][0].update(
            kind=["histogram"]),
        "result 0: metric entry 0 is malformed"),
    "metrics_not_snapshot": (
        lambda doc: doc["results"][0].update(metrics=[]),
        "result 0: a metrics snapshot"),
    "pre_sketch_histogram": (_drop_sketch,
                             "'probe_component_seconds' {"),
    "unmergeable_cells": (_other_alpha,
                          "cannot merge histogram 'probe_component_seconds'"),
}


class TestReportBadInput:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exits_2_with_one_line_error(self, case, tmp_path):
        content, fragment = BAD_INPUTS[case]
        path = tmp_path / "campaign.json"
        if callable(content):
            doc = json.loads(_saved_campaign_text())
            content(doc)
            content = json.dumps(doc)
        if content is not None:
            path.write_text(content, encoding="utf-8")
        code, out, err = _run_report(path)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert fragment in err

    def test_load_raises_a_value_error_subclass(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text("[1,2]", encoding="utf-8")
        with pytest.raises(CampaignFileError) as raised:
            Campaign.load(path)
        assert isinstance(raised.value, ValueError)
        with pytest.raises(CampaignFileError):
            Campaign.load(tmp_path / "missing.json")

    def test_saved_campaign_reports_and_round_trips(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(_saved_campaign_text(), encoding="utf-8")
        code, out, err = _run_report(path)
        assert (code, err) == (0, "")
        assert "Delay decomposition" in out

    def test_process_exit_code_and_no_traceback(self, tmp_path):
        env = dict(os.environ)
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "report",
             str(tmp_path / "missing.json")],
            env=env, capture_output=True, text=True, timeout=120)
        assert completed.returncode == 2
        assert completed.stderr.startswith("error: cannot read")
        assert "Traceback" not in completed.stderr


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=12)


def _paths(node, path=()):
    """Every position in a JSON document, as a key path."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, path + (index,))


@st.composite
def _campaign_files(draw):
    """Arbitrary JSON, campaign-shaped objects, or a saved campaign with
    one node replaced by arbitrary JSON or deleted."""
    shape = draw(st.sampled_from(("any", "shaped", "edited")))
    if shape == "any":
        return json.dumps(draw(_json_values))
    if shape == "shaped":
        return json.dumps(draw(st.fixed_dictionaries(
            {"count": _json_values, "base_seed": _json_values,
             "results": st.lists(_json_values, max_size=3)})))
    doc = json.loads(_saved_campaign_text())
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_json_values)
    return json.dumps(doc)


class TestReportFuzz:
    @settings(max_examples=400, deadline=None)
    @given(text=_campaign_files())
    def test_any_json_file_exits_0_1_or_2(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "campaign.json"
            path.write_text(text, encoding="utf-8")
            # An uncaught exception here is the traceback a user sees.
            code, out, err = _run_report(path)
        assert code in (0, 1, 2)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == ""
