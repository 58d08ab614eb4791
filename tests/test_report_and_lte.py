"""Tests for the markdown report builder and the LTE RRC preset."""

import statistics

import pytest

from repro.analysis.report import MarkdownReport, campaign_report
from repro.cellular.rrc import RrcConfig
from repro.cellular.testbed import CellularTestbed
from repro.core.measurement import ProbeCollector
from repro.tools.ping import PingTool


class TestMarkdownReport:
    def test_structure(self):
        report = MarkdownReport("Demo")
        report.add_section("Setup", "one phone")
        report.add_table(("a", "b"), [(1, 2), (3, 4)])
        text = report.render()
        assert text.startswith("# Demo")
        assert "## Setup" in text
        assert "| a | b |" in text

    def test_table_row_width_checked(self):
        report = MarkdownReport("Demo")
        with pytest.raises(ValueError):
            report.add_table(("a", "b"), [(1,)])

    def test_campaign_report(self):
        from repro.testbed.campaign import Campaign

        campaign = Campaign(count=5, tools=("acutemon",))
        campaign.run()
        report = campaign_report(campaign)
        text = report.render()
        assert "## Cells" in text
        assert "nexus5" in text
        assert "## Worst cell" in text


class TestLtePreset:
    def test_lte_promotion_much_faster_than_3g(self):
        lte = RrcConfig.lte()
        umts = RrcConfig.umts_3g()
        assert lte.promo_idle_dch.mean < umts.promo_idle_dch.mean / 5

    def test_lte_inflation_smaller_but_present(self):
        def sparse_ping_rtts(config, seed):
            testbed = CellularTestbed(seed=seed, emulated_rtt=0.030,
                                      rrc_config=config)
            collector = ProbeCollector(testbed.phone)
            tool = PingTool(testbed.phone, collector, testbed.server_ip,
                            interval=20.0, timeout=8.0)
            samples = tool.run_sync(4)
            ordered = sorted(samples, key=lambda s: s.sent_at)
            return [s.rtt for s in ordered if s.rtt is not None]

        lte = statistics.median(sparse_ping_rtts(RrcConfig.lte(), 501))
        umts = statistics.median(sparse_ping_rtts(RrcConfig.umts_3g(), 502))
        # Both inflate idle probes; LTE by ~0.1-0.5 s, 3G by seconds.
        assert 0.08 < lte < 0.8
        assert umts > 1.5
        assert lte < umts / 4
