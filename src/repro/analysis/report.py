"""Markdown report generation for measurement runs.

Assembles a campaign's cells into a self-contained markdown document —
the shape of EXPERIMENTS.md, but regenerated from *your* runs.
"""


class MarkdownReport:
    """An append-only markdown document builder."""

    def __init__(self, title):
        self.title = title
        self._blocks = []

    # -- structure ---------------------------------------------------------

    def add_section(self, heading, text=""):
        self._blocks.append(f"## {heading}")
        if text:
            self._blocks.append(text)
        return self

    def add_table(self, headers, rows):
        lines = [
            "| " + " | ".join(str(cell) for cell in headers) + " |",
            "|" + "|".join("---" for _ in headers) + "|",
        ]
        for row in rows:
            if len(row) != len(headers):
                raise ValueError(
                    f"row has {len(row)} cells, expected {len(headers)}")
            lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
        self._blocks.append("\n".join(lines))
        return self

    # -- output -------------------------------------------------------------------

    def render(self):
        return "\n\n".join([f"# {self.title}"] + self._blocks) + "\n"

    def __str__(self):
        return self.render()


def campaign_report(campaign, title="Measurement campaign"):
    """Build a :class:`MarkdownReport` from a completed
    :class:`~repro.testbed.campaign.Campaign`."""
    report = MarkdownReport(title)
    report.add_section(
        "Cells",
        f"{len(campaign)} cells, {campaign.count} probes each, "
        f"base seed {campaign.base_seed}.",
    )
    rows = []
    for result in campaign.results:
        stats = result.summary()
        rows.append((
            result.env, result.phone, f"{result.rtt * 1e3:.0f}",
            result.tool,
            "yes" if result.cross_traffic else "no",
            f"{stats.median * 1e3:.2f}",
            f"{result.error() * 1e3:.2f}",
        ))
    report.add_table(
        ("env", "phone", "RTT (ms)", "tool", "cross traffic",
         "median (ms)", "error (ms)"),
        rows,
    )
    worst, error = campaign.worst_error()
    if worst is not None:
        report.add_section(
            "Worst cell",
            f"{worst.phone} at {worst.rtt * 1e3:.0f} ms with {worst.tool} "
            f"over {worst.env}: median error {error * 1e3:.2f} ms.",
        )
    return report
