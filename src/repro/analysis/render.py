"""Plain-text rendering of tables, box rows and CDFs.

The benchmark harness prints the same *rows* and *series* as the paper's
tables and figures; these helpers keep that output aligned and readable
in a terminal (and in captured bench logs).
"""


class Table:
    """A fixed-column text table."""

    def __init__(self, headers, title=""):
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows = []

    def add_row(self, *cells):
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append([str(cell) for cell in cells])

    def render(self):
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))

        def line(cells):
            return " | ".join(
                cell.ljust(width) for cell, width in zip(cells, widths)
            ).rstrip()

        out = []
        if self.title:
            out.append(self.title)
        out.append(line(self.headers))
        out.append("-+-".join("-" * width for width in widths))
        out.extend(line(row) for row in self.rows)
        return "\n".join(out)

    def __str__(self):
        return self.render()


def fmt_mean_ci(stats, digits=2):
    """'mean±ci' in milliseconds, the format of Tables 2 and 5."""
    return f"{stats.mean * 1e3:.{digits}f}±{stats.ci95 * 1e3:.{digits}f}"


def render_boxplot_row(label, box, unit_scale=1e3, digits=2):
    """One line summarising a box plot (values scaled to ms by default)."""
    s = unit_scale
    return (
        f"{label:24s} median={box.median * s:6.{digits}f} "
        f"box=[{box.q1 * s:6.{digits}f}, {box.q3 * s:6.{digits}f}] "
        f"whiskers=[{box.whisker_low * s:6.{digits}f}, "
        f"{box.whisker_high * s:6.{digits}f}] outliers={len(box.outliers)}"
    )


def render_cdf(cdf, unit_scale=1e3, probabilities=(0.1, 0.25, 0.5, 0.75, 0.9),
               label=""):
    """One line of CDF quantiles (values scaled to ms by default)."""
    parts = [
        f"p{int(p * 100):02d}={cdf.quantile(p) * unit_scale:.2f}"
        for p in probabilities
    ]
    prefix = f"{label:16s} " if label else ""
    return prefix + " ".join(parts)
