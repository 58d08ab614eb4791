"""Statistics and report rendering for the reproduced experiments.

* :mod:`repro.analysis.analytic` — closed-form PSM/TWT/predictive-sleep
  delay and throughput predictors the simulator is cross-validated
  against (``docs/ANALYTIC.md``),
* :mod:`repro.analysis.stats` — means with 95% confidence intervals
  (the format of the paper's Tables 2 and 5) and summary statistics,
* :mod:`repro.analysis.boxstats` — box-and-whisker statistics exactly as
  the paper's Figures 3 and 7 define them (median, quartiles, whiskers
  at the extrema after excluding 1.5 IQR outliers),
* :mod:`repro.analysis.cdf` — empirical CDFs for Figures 8 and 9,
* :mod:`repro.analysis.decompose` — campaign-scale delay-decomposition
  reports ("which inflation mechanism dominates, per grid slice"),
* :mod:`repro.analysis.render` — plain-text tables and CDF sketches so
  every benchmark prints the same rows/series the paper reports.
"""

from repro.analysis.analytic import (
    AnalyticError,
    predict_for_profile,
    predictive_delay_bound,
    predictive_wake_bound,
    psm_mean_beacon_wait,
    psm_mean_delay,
    saturation_throughput,
    twt_drift_bound,
    twt_mean_delay,
    twt_wake_error_bound,
)
from repro.analysis.boxstats import BoxStats
from repro.analysis.cdf import Cdf
from repro.analysis.compare import dominates, ks_statistic, ks_test, median_shift
from repro.analysis.decompose import (
    DecompositionReport,
    SliceDecomposition,
    decompose_campaign,
    decompose_snapshot,
    render_report,
    write_report,
)
from repro.analysis.render import Table, render_boxplot_row, render_cdf
from repro.analysis.report import MarkdownReport, campaign_report
from repro.analysis.stats import SummaryStats, mean_ci

__all__ = [
    "AnalyticError",
    "BoxStats",
    "Cdf",
    "DecompositionReport",
    "MarkdownReport",
    "SliceDecomposition",
    "campaign_report",
    "decompose_campaign",
    "decompose_snapshot",
    "render_report",
    "write_report",
    "dominates",
    "ks_statistic",
    "ks_test",
    "median_shift",
    "SummaryStats",
    "Table",
    "mean_ci",
    "predict_for_profile",
    "predictive_delay_bound",
    "predictive_wake_bound",
    "psm_mean_beacon_wait",
    "psm_mean_delay",
    "render_boxplot_row",
    "render_cdf",
    "saturation_throughput",
    "twt_drift_bound",
    "twt_mean_delay",
    "twt_wake_error_bound",
]
