"""Summary statistics: mean, spread, confidence intervals.

The paper reports "mean with 95% confidence interval" for its RTT tables
(Tables 2 and 5) and min/mean/max for the driver delays (Table 3).

The 95% Student-t quantile comes from :data:`_T95`, an exact table of
scipy's own values for 1..100 degrees of freedom, so the paper's
100-probe cells need no scipy at all and render the same bytes with or
without it.  scipy is imported only at call time: past 100 degrees of
freedom (memoised per df, with a Cornish-Fisher fallback when scipy is
absent) and for non-default confidence levels.
"""

import math

# Two-sided 95% z quantile (the Cornish-Fisher base).
_Z95 = 1.959963984540054

# float(scipy.stats.t.ppf(0.975, df)) for df = 1..100 (scipy 1.17),
# as repr literals; _T95[df - 1] is the quantile for ``df``.
_T95 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205, 2.228138851986274,
    2.200985160091639, 2.1788128296672284, 2.1603686564627913,
    2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087,
    2.085963447265864, 2.0796138447276795, 2.0738730679040254,
    2.0686576104190486, 2.0638985616280245, 2.0595385527532972,
    2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408,
    2.0369333434601016, 2.0345152974493383, 2.0322445093177186,
    2.030107928250343, 2.0280940009804502, 2.0261924630291093,
    2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824,
    2.0153675744437636, 2.014103388880846, 2.012895598919429,
    2.0117405137297655, 2.010634757624232, 2.0095752371292392,
    2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455,
    2.003240718847872, 2.002465459291007, 2.0017174841452356,
    2.000995378088267, 2.0002978220142604, 1.999623584994939,
    1.9989715170333788, 1.998340542520741, 1.997729654317693,
    1.9971379083920038, 1.9965644189523117, 1.996008354025296,
    1.9954689314298435, 1.9949454151072374, 1.994437111771186,
    1.9939433678456255, 1.9934635666618719, 1.992997125889855,
    1.992543495180932, 1.9921021540022417, 1.9916726096446642,
    1.9912543953883846, 1.9908470688116906, 1.9904502102301285,
    1.990063421254446, 1.9896863234569029, 1.989318557136572,
    1.9889597801751624, 1.9886096669757083, 1.9882679074772216,
    1.98793420623902, 1.9876082815890708, 1.9872898648311692,
    1.986978699506281, 1.9866745407037683, 1.9863771544186177,
    1.98608631695113, 1.9858018143458227, 1.985523441866604,
    1.9852510035054978, 1.984984311522457, 1.9847231860139845,
    1.9844674545084815, 1.9842169515864174, 1.9839715185235518,
)

_t95_beyond_table = {}


def _t_quantile(df):
    """Two-sided 95% Student-t quantile for ``df`` degrees of freedom."""
    if df <= len(_T95):
        return _T95[df - 1]
    quantile = _t95_beyond_table.get(df)
    if quantile is None:
        try:
            from scipy import stats
        except ImportError:
            # Cornish-Fisher approximation: within 3e-6 of the exact
            # quantile past the table.
            z = _Z95
            g1 = (z ** 3 + z) / 4.0
            g2 = (5 * z ** 5 + 16 * z ** 3 + 3 * z) / 96.0
            return z + g1 / df + g2 / df ** 2
        quantile = _t95_beyond_table[df] = float(stats.t.ppf(0.975, df))
    return quantile


def mean_ci(values, confidence=0.95):
    """Mean and half-width of the (default 95%) confidence interval.

    Uses the Student-t quantile, matching how measurement papers report
    small-sample CIs.  Returns ``(mean, half_width)``; the half-width is
    0.0 for fewer than two samples.
    """
    values = list(values)
    if not values:
        raise ValueError("mean_ci requires at least one sample")
    if confidence != 0.95:
        try:
            from scipy import stats
        except ImportError:
            raise ValueError(
                "non-default confidence levels require scipy") from None
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    sem = math.sqrt(variance / n)
    if confidence != 0.95:
        quantile = float(stats.t.ppf(0.5 + confidence / 2.0, n - 1))
    else:
        quantile = _t_quantile(n - 1)
    return mean, quantile * sem


def percentile(values, q):
    """Linear-interpolation percentile (q in [0, 100])."""
    if not 0 <= q <= 100:
        raise ValueError(f"percentile out of range: {q!r}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile requires at least one sample")
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    weight = rank - low
    value = ordered[low] * (1 - weight) + ordered[high] * weight
    # Interpolation can underflow outside its bracket for subnormal
    # inputs; clamp so percentile() always returns an attainable value.
    return min(max(value, ordered[low]), ordered[high])


class SummaryStats:
    """min / mean / max / median / stdev / CI for one sample set."""

    def __init__(self, values):
        self.values = sorted(values)
        if not self.values:
            raise ValueError("SummaryStats requires at least one sample")
        self.n = len(self.values)
        self.minimum = self.values[0]
        self.maximum = self.values[-1]
        self.mean, self.ci95 = mean_ci(self.values)
        self.median = percentile(self.values, 50)
        if self.n > 1:
            variance = sum((v - self.mean) ** 2 for v in self.values) / (self.n - 1)
            self.stdev = math.sqrt(variance)
        else:
            self.stdev = 0.0

    def scaled(self, factor):
        """SummaryStats over values multiplied by ``factor`` (unit change)."""
        return SummaryStats([v * factor for v in self.values])

    def __repr__(self):
        return (
            f"<SummaryStats n={self.n} mean={self.mean:.4g}"
            f"±{self.ci95:.4g} median={self.median:.4g} "
            f"range=[{self.minimum:.4g}, {self.maximum:.4g}]>"
        )
