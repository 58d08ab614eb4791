"""DDSketch-style streaming quantile sketch with relative-error bounds.

The sketch is a histogram's only bucket structure.  Values land in
*log-spaced* buckets ``(gamma**(k-1), gamma**k]`` with
``gamma = (1 + alpha) / (1 - alpha)``, so any quantile estimate is
within a relative error ``alpha`` of the true sample quantile (see
Masson, Rim & Lee, "DDSketch: a fast and fully-mergeable quantile
sketch with relative-error guarantees", VLDB 2019), and a count "below
bound ``b``" is exact up to the one bucket holding ``b`` — the
Prometheus exporter's ``le`` series is read that way
(:mod:`repro.obs.export`).

Three properties matter for this codebase:

* **Deterministic** — bucket keys are integers computed from the value
  alone; the same observations always produce the same sketch.
* **Exactly mergeable** — merging sums integer bucket counts, so
  ``merge(shard_sketches) == whole_sketch`` holds *bit-identically* for
  any partition of the observations.  This is what keeps campaign
  snapshots identical across serial, parallel, and crash+resume runs.
* **Bounded error** — quantile estimates are within ``alpha`` (default
  1%) of the exact sample quantile for values above ``min_value``.

Values at or below ``min_value`` (including zero) are counted in a
dedicated zero bucket and reported as ``0.0`` — measurement durations
are non-negative and sub-picosecond delays are indistinguishable from
zero at the simulator's resolution.

Payload format (JSON-ready, deterministically ordered)::

    {"alpha": 0.01, "zero": 3, "bins": [[-120, 4], [17, 9], ...]}

``bins`` is sorted by bucket key; counts are integers, so the payload
round-trips through JSON without loss.
"""

from math import ceil, exp, log

#: Default relative-error bound: estimates within 1% of the exact
#: sample quantile.
DEFAULT_ALPHA = 0.01

#: Values at or below this are collapsed into the zero bucket (well
#: under any delay the simulator can resolve).
MIN_TRACKED_VALUE = 1e-12


class DDSketch:
    """Log-bucketed quantile sketch with relative-error ``alpha``."""

    __slots__ = ("alpha", "gamma", "bins", "zero_count",
                 "_inv_log_gamma", "_log_gamma", "_value_factor")

    def __init__(self, alpha=DEFAULT_ALPHA):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1): {alpha!r}")
        self.alpha = alpha
        self.gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = log(self.gamma)
        self._inv_log_gamma = 1.0 / self._log_gamma
        # Midpoint estimate for bucket k is 2*gamma**k / (gamma + 1);
        # precompute the constant factor.
        self._value_factor = 2.0 / (self.gamma + 1.0)
        self.bins = {}
        self.zero_count = 0

    # -- recording --------------------------------------------------------

    def key(self, value):
        """Bucket key for a value > MIN_TRACKED_VALUE."""
        return ceil(log(value) * self._inv_log_gamma)

    def add(self, value, count=1):
        """Record ``count`` observations of ``value``."""
        if value <= MIN_TRACKED_VALUE:
            self.zero_count += count
            return
        key = ceil(log(value) * self._inv_log_gamma)
        bins = self.bins
        bins[key] = bins.get(key, 0) + count

    # -- queries ----------------------------------------------------------

    @property
    def count(self):
        return self.zero_count + sum(self.bins.values())

    def value_of_key(self, key):
        """Representative value of bucket ``key`` (its gamma-midpoint,
        within ``alpha`` of every value the bucket can hold)."""
        return exp(key * self._log_gamma) * self._value_factor

    def quantile(self, q):
        """Estimate of the ``q``-quantile (``q`` in [0, 1]).

        Returns the representative value of the bucket holding the
        rank-``ceil(q * count)`` smallest observation (rank 1 for
        ``q == 0``); ``None`` while the sketch is empty.  The estimate
        is within relative error ``alpha`` of the exact sample quantile
        under the same rank definition.
        """
        total = self.count
        if not total:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]: {q!r}")
        rank = max(1, ceil(q * total))
        cumulative = self.zero_count
        if rank <= cumulative:
            return 0.0
        for key in sorted(self.bins):
            cumulative += self.bins[key]
            if cumulative >= rank:
                return self.value_of_key(key)
        # Unreachable when counts are consistent; defend against
        # concurrent mutation by returning the top bucket.
        return self.value_of_key(max(self.bins))

    # -- merging ----------------------------------------------------------

    def merge(self, other):
        """Fold ``other`` into this sketch (exact: counts sum)."""
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge sketches with alpha {other.alpha!r} into "
                f"{self.alpha!r}")
        self.zero_count += other.zero_count
        bins = self.bins
        for key, count in other.bins.items():
            bins[key] = bins.get(key, 0) + count
        return self

    # -- serialisation ----------------------------------------------------

    def payload(self):
        """JSON-ready dict; ``bins`` sorted by key for determinism."""
        return {
            "alpha": self.alpha,
            "zero": self.zero_count,
            "bins": [[key, self.bins[key]] for key in sorted(self.bins)],
        }

    @classmethod
    def from_payload(cls, payload):
        sketch = cls(alpha=payload["alpha"])
        sketch.zero_count = payload["zero"]
        sketch.bins = {key: count for key, count in payload["bins"]}
        return sketch

    def __len__(self):
        return self.count

    def __repr__(self):
        return (f"<DDSketch alpha={self.alpha} n={self.count} "
                f"bins={len(self.bins)}>")

