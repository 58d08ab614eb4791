"""Shared machinery for the measurement tools.

Every tool produces :class:`RttSample` objects and reports user-level
timestamps into a :class:`~repro.core.measurement.ProbeCollector`, so the
multi-layer overhead analysis works identically across tools.
"""


class RttSample:
    """One user-level RTT measurement."""

    __slots__ = ("probe_id", "sent_at", "rtt")

    def __init__(self, probe_id, sent_at, rtt):
        self.probe_id = probe_id
        self.sent_at = sent_at
        self.rtt = rtt  # seconds, or None when the probe was lost

    @property
    def lost(self):
        return self.rtt is None

    def __repr__(self):
        rtt = "lost" if self.lost else f"{self.rtt * 1e3:.2f}ms"
        return f"<RttSample {self.probe_id} {rtt}>"


def run_until_complete(sim, start, name, deadline=None):
    """Start a tool and run ``sim`` until the tool reports completion.

    ``start(on_complete)`` kicks the tool off; its ``on_complete``
    stops the simulator, so the whole measurement runs inside one
    :meth:`~repro.sim.scheduler.Simulator.run` (batched train ticks
    included) and the clock stays at the completing event.  When
    completion already happened inside ``start`` the simulator is not
    run at all.  Raises ``RuntimeError`` when the event heap empties
    first ("stalled") or when the next event lies beyond ``deadline``.
    Returns whatever the tool passed to ``on_complete``.
    """
    done = []

    def on_complete(result):
        done.append(result)
        sim.stop()

    start(on_complete)
    while not done:
        sim.run(until=deadline)
        if done:
            break
        next_time = sim.peek()
        if next_time is None:
            raise RuntimeError(f"{name} stalled: event heap empty")
        if deadline is not None and next_time > deadline:
            raise RuntimeError(f"{name} did not finish by {deadline}s")
    return done[0]


class MeasurementTool:
    """Base class: lifecycle, runtime override, and synchronous driving."""

    #: Runtime the tool's user space executes in ('native' or 'dalvik').
    runtime = "native"

    def __init__(self, phone, collector, target_ip, name=""):
        self.phone = phone
        self.sim = phone.sim
        self.collector = collector
        self.target_ip = target_ip
        self.name = name or type(self).__name__
        self.samples = []
        self.running = False
        self._on_complete = None
        self._saved_runtime = None

    # -- lifecycle --------------------------------------------------------

    def start(self, count, on_complete=None):
        """Begin a measurement of ``count`` probes (asynchronous)."""
        if self.running:
            raise RuntimeError(f"{self.name} already running")
        self.running = True
        self.samples = []
        self._on_complete = on_complete
        self._saved_runtime = self.phone.runtime
        self.phone.runtime = self.runtime
        self._begin(count)

    def run_sync(self, count, deadline=None):
        """Start and drive the simulator until the tool completes.

        Convenience for experiments and benchmarks; returns the samples.
        """
        run_until_complete(
            self.sim,
            lambda on_complete: self.start(count, on_complete=on_complete),
            self.name, deadline)
        return self.samples

    def _begin(self, count):
        raise NotImplementedError

    def _finish(self):
        self.running = False
        self.phone.runtime = self._saved_runtime
        self._cleanup()
        if self._on_complete is not None:
            self._on_complete(self.samples)

    def _cleanup(self):
        """Release sockets/handles; overridden as needed."""

    # -- results ------------------------------------------------------------

    def rtts(self):
        """Measured RTTs (seconds), losses excluded."""
        return [sample.rtt for sample in self.samples if not sample.lost]

    def loss_count(self):
        return sum(1 for sample in self.samples if sample.lost)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} samples={len(self.samples)}>"
