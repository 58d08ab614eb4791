"""Exact call counters for structural perf gates.

A wall-clock ratio cannot resolve a few percent on a shared host: the
same A/B pair can measure anywhere from much faster to twice as slow
from one run to the next.  What a hot path *does* can be counted
instead.  :func:`count_calls` runs a callable under
:func:`sys.setprofile` and counts, by callee, the Python functions it
enters (``call`` events) and the builtin/C functions it calls
(``c_call`` events); under :func:`sys.settrace` it also counts the
source lines each Python function executes (``line`` events), which is
what catches a loop whose body makes no call.  The counts are
deterministic, so a gate can pin them exactly: one extra helper call or
one added loop changes them, and host noise never does.

:func:`calls_per_op` divides out the harness's own calls and gives the
cost of one operation, e.g. one ``Histogram.observe``.  The same
counters serve I/O gates: ``count_calls(store.put, ...).c["io.open"]``
is the number of files one put opens.
"""

import gc
import sys
from collections import Counter


class CallCount:
    """Calls made by one run, keyed by callee name.

    ``python`` maps ``module.qualname`` of each Python function entered
    to its count; ``c`` maps ``module.qualname`` of each builtin called
    (``math.log``, ``dict.get``, ``io.open``) to its count; ``lines``
    maps each Python function to the line events it executed.
    """

    __slots__ = ("python", "c", "lines")

    def __init__(self, python, c, lines):
        self.python = python
        self.c = c
        self.lines = lines

    @property
    def calls(self):
        return sum(self.python.values())

    @property
    def c_calls(self):
        return sum(self.c.values())

    def __repr__(self):
        return (f"<CallCount calls={self.calls} {dict(self.python)} "
                f"c_calls={self.c_calls} {dict(self.c)} "
                f"lines={dict(self.lines)}>")


def _python_name(frame):
    return f"{frame.f_globals.get('__name__')}.{frame.f_code.co_qualname}"


def _c_name(func):
    module = getattr(func, "__module__", None)
    if module is None:
        owner = getattr(func, "__self__", None)
        module = type(owner).__module__ if owner is not None else None
    qualname = getattr(func, "__qualname__", None) or repr(func)
    if module in (None, "builtins"):
        return qualname
    return f"{module}.{qualname}"


def count_calls(fn, *args, **kwargs):
    """A :class:`CallCount` of ``fn(*args, **kwargs)``.

    ``fn``'s own call is included; removing the profiler and tracer is
    not.  The garbage collector is paused meanwhile, so a collection
    (and the ``gc.callbacks`` a test library hooks to it) cannot land
    inside the count.  Any profiler or tracer already installed (a
    coverage tool's) is put back afterwards.
    """
    python, c, lines = Counter(), Counter(), Counter()

    def profile(frame, event, arg):
        if event == "call":
            python[_python_name(frame)] += 1
        elif event == "c_call":
            c[_c_name(arg)] += 1

    def trace(frame, event, arg):
        name = _python_name(frame)

        def trace_lines(frame, event, arg):
            if event == "line":
                lines[name] += 1
            return trace_lines

        return trace_lines

    previous_profile, previous_trace = sys.getprofile(), sys.gettrace()
    collecting = gc.isenabled()
    gc.disable()
    sys.settrace(trace)
    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(previous_profile)
        sys.settrace(previous_trace)
        if collecting:
            gc.enable()
    c[_c_name(sys.setprofile)] -= 1
    return CallCount(+python, +c, +lines)


def calls_per_op(op, inputs):
    """The :class:`CallCount` of one ``op(value)``, for ``value`` in
    ``inputs``.

    Counts a loop over every input and a loop over none, and divides
    the difference by ``len(inputs)``; the loop's own calls and lines
    are left out.
    Raises :class:`AssertionError` if some count does not divide
    evenly: a cost that varies with the input is not one number.
    """
    inputs = list(inputs)

    def loop(values):
        for value in values:
            op(value)

    whole, empty = count_calls(loop, inputs), count_calls(loop, ())
    per_op = []
    for kind in ("python", "c", "lines"):
        total = getattr(whole, kind) - getattr(empty, kind)
        total.pop(f"{__name__}.{loop.__qualname__}", None)
        uneven = {name: n for name, n in total.items() if n % len(inputs)}
        assert not uneven, (
            f"{kind} counts vary across inputs: {uneven} over "
            f"{len(inputs)} inputs")
        per_op.append(Counter({name: n // len(inputs)
                               for name, n in total.items()}))
    return CallCount(*per_op)
