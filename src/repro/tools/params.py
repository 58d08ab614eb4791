"""Range rules for tool parameters.

One table serves both ways a tool is configured: a scenario's
``tool_params`` (checked by
:meth:`~repro.testbed.scenario.ScenarioSpec.validate` before a cell is
built) and a tool constructed directly, which checks the keys whose
out-of-range values would otherwise run unbounded.
"""

import sys

from repro.tools.mobiperf import METHODS

#: AcuteMon's probe kinds (:class:`~repro.core.acutemon.AcuteMonConfig`).
PROBE_METHODS = ("tcp_syn", "http", "icmp", "udp")


def _within(low, high):
    return lambda value: low <= value <= high


_PORT = (_within(1, 0xFFFF), "a port within [1, 65535]")
#: What one IPv4 datagram carries past a UDP or ICMP header.
_PAYLOAD = (_within(0, 65507), "within [0, 65507]")
_POSITIVE = (lambda value: 0.0 < value <= sys.float_info.max,
             "finite and > 0")

#: Range rules by key, ``(test, what the value must be)``; every tool
#: that takes a key shares its rule.
TOOL_PARAM_RULES = {
    "timeout": _POSITIVE, "probe_timeout": _POSITIVE,
    "dpre": _POSITIVE, "db": _POSITIVE,
    "probe_gap": (_within(0.0, sys.float_info.max), "finite and >= 0"),
    "payload_size": _PAYLOAD, "background_payload": _PAYLOAD,
    "request_size": (_within(1, 0xFFFF), "within [1, 65535]"),
    "warmup_ttl": (_within(1, 255), "within [1, 255]"),
    "port": _PORT, "http_port": _PORT, "closed_port": _PORT,
    "udp_echo_port": _PORT, "warmup_port": _PORT,
    "method": (METHODS.__contains__, f"one of {list(METHODS)}"),
    "probe_method": (PROBE_METHODS.__contains__,
                     f"one of {list(PROBE_METHODS)}"),
}


def check_tool_params(**tool_params):
    """Raise ``ValueError`` naming the first out-of-range value (by key);
    keys without a rule pass."""
    for key, value in sorted(tool_params.items()):
        rule = TOOL_PARAM_RULES.get(key)
        if rule is not None and not rule[0](value):
            raise ValueError(f"{key} must be {rule[1]}, got {value!r}")
