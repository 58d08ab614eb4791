"""Observability-guard rules ``RL001``/``RL002`` (run by ``repro lint``).

Instrumentation follows the ``if sim.metrics.enabled:`` idiom so the
disabled path costs exactly one attribute check (docs/OBSERVABILITY.md).
``RL001`` is the original lint — an observability call site with no
``.enabled`` guard on the same line or within the preceding
``GUARD_WINDOW`` lines — rehosted on the engine, so the regexes here
are the single source of truth.  ``RL002`` closes the suppression loophole: a
``# obs: caller-guarded`` pragma on a line with no observability call
is rot and gets flagged.
"""

import re

from repro.lint.pragmas import OBS_PRAGMA, has_obs_pragma
from repro.lint.registry import Rule, register_rule, source_lines

#: How many lines above a call site may hold its ``.enabled`` guard.
GUARD_WINDOW = 6

#: Observability call sites: the recorder attribute plus a recording
#: method.  Matches ``self.metrics.inc(...)``,
#: ``sim.spans.record(...)`` and the like; plain method *definitions*
#: never match.
CALL_RE = re.compile(
    r"\b(?:metrics\.(?:inc|observe|set_gauge|counter|gauge|histogram)"
    r"|spans\.(?:record|begin|end))\("
)

#: A guard is a check of the recorder's ``enabled`` flag specifically —
#: other ``.enabled`` attributes (e.g. a PSM config) do not count.
GUARD_RE = re.compile(r"\b(?:metrics|spans)\.enabled\b")


@register_rule
class ObsGuardRule(Rule):
    """RL001: every observability call site sits behind ``.enabled``."""

    id = "RL001"
    category = "obs-guard"
    severity = "error"
    description = ("observability call site with no "
                   "(metrics|spans).enabled guard on the same line "
                   f"or the {GUARD_WINDOW} lines above it")
    # The obs package implements the recorders (its internals run under
    # the recorders' own ``enabled`` checks); the lint package quotes
    # the call patterns it greps for in docstrings and regexes.
    exclude = ("obs/", "lint/")

    def visit(self, tree, source, path):
        findings = []
        lines = source_lines(source)
        for index, line in enumerate(lines):
            if not CALL_RE.search(line):
                continue
            if has_obs_pragma(line):
                continue
            window = lines[max(0, index - GUARD_WINDOW):index + 1]
            if any(GUARD_RE.search(candidate) for candidate in window):
                continue
            findings.append(self.finding(
                path, index + 1,
                "unguarded observability call: wrap it in "
                "'if <sim>.<recorder>.enabled:' or mark it "
                f"'{OBS_PRAGMA}'", source))
        return findings


@register_rule
class UnusedObsPragmaRule(Rule):
    """RL002: a caller-guarded pragma must sit on an actual call site."""

    id = "RL002"
    category = "obs-guard"
    severity = "error"
    description = (f"'{OBS_PRAGMA}' pragma on a line with no "
                   "observability call — stale suppression")
    exclude = ("obs/", "lint/")

    def visit(self, tree, source, path):
        findings = []
        for index, line in enumerate(source_lines(source)):
            if has_obs_pragma(line) and not CALL_RE.search(line):
                findings.append(self.finding(
                    path, index + 1,
                    f"unused '{OBS_PRAGMA}' pragma: no observability "
                    "call on this line — delete the pragma", source))
        return findings
