"""Finding: the unit of output every lint rule produces.

A finding pins a rule violation to a file and line and carries the
stripped source line as a snippet.
"""

import dataclasses

#: Finding severities, most severe first.  ``error`` findings fail the
#: run; ``warning`` findings are reported but advisory (the engine still
#: exits non-zero on them by default — the split exists for reporters,
#: not for a soft-fail mode).
SEVERITIES = ("error", "warning")

#: Rule id reserved for the engine itself: unparseable files and rules
#: that crash are reported as ``RL000`` findings instead of killing the
#: run (rule isolation).
INTERNAL_RULE_ID = "RL000"


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one location.

    ``path`` is POSIX-style and relative to the lint root, so reports
    are machine-independent.
    """

    rule_id: str
    path: str
    line: int
    message: str
    category: str = "lint"
    severity: str = "error"
    snippet: str = ""

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def sort_key(self):
        return (self.path, self.line, self.rule_id, self.message)

    def to_dict(self):
        """JSON-ready representation (used by the JSON reporter)."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "severity": self.severity,
            "category": self.category,
            "message": self.message,
            "snippet": self.snippet,
        }

    def describe(self):
        return (f"{self.path}:{self.line}: {self.rule_id} "
                f"[{self.severity}] {self.message}")


def internal_finding(path, message, line=1):
    """An ``RL000`` finding: the engine reporting its own trouble."""
    return Finding(INTERNAL_RULE_ID, path, line, message,
                   category="internal", severity="error")
