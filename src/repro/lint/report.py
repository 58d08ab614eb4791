"""Reporters: text for humans, JSON for pipelines.

Both render the same :class:`~repro.lint.engine.LintResult`; the JSON
document is stable (sorted findings, fixed key order via the finding
dicts) so it can be golden-file tested and diffed in CI.  A CI-style
invocation:

    repro lint --format json | python -m json.tool
"""

import json

from repro.lint.findings import INTERNAL_RULE_ID
from repro.lint.registry import RULES

TOOL_NAME = "repro.lint"


def _tool_version():
    from repro import __version__
    return __version__


def rule_descriptors():
    """Metadata rows for every rule (plus the engine's RL000), by id."""
    rows = [{"id": INTERNAL_RULE_ID, "category": "internal",
             "severity": "error",
             "description": ("the lint engine itself: unparseable file "
                             "or crashed rule (rule isolation)")}]
    rows += [{"id": rule.id, "category": rule.category,
              "severity": rule.severity, "description": rule.description}
             for rule in (RULES[rule_id] for rule_id in sorted(RULES))]
    return rows


def summary_counts(result):
    return {
        "files_scanned": result.files_scanned,
        "findings": len(result.findings),
        "suppressed": len(result.suppressed),
    }


def render_text(result):
    """Human-oriented report, one line per finding plus a verdict."""
    lines = [finding.describe() for finding in result.findings]
    counts = summary_counts(result)
    if result.findings:
        lines.append(f"{counts['findings']} finding(s) in "
                     f"{counts['files_scanned']} file(s)"
                     f" ({counts['suppressed']} suppressed)")
    else:
        lines.append(f"lint clean: {counts['files_scanned']} file(s), "
                     f"rules {', '.join(result.rules_run)}"
                     f" ({counts['suppressed']} suppressed)")
    return "\n".join(lines)


def render_json(result):
    """Machine-oriented JSON document (stable ordering, 2-space indent)."""
    payload = {
        "tool": {"name": TOOL_NAME, "version": _tool_version()},
        "rules": rule_descriptors(),
        "summary": summary_counts(result),
        "findings": [finding.to_dict() for finding in result.findings],
        "suppressed": [finding.to_dict() for finding in result.suppressed],
    }
    return json.dumps(payload, indent=2)


RENDERERS = {
    "text": render_text,
    "json": render_json,
}


def render(result, fmt="text"):
    """Render ``result`` in the named format (text, json)."""
    try:
        return RENDERERS[fmt](result)
    except KeyError:
        raise ValueError(f"unknown report format {fmt!r}; expected one of "
                         f"{sorted(RENDERERS)}") from None
