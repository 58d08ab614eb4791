"""Suppression pragmas.

Two comment pragmas are recognised, both tolerant of flexible
whitespace and trailing prose so a rationale can live on the same line:

* ``# lint: disable=RL101`` (or ``=RL101,RL203``, or ``=all``) —
  suppress those rules' findings *on that physical line only*.  Always
  follow the pragma with a reason; suppressions without one read as
  mistakes.
* ``# obs: caller-guarded`` — the observability-guard pragma of rule
  ``RL001`` (``repro lint``): the ``.enabled`` check for
  this call site lives in its (sole) caller.  ``RL002`` flags the
  pragma when no observability call shares the line, so stale
  suppressions cannot rot in place.
"""

import re

from repro.lint.registry import source_lines

#: ``# lint: disable=RL001`` / ``=RL001 , rl203`` / ``=all`` — ids are
#: captured case-insensitively; anything after the id list is ignored,
#: so a rationale can trail the pragma.
DISABLE_RE = re.compile(
    r"#\s*lint:\s*disable\s*=\s*"
    r"(all\b|[A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*)",
    re.IGNORECASE,
)

#: The observability caller-guarded pragma, whitespace- and
#: trailing-text-tolerant: ``#obs:caller-guarded``, ``#  obs:
#: caller-guarded (guard in run())`` all match.
OBS_PRAGMA_RE = re.compile(r"#\s*obs:\s*caller-guarded\b", re.IGNORECASE)

#: Canonical spelling, for messages and docs.
OBS_PRAGMA = "# obs: caller-guarded"


def disabled_ids(line):
    """Rule ids disabled on this source line (``{"ALL"}`` for ``=all``)."""
    match = DISABLE_RE.search(line)
    if not match:
        return frozenset()
    raw = match.group(1)
    if raw.lower() == "all":
        return frozenset({"ALL"})
    return frozenset(token.strip().upper() for token in raw.split(","))


def disabled_map(source):
    """``{lineno: frozenset(ids)}`` for every pragma-bearing line (1-based)."""
    out = {}
    for index, line in enumerate(source_lines(source), start=1):
        if "#" not in line:
            continue
        ids = disabled_ids(line)
        if ids:
            out[index] = ids
    return out


def has_obs_pragma(line):
    """Whether the line carries the caller-guarded observability pragma."""
    return bool(OBS_PRAGMA_RE.search(line))


def is_suppressed(finding, pragma_map):
    """Whether a per-line pragma suppresses this finding."""
    ids = pragma_map.get(finding.line)
    if not ids:
        return False
    return "ALL" in ids or finding.rule_id in ids
