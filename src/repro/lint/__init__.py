"""repro.lint — plugin-based static analysis for the simulator's contracts.

The repo's headline claims (bit-identical serial vs parallel campaigns,
~zero-cost disabled observability, a faithful Tprom/PSM delay model)
rest on coding contracts: RNG through named ``repro.sim.rng`` streams,
no wall-clock reads in simulation code, ``.enabled``-guarded
observability call sites, buildable registry entries.  This package
turns those conventions into checked rules:

* :mod:`repro.lint.registry` — the ``Rule`` / ``ProjectRule`` protocol
  and the rule registry (``register_rule``).
* :mod:`repro.lint.engine` — single-parse-per-file driver with rule
  isolation (a crashing rule becomes an ``RL000`` finding).
* :mod:`repro.lint.pragmas` — ``# lint: disable=RLxxx`` line pragmas
  and the ``# obs: caller-guarded`` observability pragma.
* :mod:`repro.lint.report` — text / JSON reporters.
* rule packs: :mod:`~repro.lint.rules_obs` (RL001/RL002),
  :mod:`~repro.lint.rules_determinism` (RL101–RL105, RL107),
  :mod:`~repro.lint.rules_names` (RL106),
  :mod:`~repro.lint.rules_quality` (RL201–RL203),
  :mod:`~repro.lint.rules_registry` (RL301).

Run it as ``repro lint [--format text|json]``.  A reviewed
``# lint: disable=`` pragma is the only way to exempt a finding; the
rule catalog and the workflow live in docs/STATIC_ANALYSIS.md.
"""

from repro.lint.engine import LintResult, lint_file, run_lint
from repro.lint.findings import Finding, internal_finding
from repro.lint.registry import (
    RULES, ProjectRule, Rule, all_rules, register_rule,
)
from repro.lint.report import (
    render, render_json, render_text, rule_descriptors,
)

# Importing the rule packs registers the built-in rules.
from repro.lint import rules_determinism  # noqa: F401  (registers RL1xx)
from repro.lint import rules_names  # noqa: F401  (registers RL106)
from repro.lint import rules_obs  # noqa: F401  (registers RL001/RL002)
from repro.lint import rules_quality  # noqa: F401  (registers RL2xx)
from repro.lint import rules_registry  # noqa: F401  (registers RL301)

__all__ = [
    "Finding",
    "LintResult",
    "ProjectRule",
    "RULES",
    "Rule",
    "all_rules",
    "internal_finding",
    "lint_file",
    "register_rule",
    "render",
    "render_json",
    "render_text",
    "rule_descriptors",
    "run_lint",
]
