"""The lint driver: parse once, run every rule, never die mid-run.

Per file the engine reads and parses the source exactly once, hands the
same ``(tree, source, path)`` triple to every applicable file rule,
then applies per-line ``# lint: disable=`` pragmas.  Project rules
(registry contract) run once per invocation.  Rules are *isolated*: a rule that raises is reported as an
``RL000`` internal-error finding on that file and the run continues —
one buggy rule must not hide every other rule's findings.
"""

import ast
import dataclasses
import pathlib

from repro.lint.findings import internal_finding
from repro.lint.pragmas import disabled_map, is_suppressed
from repro.lint.registry import ProjectRule, Rule, all_rules, logical_parts


@dataclasses.dataclass
class LintResult:
    """Everything one lint invocation learned."""

    findings: list = dataclasses.field(default_factory=list)
    suppressed: list = dataclasses.field(default_factory=list)
    files_scanned: int = 0
    rules_run: tuple = ()

    @property
    def exit_code(self):
        return 1 if self.findings else 0

    def merge(self, other):
        """Fold another result in (multi-root CLI invocations)."""
        self.findings += other.findings
        self.suppressed += other.suppressed
        self.files_scanned += other.files_scanned
        self.rules_run = tuple(sorted(set(self.rules_run)
                                      | set(other.rules_run)))
        return self


def iter_python_files(root):
    """Yield the .py files under ``root`` in sorted (deterministic) order."""
    root = pathlib.Path(root)
    if root.is_file():
        yield root
        return
    yield from sorted(root.rglob("*.py"))


def lint_file(path, rules, relative_to=None):
    """Run the file rules on one file: ``(findings, suppressed)``.

    The file is read and parsed exactly once; every rule sees the same
    tree.  Findings whose line carries a matching ``# lint: disable=``
    pragma come back in the ``suppressed`` list instead.
    """
    path = pathlib.Path(path)
    rel = path.relative_to(relative_to) if relative_to else path
    rel_posix = rel.as_posix()
    findings, suppressed = [], []
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, UnicodeDecodeError, ValueError) as exc:
        line = getattr(exc, "lineno", None) or 1
        findings.append(internal_finding(
            rel_posix, f"could not parse file: {exc!r}", line=line))
        return findings, suppressed
    pragmas = disabled_map(source)
    logical = logical_parts(path)
    for rule in rules:
        if not rule.applies_to(logical):
            continue
        try:
            produced = rule.visit(tree, source, rel_posix)
        except Exception as exc:  # noqa: BLE001 - rule isolation by design
            findings.append(internal_finding(
                rel_posix,
                f"rule {rule.id} ({type(rule).__name__}) crashed: "
                f"{exc!r} — other rules' findings are unaffected"))
            continue
        for finding in produced:
            if is_suppressed(finding, pragmas):
                suppressed.append(finding)
            else:
                findings.append(finding)
    return findings, suppressed


def run_lint(root, rules=None, include_project_rules=True):
    """Lint one tree (or file) and return a :class:`LintResult`.

    ``rules`` defaults to every registered rule; pass an explicit list
    to run a subset (the rule-pack tests do).
    """
    root = pathlib.Path(root).resolve()
    selected = all_rules() if rules is None else list(rules)
    file_rules = [rule for rule in selected if isinstance(rule, Rule)]
    project_rules = [rule for rule in selected
                     if isinstance(rule, ProjectRule)]
    relative_to = root if root.is_dir() else root.parent

    result = LintResult(rules_run=tuple(rule.id for rule in selected))
    for path in iter_python_files(root):
        findings, suppressed = lint_file(path, file_rules,
                                         relative_to=relative_to)
        result.findings += findings
        result.suppressed += suppressed
        result.files_scanned += 1
    if include_project_rules:
        for rule in project_rules:
            try:
                result.findings += rule.check(root)
            except Exception as exc:  # noqa: BLE001 - rule isolation
                result.findings.append(internal_finding(
                    ".", f"project rule {rule.id} "
                         f"({type(rule).__name__}) crashed: {exc!r}"))
    result.findings.sort(key=lambda f: f.sort_key())
    return result
