"""API-quality rules: failure modes that corrupt results silently.

A mutable default argument shares state across calls; a bare or
swallowing ``except`` in a simulation hot path turns a modelling bug
into a silently wrong RTT sample; a ``print()`` in library code pollutes
the reports the CLI renders.  None of these crash tests — which is
exactly why they are lint rules.
"""

import ast

from repro.lint.registry import Rule, register_rule
from repro.lint.rules_determinism import SIM_PACKAGES

#: Zero-argument constructor calls that create fresh mutables.
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})


@register_rule
class MutableDefaultRule(Rule):
    """RL201: no mutable default arguments on public functions."""

    id = "RL201"
    category = "api"
    severity = "error"
    description = ("mutable default argument ([]/{}/set()) on a public "
                   "function — shared across calls; default to None and "
                   "build inside the body")

    @classmethod
    def _is_mutable(cls, node):
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _MUTABLE_CALLS
                and not node.args and not node.keywords)

    def visit(self, tree, source, path):
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_") and node.name != "__init__":
                continue
            defaults = list(node.args.defaults)
            defaults += [d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if self._is_mutable(default):
                    findings.append(self.finding(
                        path, default.lineno,
                        f"mutable default argument in {node.name}(): the "
                        "object is created once at def time and shared "
                        "across calls — use None and construct in the "
                        "body", source))
        return findings


@register_rule
class SwallowedExceptionRule(Rule):
    """RL202: no bare/swallowing excepts in simulation hot paths."""

    id = "RL202"
    category = "api"
    severity = "error"
    description = ("bare 'except:' or silently swallowed broad exception "
                   "in simulation code — a modelling bug becomes a wrong "
                   "sample; catch specific errors or re-raise")
    packages = SIM_PACKAGES

    @staticmethod
    def _swallows(handler):
        return all(isinstance(stmt, ast.Pass)
                   or (isinstance(stmt, ast.Expr)
                       and isinstance(stmt.value, ast.Constant)
                       and stmt.value.value is Ellipsis)
                   for stmt in handler.body)

    @staticmethod
    def _is_broad(handler):
        return (isinstance(handler.type, ast.Name)
                and handler.type.id in ("Exception", "BaseException"))

    def visit(self, tree, source, path):
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(self.finding(
                    path, node.lineno,
                    "bare 'except:' catches everything including "
                    "KeyboardInterrupt — name the exception types this "
                    "handler can actually recover from", source))
            elif self._is_broad(node) and self._swallows(node):
                findings.append(self.finding(
                    path, node.lineno,
                    f"'except {node.type.id}: pass' swallows every "
                    "failure in a simulation path — handle or re-raise "
                    "so bad samples cannot pass silently", source))
        return findings


@register_rule
class PrintInLibraryRule(Rule):
    """RL203: no ``print()`` outside the CLI entry points."""

    id = "RL203"
    category = "api"
    severity = "error"
    description = ("print() in library code — return strings or record "
                   "through sim.metrics / sim.spans; only the CLI prints")
    exclude = ("cli.py", "__main__.py")

    def visit(self, tree, source, path):
        findings = []
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                findings.append(self.finding(
                    path, node.lineno,
                    "print() in library code: return the text (the CLI "
                    "prints) or record it via sim.metrics / sim.spans so "
                    "output stays capturable and deterministic", source))
        return findings
