"""Determinism rules: the contracts behind bit-identical campaigns.

The simulator promises that the same master seed reproduces the same
run, serial or parallel (docs/ARCHITECTURE.md).  That only holds while
simulation code draws randomness from named ``repro.sim.rng`` streams
and reads time from ``sim.now`` — never from the process's wall clock
or the ``random`` module's shared global state.  These rules turn that
convention into a checked property across the simulation packages.
"""

import ast

from repro.lint.registry import Rule, register_rule

#: Subpackages whose code runs under (or builds) the simulated clock.
SIM_PACKAGES = frozenset({
    "sim", "core", "phone", "wifi", "net", "testbed", "cellular",
    "tools", "sniffer",
})

#: ``time`` module functions that read the host clock.
WALL_CLOCK_TIME_FNS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
    "thread_time", "thread_time_ns",
})

#: ``datetime``/``date`` constructors that read the host clock.
WALL_CLOCK_DATETIME_FNS = frozenset({"now", "utcnow", "today"})


def _dotted(node):
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _from_imports(tree, module):
    """Names bound by ``from <module> import ...`` (alias-aware)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                names.add((alias.asname or alias.name, alias.name))
    return names


class _SimScopedRule(Rule):
    packages = SIM_PACKAGES


@register_rule
class WallClockRule(_SimScopedRule):
    """RL101: no host-clock reads inside simulation packages."""

    id = "RL101"
    category = "determinism"
    severity = "error"
    description = ("wall-clock read (time.time()/perf_counter()/"
                   "datetime.now()/...) in simulation code — use the "
                   "simulated clock (sim.now)")

    def visit(self, tree, source, path):
        findings = []
        time_aliases = {bound for bound, original
                        in _from_imports(tree, "time")
                        if original in WALL_CLOCK_TIME_FNS}
        datetime_names = {bound for bound, original
                          in _from_imports(tree, "datetime")
                          if original in ("datetime", "date")}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            if name is None:
                continue
            flagged = None
            head, _, tail = name.rpartition(".")
            if head == "time" and tail in WALL_CLOCK_TIME_FNS:
                flagged = f"time.{tail}()"
            elif (tail in WALL_CLOCK_DATETIME_FNS and head
                  and (head.split(".")[0] == "datetime"
                       or head in datetime_names)):
                flagged = f"{name}()"
            elif not head and name in time_aliases:
                flagged = f"{name}()"
            if flagged:
                findings.append(self.finding(
                    path, node.lineno,
                    f"wall-clock read {flagged} in simulation code: "
                    "derive timing from the simulated clock (sim.now) "
                    "so runs stay reproducible", source))
        return findings


@register_rule
class UnseededRandomRule(_SimScopedRule):
    """RL102: randomness flows through named ``repro.sim.rng`` streams."""

    id = "RL102"
    category = "determinism"
    severity = "error"
    description = ("module-level random.* use (shared global state) or "
                   "unseeded random.Random() in simulation code — draw "
                   "from sim.rng.stream(name) instead")

    _MESSAGE = ("use a named stream from the simulator's RNG registry "
                "(sim.rng.stream(name)) so draws are seeded and "
                "component-isolated")

    def visit(self, tree, source, path):
        findings = []
        random_fn_aliases = {bound for bound, original
                             in _from_imports(tree, "random")
                             if original != "Random"}
        random_class_aliases = {bound for bound, original
                                in _from_imports(tree, "random")
                                if original == "Random"}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "random"):
                bad = sorted(alias.name for alias in node.names
                             if alias.name != "Random")
                if bad:
                    findings.append(self.finding(
                        path, node.lineno,
                        f"from random import {', '.join(bad)}: "
                        f"{self._MESSAGE}", source))
                continue
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            if name is None:
                continue
            head, _, tail = name.rpartition(".")
            if head == "random":
                if tail == "Random":
                    if not node.args and not node.keywords:
                        findings.append(self.finding(
                            path, node.lineno,
                            "unseeded random.Random(): seeds from OS "
                            f"entropy — {self._MESSAGE}", source))
                else:
                    findings.append(self.finding(
                        path, node.lineno,
                        f"module-level random.{tail}() uses the shared "
                        f"global RNG — {self._MESSAGE}", source))
            elif (not head and name in random_class_aliases
                  and not node.args and not node.keywords):
                findings.append(self.finding(
                    path, node.lineno,
                    f"unseeded {name}(): seeds from OS entropy — "
                    f"{self._MESSAGE}", source))
            elif not head and name in random_fn_aliases:
                findings.append(self.finding(
                    path, node.lineno,
                    f"{name}() drawn from the random module's shared "
                    f"global RNG — {self._MESSAGE}", source))
        return findings


@register_rule
class NegativeDelayRule(_SimScopedRule):
    """RL103: no ``schedule()`` call with a negative delay literal."""

    id = "RL103"
    category = "determinism"
    severity = "error"
    description = ("Simulator.schedule() with a negative delay literal — "
                   "raises SimTimeError at runtime; schedule relative to "
                   "now with a non-negative delay")

    @staticmethod
    def _literal_value(node):
        if (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
                and isinstance(node.operand, ast.Constant)
                and isinstance(node.operand.value, (int, float))):
            return -node.operand.value
        if (isinstance(node, ast.Constant)
                and isinstance(node.value, (int, float))
                and not isinstance(node.value, bool)):
            return node.value
        return None

    def visit(self, tree, source, path):
        findings = []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "schedule"):
                continue
            delay = node.args[0] if node.args else None
            for keyword in node.keywords:
                if keyword.arg == "delay":
                    delay = keyword.value
            if delay is None:
                continue
            value = self._literal_value(delay)
            if value is not None and value < 0:
                findings.append(self.finding(
                    path, node.lineno,
                    f"schedule() with negative delay literal {value!r}: "
                    "the scheduler raises SimTimeError on negative "
                    "delays — events cannot fire in the past", source))
        return findings


@register_rule
class SchedulerInternalsRule(_SimScopedRule):
    """RL105: the scheduler's queue layout is private to its home module.

    PR 6 replaced the binary heap behind :class:`repro.sim.Simulator`
    with a hierarchical timing wheel.  The swap was possible because no
    caller reached into ``sim._heap`` — and stays possible only while
    that holds for the wheel fields too.  Code that needs queue state
    has public API: ``pending()``, ``peek()``, ``wheel_stats()``.
    """

    id = "RL105"
    category = "determinism"
    severity = "error"
    description = ("direct access to scheduler queue internals (._heap / "
                   "._wheel_* / ._canceled_in_heap) outside the scheduler "
                   "core — use the public Simulator API (schedule/cancel/"
                   "pending()/peek()/wheel_stats())")
    # The scheduler core: the wheel lives in scheduler.py; Event.cancel
    # (events.py) maintains the lazy-cancellation counter.
    exclude = ("sim/scheduler.py", "sim/events.py")

    _EXACT = frozenset({"_heap", "_canceled_in_heap"})
    _PREFIX = "_wheel_"

    def visit(self, tree, source, path):
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            attr = node.attr
            if attr in self._EXACT or attr.startswith(self._PREFIX):
                findings.append(self.finding(
                    path, node.lineno,
                    f"direct access to scheduler internal .{attr}: the "
                    "event-queue layout (timing wheel) is private to "
                    "repro.sim.scheduler — read queue state through "
                    "pending()/peek()/wheel_stats() instead", source))
        return findings


@register_rule
class RawCheckpointWriteRule(_SimScopedRule):
    """RL104: checkpoint/journal writes go through the atomic helper.

    The resume and cache guarantees — a crash can only tear a record
    file's final line — hold because every record is exactly one
    ``write()`` of a complete JSONL line followed by a ``flush()``,
    which is what ``repro.testbed.resilience.append_journal_record``
    does.  ``CheckpointJournal`` is the single owner of cell record
    files: a campaign checkpoint is one journal and a ``ResultStore``
    segment is another, so both are written through the helper.  A raw
    ``handle.write()`` / ``json.dump()`` against a journal or checkpoint
    handle can interleave partial lines (or buffer them past a crash),
    silently corrupting every later resume.  The helper's home module is
    the one place allowed to touch the handle directly.
    """

    id = "RL104"
    category = "determinism"
    severity = "error"
    description = ("raw write to a checkpoint/journal handle bypasses "
                   "the atomic-append helper "
                   "(resilience.append_journal_record) that "
                   "CheckpointJournal, the single record-file owner, "
                   "writes through — a torn or buffered record "
                   "corrupts resume")
    exclude = ("testbed/resilience.py",)

    _NEEDLES = ("journal", "checkpoint")

    @classmethod
    def _names_journal(cls, node):
        name = _dotted(node)
        if name is None:
            return False
        lowered = name.lower()
        return any(needle in lowered for needle in cls._NEEDLES)

    def visit(self, tree, source, path):
        findings = []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            if attr in ("write", "writelines"):
                if self._names_journal(node.func.value):
                    findings.append(self.finding(
                        path, node.lineno,
                        f"raw .{attr}() on a checkpoint/journal handle: "
                        "append records through "
                        "resilience.append_journal_record so a crash "
                        "can only tear the final line", source))
            elif attr == "dump" and _dotted(node.func) == "json.dump":
                targets = list(node.args) + [keyword.value
                                             for keyword in node.keywords]
                if any(self._names_journal(target) for target in targets):
                    findings.append(self.finding(
                        path, node.lineno,
                        "json.dump() straight into a checkpoint/journal "
                        "handle: append records through "
                        "resilience.append_journal_record so a crash "
                        "can only tear the final line", source))
        return findings


@register_rule
class RawStorePathOpenRule(_SimScopedRule):
    """RL107: record files belong to the journal's home module.

    The resume and cache guarantees rest on one file format: the cell
    record file owned by ``CheckpointJournal``
    (``repro.testbed.resilience``).  A campaign checkpoint is one such
    file and a ``ResultStore`` is a directory of them (its segments), so
    the journal owns record framing, version stamps and torn-line
    recovery for both, while the store only names and lists segments.
    Any other code that opens those files directly — even just to read
    — couples itself to the layout and breaks silently when the schema
    version bumps.  Go through :class:`CheckpointJournal` and
    :class:`ResultStore` instead.
    """

    id = "RL107"
    category = "determinism"
    severity = "error"
    description = ("direct open()/read/write of a journal, checkpoint, "
                   "store, or segment file outside testbed.resilience — "
                   "go through CheckpointJournal (the single record-file "
                   "owner) or ResultStore")
    exclude = ("testbed/resilience.py",)

    #: Substring needles: identifiers like ``sweep_journal`` or
    #: ``checkpoint_file`` unambiguously name the guarded formats.
    _SUBSTRINGS = ("journal", "checkpoint", "segment")
    #: Whole-word needles: ``store`` only matches as an underscore-
    #: delimited word (``store_path``, ``result_store``) so innocent
    #: identifiers like ``restore`` or ``storey`` stay clean.
    _TOKENS = ("store",)
    _IO_METHODS = ("read_text", "write_text", "read_bytes", "write_bytes")

    @classmethod
    def _identifier_matches(cls, identifier):
        lowered = identifier.lower()
        if any(needle in lowered for needle in cls._SUBSTRINGS):
            return True
        return any(word in cls._TOKENS for word in lowered.split("_"))

    @classmethod
    def _mentions_store(cls, node):
        """Whether any identifier in the expression names a store file."""
        for child in ast.walk(node):
            if isinstance(child, ast.Name) \
                    and cls._identifier_matches(child.id):
                return True
            if isinstance(child, ast.Attribute) \
                    and cls._identifier_matches(child.attr):
                return True
        return False

    _MESSAGE = ("the record-file format (framing, version stamps, "
                "torn-line recovery) is private to testbed.resilience — "
                "use CheckpointJournal or ResultStore")

    def visit(self, tree, source, path):
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                targets = list(node.args) + [keyword.value
                                             for keyword in node.keywords]
                if any(self._mentions_store(target) for target in targets):
                    findings.append(self.finding(
                        path, node.lineno,
                        f"open() on a journal/store path: {self._MESSAGE}",
                        source))
            elif (isinstance(node.func, ast.Attribute)
                  and node.func.attr in self._IO_METHODS
                  and self._mentions_store(node.func.value)):
                findings.append(self.finding(
                    path, node.lineno,
                    f".{node.func.attr}() on a journal/store path: "
                    f"{self._MESSAGE}", source))
        return findings
