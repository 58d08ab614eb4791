"""The source invariants that keep every run reproducible.

Serial, parallel, sharded, resumed and cache-warm campaigns are
byte-identical, and the Tprom/PSM inflation is attributed exactly, only
while the code under ``src/repro`` keeps a few rules: no wall-clock
reads and no unseeded randomness in simulation code, ``.enabled``-guarded
observability, one owner for record files, and registries whose every
entry builds.  Each rule is a function ``(tree, source) -> [(line,
message)]``; :data:`RULES` gives the part of ``src/repro`` it covers.
docs/STATIC_ANALYSIS.md lists the rules.

A rule is exempted on one line only, in review, with a trailing
``# lint: disable=RLxxx (reason)`` pragma;
:func:`test_only_documented_suppressions` pins the exempted lines.  An
observability call whose guard lives in its caller carries ``# obs:
caller-guarded``, and RL002 flags that pragma wherever no call shares
its line.  ``tests/data/lint_fixture.py`` breaks every rule once.
"""

import ast
import functools
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"
FIXTURE = REPO_ROOT / "tests" / "data" / "lint_fixture.py"

# -- pragmas ------------------------------------------------------------------

#: ``# lint: disable=RL101`` / ``=RL101 , rl203`` / ``=all``; prose may
#: trail the id list.
DISABLE_RE = re.compile(
    r"#\s*lint:\s*disable\s*=\s*"
    r"(all\b|[A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*)", re.IGNORECASE)

#: ``# obs: caller-guarded``, whitespace- and trailing-text-tolerant.
OBS_PRAGMA_RE = re.compile(r"#\s*obs:\s*caller-guarded\b", re.IGNORECASE)


def disabled_ids(line):
    """Rule ids a pragma disables on this line (``{"ALL"}`` for ``=all``)."""
    match = DISABLE_RE.search(line)
    if not match:
        return frozenset()
    return frozenset(token.strip().upper()
                     for token in match.group(1).split(","))


# -- RL001/RL002: observability guards ------------------------------------------

#: How many lines above a call site may hold its ``.enabled`` guard.
GUARD_WINDOW = 6

#: A recording call: ``sim.metrics.inc(``, ``self.spans.record(``, ...
CALL_RE = re.compile(
    r"\b(?:metrics\.(?:inc|observe|set_gauge|counter|gauge|histogram)"
    r"|spans\.(?:record|begin|end))\(")

#: Only the recorders' own flags guard a call; a PSM config's
#: ``.enabled`` does not.
GUARD_RE = re.compile(r"\b(?:metrics|spans)\.enabled\b")


def obs_guard(tree, source):
    """RL001: a recording call sits behind ``(metrics|spans).enabled``
    on its line or the :data:`GUARD_WINDOW` lines above, so disabled
    observability costs one attribute check."""
    lines = source.splitlines()
    return [(index + 1, "unguarded observability call: wrap it in "
             "'if <sim>.<recorder>.enabled:' or mark it "
             "'# obs: caller-guarded'")
            for index, line in enumerate(lines)
            if CALL_RE.search(line) and not OBS_PRAGMA_RE.search(line)
            and not any(GUARD_RE.search(above) for above in
                        lines[max(0, index - GUARD_WINDOW):index + 1])]


def unused_obs_pragma(tree, source):
    """RL002: a caller-guarded pragma sits on a recording call."""
    return [(index + 1, "unused '# obs: caller-guarded' pragma: no "
             "observability call on this line")
            for index, line in enumerate(source.splitlines())
            if OBS_PRAGMA_RE.search(line) and not CALL_RE.search(line)]


# -- RL101-RL107: determinism and record files --------------------------------

#: Packages whose code runs under (or builds) the simulated clock.
SIM_PACKAGES = frozenset({"sim", "core", "phone", "wifi", "net", "testbed",
                          "cellular", "tools", "sniffer"})

#: ``time`` functions and ``datetime``/``date`` constructors that read
#: the host clock.
WALL_CLOCK_TIME_FNS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "thread_time",
    "thread_time_ns"})
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
    """``(bound name, imported name)`` of each ``from module import``."""
    return {(alias.asname or alias.name, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == module
            for alias in node.names}


def _calls(tree):
    """``(call node, dotted callee or None)`` for every call."""
    return [(node, _dotted(node.func)) for node in ast.walk(tree)
            if isinstance(node, ast.Call)]


def wall_clock(tree, source):
    """RL101: simulation code reads time from ``sim.now``, never the host."""
    time_aliases = {bound for bound, name in _from_imports(tree, "time")
                    if name in WALL_CLOCK_TIME_FNS}
    datetime_names = {bound for bound, name
                      in _from_imports(tree, "datetime")
                      if name in ("datetime", "date")}
    found = []
    for node, name in _calls(tree):
        if name is None:
            continue
        head, _, tail = name.rpartition(".")
        if ((head == "time" and tail in WALL_CLOCK_TIME_FNS)
                or (tail in WALL_CLOCK_DATETIME_FNS and head
                    and (head.split(".")[0] == "datetime"
                         or head in datetime_names))
                or (not head and name in time_aliases)):
            found.append((node.lineno, f"wall-clock read {name}() in "
                          "simulation code: use the simulated clock"))
    return found


def unseeded_random(tree, source):
    """RL102: randomness comes from named ``sim.rng.stream(name)``
    streams, never the ``random`` module's shared state or OS entropy;
    ``random.Random(derived_seed)`` is the facade's own construction."""
    imported = _from_imports(tree, "random")
    class_aliases = {bound for bound, name in imported if name == "Random"}
    fn_aliases = {bound for bound, name in imported if name != "Random"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            bad = sorted(alias.name for alias in node.names
                         if alias.name != "Random")
            if bad:
                found.append((node.lineno, f"from random import "
                              f"{', '.join(bad)}: use sim.rng.stream(name)"))
    for node, name in _calls(tree):
        if name is None:
            continue
        head, _, tail = name.rpartition(".")
        bare = not node.args and not node.keywords
        if (head == "random" and tail == "Random") \
                or (not head and name in class_aliases):
            if bare:
                found.append((node.lineno, f"unseeded {name}() seeds from "
                              "OS entropy: use sim.rng.stream(name)"))
        elif head == "random" or (not head and name in fn_aliases):
            found.append((node.lineno, f"{name}() draws from the shared "
                          "global RNG: use sim.rng.stream(name)"))
    return found


def _number(node):
    """The value of an int/float literal or of its negation, else None."""
    if (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, (int, float))):
        return -node.operand.value
    if (isinstance(node, ast.Constant) and not isinstance(node.value, bool)
            and isinstance(node.value, (int, float))):
        return node.value
    return None


def negative_delay(tree, source):
    """RL103: no ``schedule()`` with a negative delay literal (the
    scheduler raises ``SimTimeError``: events cannot fire in the past)."""
    found = []
    for node, _ in _calls(tree):
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr == "schedule"):
            continue
        delay = node.args[0] if node.args else None
        for keyword in node.keywords:
            if keyword.arg == "delay":
                delay = keyword.value
        value = None if delay is None else _number(delay)
        if value is not None and value < 0:
            found.append((node.lineno, "schedule() with negative delay "
                          f"literal {value!r}"))
    return found


def _names_journal(node):
    name = _dotted(node)
    return name is not None and any(
        needle in name.lower() for needle in ("journal", "checkpoint"))


def raw_journal_write(tree, source):
    """RL104: a record is one flushed line written by
    ``resilience.append_journal_record`` (through ``CheckpointJournal``,
    the one record-file owner), so a crash can only tear the last line.
    A raw ``write``/``json.dump`` on a journal or checkpoint handle can
    interleave or buffer partial lines."""
    found = []
    for node, name in _calls(tree):
        if not isinstance(node.func, ast.Attribute):
            continue
        if node.func.attr in ("write", "writelines"):
            if _names_journal(node.func.value):
                found.append((node.lineno, f"raw .{node.func.attr}() on a "
                              "checkpoint/journal handle: append through "
                              "resilience.append_journal_record"))
        elif name == "json.dump" and any(
                _names_journal(target) for target in
                [*node.args, *(keyword.value for keyword in node.keywords)]):
            found.append((node.lineno, "json.dump() into a checkpoint/"
                          "journal handle: append through "
                          "resilience.append_journal_record"))
    return found


def scheduler_internals(tree, source):
    """RL105: the event queue's layout (one heap with lazy cancellation)
    is private to ``sim/scheduler.py`` and ``sim/events.py``; other code
    uses ``pending()``/``peek()``."""
    return [(node.lineno, f"direct access to scheduler internal "
             f".{node.attr}: use pending()/peek()")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("_heap", "_canceled_in_heap")]


#: Recording methods whose first argument is a series name, by receiver.
OBS_NAME_METHODS = {
    "metrics": frozenset({"inc", "observe", "set_gauge", "counter", "gauge",
                          "histogram"}),
    "spans": frozenset({"record", "begin"}),
}


def inline_obs_name(tree, source):
    """RL106: metric and span names are constants from
    ``repro.obs.names``; an inline literal forks the series namespace
    that ``analysis.decompose`` and the exporters key on."""
    found = []
    for node, _ in _calls(tree):
        func = node.func
        if not (isinstance(func, ast.Attribute) and node.args):
            continue
        receiver = (func.value.attr if isinstance(func.value, ast.Attribute)
                    else getattr(func.value, "id", None))
        if func.attr not in OBS_NAME_METHODS.get(receiver, ()):
            continue
        name = node.args[0]
        if isinstance(name, ast.Constant) and isinstance(name.value, str):
            found.append((node.lineno, f"inline name literal "
                          f"{name.value!r} in {receiver}.{func.attr}(): "
                          "import the constant from repro.obs.names"))
    return found


def _names_record_file(identifier):
    """``sweep_journal``, ``checkpoint_file``, ``segment_dir`` and
    ``store_path`` do; ``restore`` does not (``store`` is whole-word)."""
    lowered = identifier.lower()
    return (any(needle in lowered
                for needle in ("journal", "checkpoint", "segment"))
            or "store" in lowered.split("_"))


def _mentions_record_file(node):
    return any(_names_record_file(child.id) if isinstance(child, ast.Name)
               else _names_record_file(child.attr)
               for child in ast.walk(node)
               if isinstance(child, (ast.Name, ast.Attribute)))


def raw_store_open(tree, source):
    """RL107: only ``testbed/resilience.py`` opens journal, checkpoint,
    store or segment files; everything else goes through
    ``CheckpointJournal`` or ``ResultStore``, so framing, version stamps
    and torn-line recovery live in one module."""
    found = []
    for node, _ in _calls(tree):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            if any(_mentions_record_file(target) for target in
                   [*node.args, *(kw.value for kw in node.keywords)]):
                found.append((node.lineno, "open() on a journal/store "
                              "path: use CheckpointJournal or ResultStore"))
        elif (isinstance(func, ast.Attribute)
              and func.attr in ("read_text", "write_text", "read_bytes",
                                "write_bytes")
              and _mentions_record_file(func.value)):
            found.append((node.lineno, f".{func.attr}() on a journal/store "
                          "path: use CheckpointJournal or ResultStore"))
    return found


# -- RL201-RL203: failures that corrupt results silently ------------------------


def _is_mutable(node):
    return (isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp))
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "dict", "set", "bytearray")
                and not node.args and not node.keywords))


def mutable_default(tree, source):
    """RL201: no mutable default on a public function; it is built once
    and shared across calls, so one cell's state leaks into the next."""
    return [(default.lineno, f"mutable default argument in {node.name}(): "
             "default to None and build it in the body")
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and (not node.name.startswith("_") or node.name == "__init__")
            for default in [*node.args.defaults,
                            *filter(None, node.args.kw_defaults)]
            if _is_mutable(default)]


def _swallows(handler):
    return all(isinstance(stmt, ast.Pass)
               or (isinstance(stmt, ast.Expr)
                   and isinstance(stmt.value, ast.Constant)
                   and stmt.value.value is Ellipsis)
               for stmt in handler.body)


def swallowed_exception(tree, source):
    """RL202: no bare ``except:`` and no ``except Exception: pass`` in
    simulation code, where a modelling bug would become a wrong sample."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            found.append((node.lineno, "bare 'except:' catches everything: "
                          "name the exceptions this handler recovers from"))
        elif (isinstance(node.type, ast.Name)
              and node.type.id in ("Exception", "BaseException")
              and _swallows(node)):
            found.append((node.lineno, f"'except {node.type.id}: pass' "
                          "swallows every failure: handle or re-raise"))
    return found


def print_in_library(tree, source):
    """RL203: only the CLI prints; a ``print()`` elsewhere writes into
    the reports and JSON that pipelines parse."""
    return [(node.lineno, "print() in library code: return the text or "
             "record it via sim.metrics / sim.spans")
            for node, name in _calls(tree) if name == "print"]


#: Rule id -> (check, top-level packages of ``src/repro`` it covers
#: (``None``: all of them), path prefixes it skips).
RULES = {
    # obs/ implements the recorders and declares the names table.
    "RL001": (obs_guard, None, ("obs/",)),
    "RL002": (unused_obs_pragma, None, ("obs/",)),
    "RL101": (wall_clock, SIM_PACKAGES, ()),
    "RL102": (unseeded_random, SIM_PACKAGES, ()),
    "RL103": (negative_delay, SIM_PACKAGES, ()),
    "RL104": (raw_journal_write, SIM_PACKAGES, ("testbed/resilience.py",)),
    "RL105": (scheduler_internals, SIM_PACKAGES,
              ("sim/scheduler.py", "sim/events.py")),
    "RL106": (inline_obs_name, None, ("obs/",)),
    "RL107": (raw_store_open, SIM_PACKAGES, ("testbed/resilience.py",)),
    "RL201": (mutable_default, None, ()),
    "RL202": (swallowed_exception, SIM_PACKAGES, ()),
    "RL203": (print_in_library, None, ("cli.py", "__main__.py")),
}


def covers(rule_id, relpath):
    """Whether a rule covers the file at ``relpath`` (POSIX, relative to
    ``src/repro``)."""
    _, packages, skips = RULES[rule_id]
    return (not relpath.startswith(skips)
            and (packages is None or relpath.split("/")[0] in packages))


def check_source(source, rule_ids=tuple(RULES), relpath=None):
    """``(findings, suppressed)`` of the rules in ``rule_ids`` on one
    source text, each a sorted ``[(line, rule id, message)]``.  A
    ``relpath`` inside ``src/repro`` drops the rules that do not cover
    it; without one every rule runs."""
    tree = ast.parse(source)
    lines = source.splitlines()
    findings, suppressed = [], []
    for rule_id in rule_ids:
        if relpath is not None and not covers(rule_id, relpath):
            continue
        for line, message in RULES[rule_id][0](tree, source):
            disabled = disabled_ids(lines[line - 1])
            exempt = rule_id in disabled or "ALL" in disabled
            (suppressed if exempt else findings).append(
                (line, rule_id, message))
    return sorted(findings), sorted(suppressed)


def scan(root=PACKAGE):
    """``{relpath: (findings, suppressed)}`` for every file under
    ``root``, each read and parsed once."""
    assert root.is_dir(), f"{root} is not a directory"
    return {relpath: check_source(path.read_text(encoding="utf-8"),
                                  relpath=relpath)
            for path in sorted(root.rglob("*.py"))
            for relpath in [path.relative_to(root).as_posix()]}


@functools.cache
def package_scan():
    """:func:`scan` of ``src/repro``, shared by the tests below."""
    return scan()


# -- RL301: registry contract ---------------------------------------------------

#: What the Environment protocol promises the layers above it.
PROTOCOL_ATTRS = ("sim", "server_ip", "server_host", "attach_phone",
                  "settle", "run", "set_emulated_rtt", "observe",
                  "metrics_snapshot")


def environment_problems():
    """Build every registered environment; return what is wrong."""
    from repro.testbed.environment import ENVIRONMENTS, build_environment
    from repro.testbed.scenario import ScenarioSpec

    problems = []
    for key, entry in sorted(ENVIRONMENTS.items()):
        if entry.builder is None:
            problems.append(f"environment {key!r}: builder is None")
            continue
        try:
            env = build_environment(key, seed=0)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            problems.append(f"environment {key!r}: build failed: {exc!r}")
            continue
        problems += [f"environment {key!r}: missing protocol attr {attr!r}"
                     for attr in PROTOCOL_ATTRS if not hasattr(env, attr)]
        if env.key != key:
            problems.append(
                f"environment {key!r}: instance reports key {env.key!r}")
        if env.capabilities != entry.capabilities:
            problems.append(
                f"environment {key!r}: instance capabilities "
                f"{sorted(env.capabilities)} != registry "
                f"{sorted(entry.capabilities)}")
        try:
            env.attach_phone("nexus5")
        except Exception as exc:  # noqa: BLE001
            problems.append(
                f"environment {key!r}: attach_phone failed: {exc!r}")
        try:
            spec = ScenarioSpec(env=key)
            if ScenarioSpec.from_json(spec.to_json()) != spec:
                problems.append(
                    f"environment {key!r}: spec JSON round-trip not equal")
        except Exception as exc:  # noqa: BLE001
            problems.append(
                f"environment {key!r}: spec round-trip failed: {exc!r}")
    return problems


def tool_problems():
    """Construct every registered tool on a WiFi cell; return what is
    wrong."""
    from repro.core.measurement import ProbeCollector
    from repro.testbed.environment import build_environment
    from repro.testbed.scenario import TOOLS, ScenarioSpec

    problems = []
    env = build_environment("wifi", seed=0)
    phone = env.attach_phone("nexus5")
    collector = ProbeCollector(phone)
    for key, entry in sorted(TOOLS.items()):
        if entry.builder is None:
            problems.append(f"tool {key!r}: builder is None")
            continue
        if entry.side not in ("phone", "server"):
            problems.append(f"tool {key!r}: unknown side {entry.side!r}")
        try:
            spec = ScenarioSpec(tool=key, count=1)
            if ScenarioSpec.from_json(spec.to_json()) != spec:
                problems.append(
                    f"tool {key!r}: spec JSON round-trip not equal")
            tool = entry.build(spec, env, phone, collector)
        except Exception as exc:  # noqa: BLE001
            problems.append(f"tool {key!r}: build failed: {exc!r}")
            continue
        if not callable(getattr(tool, "run_sync", None)):
            problems.append(f"tool {key!r}: built object has no run_sync()")
    return problems


def registry_problems():
    """RL301: every registered environment and tool works, which is the
    contract the scenario executor drives."""
    return environment_problems() + tool_problems()


# -- the tree -------------------------------------------------------------------


def test_scan_covers_the_package():
    """An empty or misplaced walk must not pass as a clean one."""
    assert PACKAGE.is_dir()
    assert len(package_scan()) > 85


@pytest.mark.parametrize("rule_id", sorted(RULES))
def test_src_holds_invariant(rule_id):
    broken = [f"{relpath}:{line}: {rule} {message}"
              for relpath, (findings, _) in package_scan().items()
              for line, rule, message in findings if rule == rule_id]
    assert not broken, f"{rule_id} broken in src/repro:\n" + "\n".join(broken)


def test_registries_are_clean():
    problems = registry_problems()
    assert not problems, "RL301 broken:\n" + "\n".join(problems)


def test_only_documented_suppressions():
    """Exemptions do not accrete silently: the only ones are the
    scheduler's two wall-clock reads for volatile handler self-time."""
    suppressed = sorted((relpath, rule)
                        for relpath, (_, exempt) in package_scan().items()
                        for _, rule, _ in exempt)
    assert suppressed == [("sim/scheduler.py", "RL101")] * 2


# -- the fixture ------------------------------------------------------------------

#: Every (line, rule) the fixture breaks, in order.
FIXTURE_EXPECTED = [
    (10, "RL102"),  # from random import randint
    (13, "RL201"),  # values=[] mutable default
    (14, "RL001"),  # unguarded metrics.inc
    (14, "RL106"),  # inline metric-name literal
    (15, "RL101"),  # time.time()
    (16, "RL102"),  # random.random()
    (17, "RL103"),  # schedule(-0.5, ...)
    (19, "RL102"),  # randint() call
    (20, "RL202"),  # bare except
    (22, "RL203"),  # print()
    (27, "RL002"),  # unused caller-guarded pragma
    (30, "RL202"),  # except Exception: pass
    (33, "RL203"),  # print survives a RL101-only disable
    (40, "RL104"),  # raw journal.write()
    (41, "RL104"),  # json.dump() into a checkpoint handle
    (46, "RL105"),  # sim._heap access outside the scheduler core
    # 47: sim._wheel_cursor names no scheduler field, so RL105 is silent
    (51, "RL107"),  # open() on a store path outside the home modules
    (52, "RL107"),  # .read_text() on a segment path
]


def _fixture():
    return check_source(FIXTURE.read_text(encoding="utf-8"))


def _lines_rules(findings):
    return [(line, rule) for line, rule, _ in findings]


class TestFixture:
    def test_expected_rule_ids_in_order(self):
        findings, _ = _fixture()
        assert _lines_rules(findings) == FIXTURE_EXPECTED

    def test_multi_rule_pragma_on_one_line(self):
        """disable=RL101,RL203 silences both findings on line 32;
        disable=RL101 leaves line 33's RL203 finding alive."""
        findings, suppressed = _fixture()
        assert _lines_rules(suppressed) \
            == [(32, "RL101"), (32, "RL203"), (33, "RL101")]
        assert (33, "RL203") in _lines_rules(findings)


class TestPragmas:
    @pytest.mark.parametrize("comment", [
        "# lint: disable=RL203",
        "#lint:disable=RL203",
        "#   lint:   disable   =   rl203",
        "# lint: disable=RL203 — deliberate, see docs",
        "# lint: disable=RL101,RL203 trailing words",
        "# lint: disable=all",
    ])
    def test_flexible_disable_forms(self, comment):
        findings, suppressed = check_source(f"print('x')  {comment}\n",
                                            ("RL203",))
        assert not findings
        assert _lines_rules(suppressed) == [(1, "RL203")]

    def test_disable_other_rule_does_not_suppress(self):
        findings, _ = check_source("print('x')  # lint: disable=RL101\n",
                                   ("RL203",))
        assert _lines_rules(findings) == [(1, "RL203")]

    def test_malformed_pragma_ignored(self):
        assert disabled_ids("x = 1  # lint: disable=") == frozenset()
        assert disabled_ids("x = 1  # lint: disable=banana") == frozenset()
        assert disabled_ids("x = 1") == frozenset()

    @pytest.mark.parametrize("line", [
        "foo()  # obs: caller-guarded",
        "foo()  #obs:caller-guarded",
        "foo()  #  obs:  caller-guarded (guard lives in run())",
    ], ids=["spaced", "compact", "with-note"])
    def test_obs_pragma_flexible_forms(self, line):
        assert OBS_PRAGMA_RE.search(line)

    def test_obs_pragma_requires_exact_words(self):
        assert not OBS_PRAGMA_RE.search("foo()  # obs caller guarded")


class TestScoping:
    def test_obs_package_excluded_from_obs_rules(self):
        source = "def f(m):\n    m.metrics.inc('x')\n"
        assert check_source(source, relpath="obs/inner.py") == ([], [])
        findings, _ = check_source(source, relpath="wifi/inner.py")
        assert _lines_rules(findings) == [(2, "RL001"), (2, "RL106")]

    def test_sim_scoped_rule_skips_non_sim_packages(self):
        source = "import time\nNOW = time.time()\n"
        assert check_source(source, relpath="analysis/report2.py") \
            == ([], [])
        findings, _ = check_source(source, relpath="sim/clock.py")
        assert _lines_rules(findings) == [(2, "RL101")]

    def test_home_modules_skip_their_own_rules(self):
        assert not covers("RL105", "sim/scheduler.py")
        assert not covers("RL104", "testbed/resilience.py")
        assert not covers("RL107", "testbed/resilience.py")
        assert not covers("RL203", "cli.py")
        assert covers("RL105", "sim/timers.py")
        assert covers("RL203", "testbed/campaign.py")

    def test_unscoped_source_gets_every_rule(self):
        findings, _ = check_source("import time\nNOW = time.time()\n")
        assert _lines_rules(findings) == [(2, "RL101")]

    def test_seeded_rng_facade_is_not_flagged(self):
        """random.Random(derived_seed) is the sanctioned construction."""
        source = (PACKAGE / "sim" / "rng.py").read_text(encoding="utf-8")
        assert "random.Random(" in source
        assert check_source(source, ("RL102",)) == ([], [])

    def test_unseeded_random_constructor_flagged(self):
        findings, _ = check_source("import random\nr = random.Random()\n",
                                   ("RL102",))
        assert _lines_rules(findings) == [(2, "RL102")]
        assert "unseeded" in findings[0][2]


class TestObsGuard:
    @staticmethod
    def _obs(source):
        findings, _ = check_source(source, ("RL001", "RL002"))
        return _lines_rules(findings)

    def test_catches_unguarded_call(self):
        assert self._obs("def f(sim):\n"
                         "    sim.spans.record('x.y', 0.0, sim.now)\n"
                         "    sim.metrics.inc('y_total')\n") \
            == [(2, "RL001"), (3, "RL001")]

    def test_accepts_guard_and_pragma(self):
        assert self._obs("def f(sim):\n"
                         "    if sim.spans.enabled:\n"
                         "        sim.spans.record('x.y', 0.0, sim.now)\n"
                         "    sim.metrics.inc('y_total')  "
                         "# obs: caller-guarded\n") == []

    def test_guard_window_is_six_lines(self):
        body = "".join("    x = 1\n" for _ in range(GUARD_WINDOW))
        guarded = "def f(sim):\n    on = sim.metrics.enabled\n"
        assert self._obs(guarded + body[10:] + "    sim.metrics.inc(N)\n") \
            == []
        assert self._obs(guarded + body + "    sim.metrics.inc(N)\n") \
            == [(GUARD_WINDOW + 3, "RL001")]

    def test_trace_enabled_is_not_a_guard(self):
        """Only the metrics/spans recorders' flags guard a call."""
        assert self._obs("def f(sim, x):\n"
                         "    if x.trace.enabled:\n"
                         "        sim.metrics.inc('y_total')\n") \
            == [(3, "RL001")]

    def test_pragma_recognised_with_flexible_spelling(self):
        assert self._obs("def f(sim):\n"
                         "    sim.metrics.inc('a')  #obs:caller-guarded\n"
                         "    sim.metrics.inc('b')  #   obs:   "
                         "caller-guarded\n"
                         "    sim.metrics.inc('c')  # obs: caller-guarded "
                         "— guard lives in run()\n") == []

    def test_unused_pragma_is_flagged(self):
        """A caller-guarded pragma with no call on its line is rot."""
        assert self._obs("def f(sim):\n"
                         "    x = 1  # obs: caller-guarded\n"
                         "    return x\n") == [(2, "RL002")]


class TestRegistryContract:
    def test_rejects_none_builder(self, monkeypatch):
        from repro.testbed import scenario

        monkeypatch.setitem(
            scenario.TOOLS, "broken",
            scenario.ToolEntry("broken", None, "phone", "placeholder"))
        assert "tool 'broken': builder is None" in registry_problems()

    def test_rejects_unbuildable_environment(self, monkeypatch):
        from repro.testbed import environment

        def explode(seed=0, emulated_rtt=0.0, **params):
            raise RuntimeError("boom")

        monkeypatch.setitem(
            environment.ENVIRONMENTS, "exploding",
            environment.EnvironmentEntry("exploding", explode, "bad",
                                         frozenset()))
        assert any(problem.startswith("environment 'exploding': build "
                                      "failed") and "boom" in problem
                   for problem in registry_problems())
