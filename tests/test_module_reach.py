"""Every module in ``src/repro`` feeds a paper result, a perfbench
workload or a theory anchor (ROADMAP item 8), and so does every public
name defined in one.

The walk starts from the files that regenerate those: ``benchmarks/``,
``perfbench/`` and ``tests/test_analytic_*.py``.  It follows ``ast``
imports, lazy imports inside functions included.  A name imported from
a package resolves to the submodule that defines it; a package
``__init__``'s own re-exports are not followed, so a module that only
an ``__init__`` imports counts as unreached.

The name check is coarser: a public top-level function or class, or a
public method of a top-level class, is reached when its bare name is
used outside its own definition, in ``src/repro`` or in those roots.
A use is a name, an attribute, or a word in a string that is not a
docstring (``perfbench/tracer.py`` names its hooks in strings).
Imports and ``__all__`` entries are not uses, so a re-export alone
reaches nothing.

Both unreached sets are pinned: a new orphan module or name fails.
"""

import ast
import pathlib
import re

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

#: Modules no result reaches: the command line only, which drives the
#: same modules the results do.
UNREACHED = {"repro.__main__", "repro.cli"}


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _source_files():
    """``{module name: path}`` for every file under ``src/repro``."""
    return {_module_name(path): path
            for path in sorted((SRC / "repro").rglob("*.py"))}


def _imports(tree):
    """``(module, names)`` pairs for every import in ``tree``; ``names``
    is empty for ``import a.b``.  The repo imports absolutely only."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            assert not node.level, "the walk cannot follow relative imports"
            yield node.module, tuple(alias.name for alias in node.names)


class _Walker:
    def __init__(self):
        self.files = _source_files()
        self._trees = {}

    def tree(self, module):
        if module not in self._trees:
            self._trees[module] = ast.parse(
                self.files[module].read_text(encoding="utf-8"))
        return self._trees[module]

    def is_package(self, module):
        return self.files[module].name == "__init__.py"

    def defining_module(self, package, name):
        """The module that defines ``package.name``: a submodule, the
        module an ``__init__`` re-exports it from, or ``None`` for a
        name the ``__init__`` defines itself."""
        submodule = f"{package}.{name}"
        if submodule in self.files:
            return self.resolve(submodule)
        for module, names in _imports(self.tree(package)):
            if name in names and module in self.files:
                if self.is_package(module):
                    return self.defining_module(module, name)
                return module
        return None

    def resolve(self, module):
        """``module`` itself, or ``None`` for a package (a package
        import reaches only the names taken from it)."""
        return None if self.is_package(module) else module

    def targets(self, tree):
        """The ``src/repro`` modules a file's imports reach directly."""
        for module, names in _imports(tree):
            if module not in self.files:
                continue
            if names and self.is_package(module):
                for name in names:
                    target = self.defining_module(module, name)
                    if target is not None:
                        yield target
            elif (target := self.resolve(module)) is not None:
                yield target

    def reached(self, roots):
        """Every non-package module reachable from the root files."""
        seen = set()
        queue = []
        for path in roots:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            queue.extend(self.targets(tree))
        while queue:
            module = queue.pop()
            if module in seen:
                continue
            seen.add(module)
            queue.extend(self.targets(self.tree(module)))
        return seen


def _roots():
    return (sorted((REPO_ROOT / "benchmarks").rglob("*.py"))
            + sorted((REPO_ROOT / "perfbench").rglob("*.py"))
            + sorted((REPO_ROOT / "tests").glob("test_analytic_*.py")))


def test_unreached_modules_are_exactly_the_pinned_list():
    walker = _Walker()
    modules = {name for name in walker.files if not walker.is_package(name)}
    unreached = modules - walker.reached(_roots())
    assert sorted(unreached) == sorted(UNREACHED), (
        "a module outside the pinned list is unreached (delete it or wire "
        "it into a result), or a pinned one is now reached (drop it from "
        "UNREACHED)")


def test_walk_resolves_package_names_to_their_submodules():
    walker = _Walker()
    tree = ast.parse("from repro.analysis import Cdf\n"
                     "from repro.testbed import campaign\n"
                     "import repro.sim\n")
    assert set(walker.targets(tree)) == {"repro.analysis.cdf",
                                         "repro.testbed.campaign"}


#: Public names no result reaches, by ``module:qualname``: API that the
#: unit tests or the examples drive, which a paper result does not.
_TESTED = "a model query its unit tests assert on"
_EXAMPLE = "called by an example script and its unit tests"
UNREACHED_NAMES = {
    "repro.analysis.boxstats:BoxStats.outlier_fraction": _TESTED,
    "repro.analysis.cdf:Cdf.points": _TESTED,
    "repro.core.calibration:TimerCalibrator.infer_sdio": _EXAMPLE,
    "repro.core.warmup:WarmupPlan.violations": _TESTED,
    "repro.core.warmup:WarmupPolicy.from_calibration": _EXAMPLE,
    "repro.core.warmup:WarmupPolicy.recommend": _EXAMPLE,
    "repro.net.checksum:verify_checksum":
        "reference verifier the wire tests check encoded checksums with",
    "repro.net.iperf:UdpLoadGenerator.offered_load_bps": _TESTED,
    "repro.net.iperf:UdpSink.throughput_bps": _TESTED,
    "repro.net.packet:Packet.flow_key": _TESTED,
    "repro.net.queues:DropTailQueue.bytes_queued": _TESTED,
    "repro.net.stack:IpStack.add_icmp_error_handler": _TESTED,
    "repro.net.tcp:TcpStack.active_connections": _TESTED,
    "repro.obs.spans:SpanTracker.begin":
        "the open half of the span API; the obs tests drive it",
    "repro.obs.spans:SpanTracker.discard":
        "the cancel half of the span API; the obs tests drive it",
    "repro.phone.energy:EnergyMeter.milliamp_hours": _TESTED,
    "repro.phone.latency:DelayDistribution.constant": _TESTED,
    "repro.phone.phone:Phone.set_bus_sleep": _TESTED,
    "repro.sim.timers:PeriodicTimer.next_deadline": _TESTED,
    "repro.sniffer.sniffer:WirelessSniffer.beacon_records": _EXAMPLE,
    "repro.sniffer.sniffer:WirelessSniffer.null_records":
        "called by examples/diagnose_inflation.py",
    "repro.testbed.campaign:Campaign.result_for": _EXAMPLE,
    "repro.testbed.environment:Environment.set_emulated_rtt":
        "a member of the environment protocol (docs/ARCHITECTURE.md)",
    "repro.testbed.environment:Environment.stop_cross_traffic": _TESTED,
    "repro.testbed.topology:Testbed.stop_cross_traffic": _TESTED,
    "repro.wifi.ap:AccessPoint.station_record": _TESTED,
    "repro.wifi.channel:WifiChannel.is_busy": _TESTED,
    "repro.wifi.phy:PhyParams.data_exchange_time": _TESTED,
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_docstring(node):
    return (isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _name_uses(tree):
    """``(name, line)`` for every use of a name in ``tree``."""
    skipped = set()
    for node in ast.walk(tree):
        if _is_docstring(node):
            skipped.add(id(node.value))
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            skipped.update(id(sub) for sub in ast.walk(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skipped):
            for word in _WORD.findall(node.value):
                yield word, node.lineno


def _public_definitions(tree):
    """``(qualname, node)`` for the public top-level functions and
    classes of ``tree`` and the public methods of its classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def unreached_names(files, roots):
    """``module:qualname`` of every public definition in ``files``
    (``{module: path}``) whose name no file of ``files`` or ``roots``
    uses outside the definition itself."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in [*files.values(), *roots]}
    uses = {}
    for path, tree in trees.items():
        for name, line in _name_uses(tree):
            uses.setdefault(name, []).append((path, line))
    unreached = set()
    for module, path in files.items():
        for qualname, node in _public_definitions(trees[path]):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            own = range(first, node.end_lineno + 1)
            name = qualname.rpartition(".")[2]
            if not any(where != path or line not in own
                       for where, line in uses.get(name, ())):
                unreached.add(f"{module}:{qualname}")
    return unreached


def test_unreached_names_are_exactly_the_pinned_list():
    unreached = unreached_names(_source_files(), _roots())
    assert sorted(unreached) == sorted(UNREACHED_NAMES), (
        "a public name outside the pinned list is used nowhere (delete "
        "it or wire it into a result), or a pinned one is now used (drop "
        "it from UNREACHED_NAMES)")


def test_name_uses_skip_docstrings_imports_and_all(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        '"""Mentions orphan in a docstring."""\n'
        "from elsewhere import imported\n"
        '__all__ = ["exported"]\n'
        "def orphan():\n"
        "    return orphan\n"
        "def exported():\n"
        "    pass\n"
        "def hooked():\n"
        "    pass\n"
        "def called():\n"
        "    pass\n"
        "called()\n", encoding="utf-8")
    hooks = tmp_path / "hooks.py"
    hooks.write_text('ENTRY = ("mod", "hooked")\n', encoding="utf-8")
    assert unreached_names({"mod": module}, [hooks]) \
        == {"mod:orphan", "mod:exported"}
