"""Every module in ``src/repro`` feeds a paper result, a perfbench
workload or a theory anchor (ROADMAP item 8).

The walk starts from the files that regenerate those: ``benchmarks/``,
``perfbench/`` and ``tests/test_analytic_*.py``.  It follows ``ast``
imports, lazy imports inside functions included.  A name imported from
a package resolves to the submodule that defines it; a package
``__init__``'s own re-exports are not followed, so a module that only
an ``__init__`` imports counts as unreached.

The unreached set is pinned.  A new orphan module fails this test, and
wiring one of the waiting modules into a result means deleting it from
:data:`UNREACHED`.
"""

import ast
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

#: Modules no result reaches: the command line, the lint engine, and
#: four modules waiting for ROADMAP item 2's specs to wire them in.
UNREACHED = {
    "repro.__main__",
    "repro.cli",
    "repro.analysis.compare",
    "repro.core.calibrated",
    "repro.phone.tcpdump",
    "repro.sniffer.rtt",
}
UNREACHED_PACKAGES = ("repro.lint.",)


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
    expected = UNREACHED | {name for name in modules
                            if name.startswith(UNREACHED_PACKAGES)}
    assert sorted(unreached) == sorted(expected), (
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
