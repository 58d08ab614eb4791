"""The benchmark tracer's hooks resolve against the program.

``perfbench/tracer.py`` wraps the program's layer entry points by name
(:data:`ENTRY_POINTS`) when ``perfbench/run.py --trace`` runs.  A
deletion or rename in ``src/repro`` that removes a hooked name breaks
that run, so these tests load the tracer (read-only: its source is
executed in a fresh module, no bytecode is written next to it), check
every target and install and uninstall the whole tracer.
"""

import pathlib
import types

import pytest

TRACER = (pathlib.Path(__file__).resolve().parents[1]
          / "perfbench" / "tracer.py")


@pytest.fixture(scope="module")
def tracer_module():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    source = TRACER.read_text(encoding="utf-8")
    exec(compile(source, str(TRACER), "exec"), module.__dict__)
    return module


def test_every_entry_point_resolves(tracer_module):
    missing = []
    for module_name, path, _span in tracer_module.ENTRY_POINTS:
        try:
            owner, attr = tracer_module.Tracer.resolve(module_name, path)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}:{path}")
            continue
        if attr not in vars(owner):
            missing.append(f"{module_name}:{path}")
    assert missing == []


def test_install_then_uninstall_restores_every_hook(tracer_module,
                                                    tmp_path):
    tracer = tracer_module.Tracer(str(tmp_path))
    patched = []
    try:
        tracer.install()
        patched = list(tracer._installed)
    finally:
        tracer.uninstall()
    assert len(patched) >= len(tracer_module.ENTRY_POINTS)
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr}"
