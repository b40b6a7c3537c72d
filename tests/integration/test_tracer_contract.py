"""The traced benchmark's patch contract, checked in the test suite.

``perfbench/spans.py`` wraps public ``repro`` callables by name -- a
method must be defined in the body of the class it patches, and a
module-level function in each module it names.  A refactor that moves or
renames one of them breaks ``Tracer.install``; this test makes that a
test failure instead of a benchmark failure.  It loads the tracer by
path and never edits it.
"""

import gc
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[2] / "perfbench" / "spans.py"


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_patches_and_uninstall_restores_every_attribute():
    callbacks_before = list(gc.callbacks)
    tracer = load_tracer_class()()
    try:
        tracer.install()
    finally:
        # uninstall() empties the patch list; a failed install still
        # undoes whatever it patched before failing.
        patches = list(tracer._patches)
        replaced = [
            current(owner, attr) is not original
            for owner, attr, original in patches
        ]
        tracer.uninstall()
    assert patches and all(replaced)
    for owner, attr, original in patches:
        assert current(owner, attr) is original, (owner, attr)
    assert gc.callbacks == callbacks_before
