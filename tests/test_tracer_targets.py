"""The benchmark's tracer swaps attributes of framepath by name.  A
refactor that deletes or renames a traced entry point breaks the
benchmark; this test catches it in the test suite.  perfbench/tracer.py
is read as source and executed in a fresh namespace, so nothing under
perfbench/ is imported as a package or written."""

import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_attribute_resolves():
    targets = load_tracer().TARGETS
    assert targets
    for owner, attr, *_ in targets:
        if isinstance(owner, type):
            assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), \
                f"{owner.__name__}.{attr}"
