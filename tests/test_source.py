"""Checks over the package's own source text."""

import ast
from pathlib import Path

import framepath

SRC = Path(framepath.__file__).parent


def self_calls(source: str) -> list[str]:
    """Functions that call themselves: a bare name call to a function of
    that name, or a ``self.name``/``cls.name`` call inside a method."""
    found = []

    def visit(node, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    f = call.func
                    if (isinstance(f, ast.Name) and not in_class
                            and f.id == child.name) or (
                            in_class and isinstance(f, ast.Attribute)
                            and isinstance(f.value, ast.Name)
                            and f.value.id in ("self", "cls")
                            and f.attr == child.name):
                        found.append(f"{child.name} (line {call.lineno})")
                        break
                visit(child, False)
            else:
                visit(child, in_class or isinstance(child, ast.ClassDef))
    visit(ast.parse(source), False)
    return found


def test_self_call_detector():
    assert self_calls("def f(n):\n    return f(n - 1)\n") == ["f (line 2)"]
    assert self_calls("def g():\n    def emit(k):\n        emit(k)\n") == [
        "emit (line 3)"]
    assert self_calls("class A:\n    def walk(self):\n        self.walk()\n"
                      ) == ["walk (line 3)"]
    assert self_calls("class A:\n    def f(self):\n        return f()\n"
                      "    def g(self, x):\n        return x.g()\n") == []


def test_no_function_in_src_calls_itself():
    # Trees and inputs of any depth must not run out of stack, so the
    # package walks them with loops.
    found = {path.name: self_calls(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def callers_of(source: str, name: str) -> list[tuple[str, int]]:
    """(enclosing function or "<module>", line) of each call of
    ``name(...)`` or ``anything.name(...)``."""
    found = []

    def visit(node, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            f = getattr(child, "func", None) if isinstance(
                child, ast.Call) else None
            if (isinstance(f, ast.Name) and f.id == name
                    or isinstance(f, ast.Attribute) and f.attr == name):
                found.append((where, child.lineno))
            visit(child, where)
    visit(ast.parse(source), "<module>")
    return found


def test_caller_detector():
    source = ("x = Packed(1, None)\n"
              "def f():\n    return ad.Packed(2, [2])\n"
              "def g():\n    return packed(2, [2]), Packed\n")
    assert callers_of(source, "Packed") == [("<module>", 1), ("f", 3)]


def test_layouts_are_built_only_by_the_shared_cache():
    # A layout is shared and immutable, so there is one way to get one,
    # autodiff.packed, and only its cache, _layouts, constructs Packed.
    found = {path.name: [where for where, _ in
                         callers_of(path.read_text(), "Packed")]
             for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {
        "autodiff.py": ["_layouts"]}


def test_encodings_are_built_only_by_encode():
    # One encode call, one set of rows: every head takes the Encoding
    # FrameParser.encode made, and addresses its sentences by index.
    found = {path.name: [where for where, _ in
                         callers_of(path.read_text(), "Encoding")]
             for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {"model.py": ["encode"]}


def test_only_entry_points_prepare():
    # Every model pass takes Prepared sentences, so each public entry
    # point prepares a sentence once and passes the preps on: train()
    # scores every epoch's dev metric on the dev preps it built.
    found = {path.name: [where for where, _ in
                         callers_of(path.read_text(), "prepare")]
             for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {
        "cli.py": ["cmd_gradcheck"], "evaluation.py": ["evaluate"],
        "model.py": ["parse_many"], "trace.py": ["generate_trace"],
        "training.py": ["_prepared"]}


def readers_of(source: str, attr: str) -> list[str]:
    """The scope ("Class.method", "function" or "<module>") of each read
    of ``anything.attr``; assignments to it are not reads."""
    found = []

    def visit(node, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, child.name if where == "<module>"
                      else f"{where}.{child.name}")
                continue
            if (isinstance(child, ast.Attribute) and child.attr == attr
                    and isinstance(child.ctx, ast.Load)):
                found.append(where)
            visit(child, where)
    visit(ast.parse(source), "<module>")
    return found


def test_reader_detector():
    source = ("class S:\n    def __init__(self, x):\n        self._x = x\n"
              "    def get(self):\n        return self._x\n"
              "def peek(s):\n    return s._x\n"
              "y = S(1)._x\n")
    assert readers_of(source, "_x") == ["S.get", "peek", "<module>"]


def test_only_param_store_add_reads_the_checkpoint():
    # ParamStore.add is the one place that decides a parameter's values:
    # the checkpoint's array if the store holds one, else the init.
    found = {path.name: sorted(set(readers_of(path.read_text(), "_saved")))
             for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {
        "layers.py": ["ParamStore.add"]}


def test_only_batch_losses_reads_gold_in_the_model():
    # A prepared sentence holds only its vocabulary ids; the one place
    # the model reads gold annotations is where it scores them.
    found = readers_of((SRC / "model.py").read_text(), "annotations")
    assert set(found) == {"FrameParser.batch_losses"}


def unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads; ``from
    __future__`` imports are directives, not names."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_unused_import_detector():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from . import autodiff as ad\nfrom .model import A, B\n"
              "def f():\n    return os.path.join(A, np.pi)\n")
    assert unused_imports(source) == ["B", "ad"]


def test_every_import_is_used():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def imported_modules(source: str) -> set[str]:
    """The top-level names of the absolute imports of a module."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_import_detector():
    source = ("import ctypes.util\nfrom os import path\n"
              "from . import ctypes_like\nimport numpy as np\n")
    assert imported_modules(source) == {"ctypes", "os", "numpy"}


def test_only_training_reaches_the_allocator():
    # The malloc settings are process-wide, so one module owns them:
    # train() keeps its steps' freed heap for the run and trims it after.
    found = {path.name: [where for where, _ in
                         callers_of(path.read_text(), "CDLL")]
             for path in sorted(SRC.glob("*.py"))
             if "ctypes" in imported_modules(path.read_text())}
    assert found == {"training.py": ["_malloc_calls"]}
