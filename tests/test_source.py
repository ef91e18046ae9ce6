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
