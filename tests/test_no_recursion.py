"""No function in ``condest`` calls itself by name: a tree walk runs on
an explicit stack (``trees.postorder``), so no input depth can exhaust
the interpreter's stack.  The deep-tree tests reach only some functions;
this scan covers every one."""

import ast
import pathlib

import condest


def _self_calls(source):
    """(function, line) of each call, in a function's body, to the
    function's own name or to ``self.name`` / ``cls.name``."""
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(fn):
            f = getattr(call, "func", None)
            if (isinstance(f, ast.Name) and f.id == fn.name
                    or isinstance(f, ast.Attribute) and f.attr == fn.name
                    and isinstance(f.value, ast.Name)
                    and f.value.id in ("self", "cls")):
                yield fn.name, call.lineno


def test_scan_finds_a_self_call():
    source = ("def walk(t):\n    return [walk(c) for c in t]\n"
              "class A:\n    def m(self):\n        return self.m()\n")
    assert list(_self_calls(source)) == [("walk", 2), ("m", 5)]


def test_no_function_calls_itself():
    package = pathlib.Path(condest.__file__).parent
    found = [(path.name, *hit) for path in sorted(package.glob("*.py"))
             for hit in _self_calls(path.read_text(encoding="utf-8"))]
    assert found == []
