"""No definition in src/ is used only by tests.

A function, class or method that nothing in src/ names is code no command
runs; it belongs in tests/ beside its callers.  The scan is by name, like the
unused-import check: a definition counts as used when its name is read as a
name or an attribute anywhere in src/, so a method counts as used when an
attribute of that name is read on any object.

Exempt are click commands and groups, which the CLI reaches through their
decorators, dunder methods, which Python calls, and ``_plmodel.py``: only
tests call that reference model, but ``perfbench/tracing.py`` imports it
until the benchmark drops its ``plmodel.*`` metrics.  Its reads are not
counted either, so it cannot keep test-only code alive.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXEMPT_FILES = {"_plmodel.py"}
SOURCES = sorted(p for p in ROOT.joinpath("src").rglob("*.py") if p.name not in EXEMPT_FILES)


def definitions(tree):
    """(qualified name, node) per module-level function or class and per
    method, nested classes included; closures inside functions are not
    definitions of the module."""
    found = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((owner + node.name, node))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{owner}{node.name}.")

    visit(tree.body, "")
    return found


def exempt(node) -> bool:
    if node.name.startswith("__") and node.name.endswith("__"):
        return True
    # @click.group(...), @main.command(...), @bs_cmd.command(...)
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def unread_definitions(sources: dict) -> list[str]:
    """'<file> <qualified name>' per definition whose name nothing reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    return [f"{name} {qualified}" for name, tree in trees.items()
            for qualified, node in definitions(tree)
            if not exempt(node) and node.name not in read]


def test_the_check_sees_a_definition_nothing_reads():
    source = ("import click\n"
              "def used(): pass\n"
              "def unused(): used()\n"
              "class C:\n"
              "    def __eq__(self, other): return True\n"
              "    def method(self): pass\n"
              "@click.group()\n"
              "def main(): pass\n"
              "@main.command(name='go')\n"
              "def go(): C().method()\n")
    assert unread_definitions({"m.py": source}) == ["m.py unused"]


def test_src_defines_nothing_only_tests_use():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    assert unread_definitions(sources) == []
