"""No definition in src/ is used only by tests.

A function, class or method that nothing in src/ names is code no command
runs; it belongs in tests/ beside its callers.  The scan is by name, like the
unused-import check.  A definition counts as used when an attribute of its
name is read anywhere in src/, so a method counts as used when an attribute
of that name is read on any object.  A bare name counts only where it can
mean the definition: in the defining module, or in a module that imports
that name (under any alias).  So a local variable ``rank`` elsewhere does not
keep a module-level ``rank`` alive.

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
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    names = {name: {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
             for name, tree in trees.items()}
    # bare names read in other modules, by the imported name they stand for
    imported = {alias.name for name, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names
                if (alias.asname or alias.name) in names[name]}
    return [f"{name} {qualified}" for name, tree in trees.items()
            for qualified, node in definitions(tree)
            if not exempt(node) and node.name not in attributes | names[name] | imported]


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
              "def go(): C().method()\n"
              "def imported(): pass\n"
              "def shadowed(): pass\n")
    # a local of the same name elsewhere is not a read of m.shadowed
    other = ("from m import imported as i\n"
             "shadowed = 1\n"
             "i(shadowed)\n")
    assert unread_definitions({"m.py": source, "n.py": other}) == ["m.py unused", "m.py shadowed"]


def test_src_defines_nothing_only_tests_use():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    assert unread_definitions(sources) == []
