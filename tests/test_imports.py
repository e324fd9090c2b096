"""No module in src/, tests/ or benchmarks/ imports a name it never uses."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted([*ROOT.joinpath("src").rglob("*.py"), *ROOT.joinpath("tests").rglob("*.py"),
                *ROOT.joinpath("benchmarks").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Imported names that the module neither reads nor lists in __all__."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.path)\n") == ["line 1: os"]
    assert unused_imports("from m import a, b as c\n__all__ = ['a']\nc()\n") == []


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)} {problem}"
             for path in FILES for problem in unused_imports(path.read_text())]
    assert found == []


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules a source imports, relative ones left out."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_no_source_module_imports_dataclasses():
    # the decorator writes out and execs its methods at every import, about
    # 9 ms of each command's start-up; groups.Frozen holds the same policy
    assert imported_modules("import dataclasses as d\nfrom .x import y\n") == {"dataclasses"}
    found = [str(path.relative_to(ROOT)) for path in ROOT.joinpath("src").rglob("*.py")
             if "dataclasses" in imported_modules(path.read_text())]
    assert found == []


def test_no_source_module_imports_click():
    # the CLI parses its arguments from its own command table; importing click
    # cost about 10 ms and 1.4 MiB at every command's start-up
    found = [str(path.relative_to(ROOT)) for path in ROOT.joinpath("src").rglob("*.py")
             if "click" in imported_modules(path.read_text())]
    assert found == []
