"""Session fixtures shared by the test modules."""

import importlib.util
import json
import pathlib
import subprocess
import sys
import sysconfig
from importlib import resources

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCAN_C = ROOT / "src" / "nearnormal" / "_scan_c.c"


@pytest.fixture(scope="session")
def report_schema():
    """The JSON schema every suite report validates against."""
    return json.loads(resources.files("nearnormal").joinpath("data/report_schema.json").read_text())


@pytest.fixture(scope="session")
def build_scan_c(tmp_path_factory):
    """Build a C scan kernel from source text with setup.py; returns a function
    from the text to the loaded module.

    Each build copies the text into its own temporary tree and runs the
    project's setup.py there, so the tests never depend on a stale build and
    a mutated copy is built exactly like the kernel.  The extension is
    optional, so without a C compiler or the Python headers setup.py warns
    and succeeds; the build then skips with its last output line as the
    reason.
    """
    def build(source: str):
        tree = tmp_path_factory.mktemp("scan_c")
        (tree / SCAN_C.relative_to(ROOT)).parent.mkdir(parents=True)
        (tree / SCAN_C.relative_to(ROOT)).write_text(source)
        out = tree / "build"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "setup.py"), "build_ext",
             "--build-lib", str(out), "--build-temp", str(out)],
            cwd=tree, capture_output=True, text=True)
        path = out / "nearnormal" / ("_scan_c" + sysconfig.get_config_var("EXT_SUFFIX"))
        if not path.is_file():
            lines = (proc.stdout + proc.stderr).strip().splitlines() or ["no output"]
            pytest.skip(f"C scan kernel did not build (exit {proc.returncode}): {lines[-1]}")
        spec = importlib.util.spec_from_file_location("nearnormal._scan_c", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return build


@pytest.fixture(scope="session")
def scan_c(build_scan_c):
    """The C scan kernel, built from src/nearnormal/_scan_c.c."""
    return build_scan_c(SCAN_C.read_text())
