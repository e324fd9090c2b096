"""Session fixtures shared by the test modules."""

import importlib.util
import pathlib
import subprocess
import sys
import sysconfig

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def scan_c(tmp_path_factory):
    """The C scan kernel, built by setup.py into a temporary directory.

    The extension is optional, so without a C compiler or the Python headers
    setup.py warns and succeeds; the fixture then skips with the build's last
    output line as the reason.
    """
    out = tmp_path_factory.mktemp("scan_c")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out), "--build-temp", str(out)],
        cwd=ROOT, capture_output=True, text=True)
    path = out / "nearnormal" / ("_scan_c" + sysconfig.get_config_var("EXT_SUFFIX"))
    if not path.is_file():
        lines = (proc.stdout + proc.stderr).strip().splitlines() or ["no output"]
        pytest.skip(f"C scan kernel did not build (exit {proc.returncode}): {lines[-1]}")
    spec = importlib.util.spec_from_file_location("nearnormal._scan_c", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
