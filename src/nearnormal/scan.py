"""Scan-kernel facade: the C kernel when it is built, pure Python otherwise.

`_scan_c` is a hand-written C extension (src/nearnormal/_scan_c.c) that
setup.py builds when a C compiler and the Python headers exist; the build
is optional, so without them the package installs and this module falls
back to `_scan_py`.  Both kernels take the same arguments and return the
same report; BACKEND says which one is active.
"""

from __future__ import annotations

try:
    from ._scan_c import thompson_agreement_scan

    BACKEND = "compiled"
except ImportError:
    from ._scan_py import thompson_agreement_scan

    BACKEND = "python"

__all__ = ["thompson_agreement_scan", "BACKEND"]
