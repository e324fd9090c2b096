"""Scan-kernel facade: the C kernel when it is built, pure Python otherwise.

`_scan_c` is a hand-written C extension (src/nearnormal/_scan_c.c) that
setup.py builds when a C compiler and the Python headers exist; the build
is optional, so without them the package installs and this module falls
back to `_scan_py`.  Both kernels take the same arguments and return the
same report; BACKEND says which one is active.  Both refuse the same
sizes: the compiled kernel's limits are checked here, before either runs.
"""

from __future__ import annotations

try:
    from ._scan_c import thompson_agreement_scan as _kernel

    BACKEND = "compiled"
except ImportError:
    from ._scan_py import thompson_agreement_scan as _kernel

    BACKEND = "python"

__all__ = ["thompson_agreement_scan", "BACKEND"]

# The compiled kernel's MAXLEN and EXP: words of at most 12 letters, and
# max_index + 2 * max_len + 4 <= 48 bits of its int64 dyadic grid.
MAX_LEN = 12
GRID_BITS = 48


def thompson_agreement_scan(max_len: int, max_index: int) -> dict:
    """Check engine-vs-model agreement on every freely reduced word of
    length <= max_len over indices <= max_index, on the active kernel.
    Sizes past the compiled kernel's limits raise ValueError with its
    messages on either kernel, so no scan of a refused size starts."""
    if max_len < 0 or max_index < 0:
        raise ValueError("max_len and max_index must be non-negative")
    if max_len > MAX_LEN:
        raise ValueError(f"max_len too large for compiled kernel (<= {MAX_LEN})")
    if max_index + 2 * max_len + 4 > GRID_BITS:
        raise ValueError(f"index range too large for compiled kernel: max_index + 2 * "
                         f"max_len + 4 must be <= {GRID_BITS} bits, so max_index <= "
                         f"{GRID_BITS - 4 - 2 * max_len} at max_len {max_len}")
    return _kernel(max_len, max_index)
