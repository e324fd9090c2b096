"""Build hook: compile the hand-written C scan kernel, nearnormal._scan_c.

The extension is optional: without a C compiler or the Python headers the
build warns and goes on, and nearnormal.scan falls back to the pure-Python
kernel at import time.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("nearnormal._scan_c", ["src/nearnormal/_scan_c.c"],
                             optional=True)])
