"""Build script for the compiled search kernels.

The kernels are one hand-written C file, ``_core.c``, so a build needs only
a C compiler:

    python setup.py build_ext --inplace

Only without a C compiler does the package fall back to the pure-Python
kernels, which it selects at import time when the extension is absent.
"""
from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "vapep._kernels._core",
            ["src/vapep/_kernels/_core.c"],
            extra_compile_args=["-O3"],
        )
    ]
)
