"""Build script: compiles the optional C kernels ``semibiplane._speedups``.

Without a C compiler the build warns and the pure-Python kernels are used.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("semibiplane._speedups", ["src/semibiplane/_speedups.c"], optional=True)
    ],
    package_dir={"": "src"},
)
