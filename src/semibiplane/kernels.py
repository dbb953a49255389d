"""Kernel backend selection.

The C extension ``semibiplane._speedups`` (built by
``python setup.py build_ext --inplace``) is used when importable; otherwise
the pure-Python kernels are imported and take over. Set the environment
variable ``SEMIBIPLANE_PURE=1`` before import to force the pure backend.

Both backends take the same arguments. ``semiplanar_witness`` and
``coset_labels`` take the codomain order n apart from the domain order k,
so they also handle tables G -> H of unequal orders.
"""

from __future__ import annotations

import os

BACKEND: str = "pure-python"
if not os.environ.get("SEMIBIPLANE_PURE"):
    try:
        from . import _speedups as _impl
        BACKEND = "compiled"
    except ImportError:
        pass
if BACKEND == "pure-python":
    from . import _kernels_py as _impl  # type: ignore[no-redef]

semiplanar_witness = _impl.semiplanar_witness
search_tables = _impl.search_tables
shift_tables = _impl.shift_tables
format_tables = _impl.format_tables
coset_labels = _impl.coset_labels
