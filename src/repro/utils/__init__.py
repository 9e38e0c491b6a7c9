"""Shared utilities: geometry primitives, validation helpers, table formatting.

These are deliberately dependency-free (stdlib only) so every other subpackage
can import them without cycles.
"""

from repro.utils.geometry import Offset, Window, bounding_window
from repro.utils.validation import check_positive
from repro.utils.tables import Table, format_float, format_si

__all__ = [
    "Offset",
    "Window",
    "bounding_window",
    "check_positive",
    "Table",
    "format_float",
    "format_si",
]
