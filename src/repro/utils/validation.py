"""Small argument-validation helpers.

Raising early with a precise message beats silently mis-configuring a design
space exploration that then runs for minutes.
"""

from __future__ import annotations

from typing import Union


def check_positive(name: str, value: Union[int, float]) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
