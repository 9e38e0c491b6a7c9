"""Vectorized-path selection for the simulation layer.

PR 4 established the discipline for fast paths: the vectorized
implementation is the default, the scalar implementation is preserved as a
``*_scalar`` differential oracle, and the fast path is only taken when it
provably computes the same function — i.e. when none of the scalar hooks it
mirrors have been overridden (see :func:`repro.dse.engine.supports_batch`).

The simulation classes opt in by declaring ``_vectorized_hooks``: the names
of the scalar methods their vectorized path shadows.  A subclass that
overrides any of those hooks (customizing per-pixel or per-tile semantics)
automatically falls back to the scalar loop, so its overrides are honored —
just not vectorized.  Overriding the vectorized entry point itself is always
allowed; it replaces the fast path wholesale.
"""

from __future__ import annotations


def supports_vectorized(obj: object) -> bool:
    """Whether ``obj`` may take its vectorized fast path.

    True iff every scalar hook named in the nearest ``_vectorized_hooks``
    declaration along ``type(obj).__mro__`` is still the declaring class's
    own implementation.  Objects that never declare hooks (duck-typed
    stand-ins) answer False and are driven through the scalar path.
    """
    declaring = None
    for cls in type(obj).__mro__:
        if "_vectorized_hooks" in vars(cls):
            declaring = cls
            break
    if declaring is None:
        return False
    return all(
        getattr(type(obj), name, None) is getattr(declaring, name, None)
        for name in declaring._vectorized_hooks
    )
