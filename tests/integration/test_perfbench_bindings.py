"""The benchmark's layer bindings still exist.

A traced ``perfbench`` run wraps each binding of ``perfbench/layers.py``
``TARGETS`` in a span, and silently skips one that is gone.  This reads
that table, changing nothing under ``perfbench/``, and resolves every
binding the way ``Tracer.install`` does, so a change that deletes or
renames a wrapped function fails here instead of dropping a layer from
the benchmark's table.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "perfbench"))
import layers  # noqa: E402

#: Bindings already gone: the explorer no longer imports
#: ``build_dfg_from_cone``, and ``explore_columnar`` was deleted.  The
#: benchmark change that drops them from ``TARGETS`` empties this set.
STALE = {"repro.dse.explorer.build_dfg_from_cone",
         "repro.dse.explorer.explore_columnar"}


@pytest.mark.parametrize("target", layers.TARGETS,
                         ids=lambda target: target.label)
def test_every_layer_binding_resolves(target):
    owner = layers._resolve_owner(target.owner)
    resolved = vars(owner).get(target.attr) is not None
    if target.label in STALE:
        assert not resolved, f"{target.label} is back: drop it from STALE"
    else:
        assert resolved, (f"{target.label} is gone: perfbench would no "
                          f"longer trace {target.span}")
