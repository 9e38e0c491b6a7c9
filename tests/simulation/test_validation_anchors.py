"""Validation anchors: ``validate_workload`` output pinned across commits.

The other ``validate`` tests compare against a live ``Session.validate``,
so a change that shifts validation output everywhere at once would pass
them.  ``tests/fixtures/validation_anchors.json`` pins, per case, the
sha256 of the sorted-key JSON of ``validate_workload(...).to_dict()``:

* kernels: blur, jacobi, heat and chamb from the registry, and the IGF C
  source through the C frontend;
* data formats fixed16 and fixed32, simulator modes region and expression;
* 48x40 frames, 3 iterations, windows (1, 2, 3) (validation simulates the
  widest window).

The comparison is exact.  A change meant to alter validation output
re-pins the fixture in the same change, with the difference explained.
Regenerate it with::

    PYTHONPATH=src python tests/simulation/test_validation_anchors.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict

import pytest

from repro.algorithms.gaussian import IGF_C_SOURCE
from repro.api import Workload
from repro.ir.operators import DataFormat
from repro.simulation import validate_workload

FIXTURE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "fixtures", "validation_anchors.json")

KERNELS = ("blur", "jacobi", "heat", "chamb", "igf_c")
FORMATS = (DataFormat.FIXED16, DataFormat.FIXED32)
MODES = ("region", "expression")
GEOMETRY = dict(frame_width=48, frame_height=40, iterations=3,
                window_sides=(1, 2, 3))

CASES = [f"{kernel}/{data_format.value}/{mode}"
         for kernel in KERNELS for data_format in FORMATS for mode in MODES]


def build_workload(kernel: str, data_format: DataFormat) -> Workload:
    if kernel == "igf_c":
        return Workload.from_c(IGF_C_SOURCE, data_format=data_format,
                               **GEOMETRY)
    return Workload.from_algorithm(kernel, data_format=data_format,
                                   **GEOMETRY)


def case_digest(case: str) -> str:
    kernel, format_name, mode = case.split("/")
    workload = build_workload(kernel, DataFormat(format_name))
    payload = validate_workload(workload, mode=mode).to_dict()
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def load_fixture() -> Dict[str, str]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def test_fixture_covers_every_case():
    assert sorted(load_fixture()) == sorted(CASES)
    assert len(CASES) == 20


@pytest.mark.parametrize("case", CASES)
def test_validation_matches_the_pinned_digest(case):
    assert case_digest(case) == load_fixture()[case]


def main() -> int:
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump({case: case_digest(case) for case in CASES}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
