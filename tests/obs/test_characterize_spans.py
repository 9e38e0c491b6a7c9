"""Spans below ``stage.characterize``: one per cone build and synthesis run,
and one per Equation-1 calibration, so a trace shows where characterization
time goes.  Characterization synthesizes the cone DAG and lowers nothing."""

import hashlib
import json

from repro.api import Session, Workload
from repro.obs import trace

LAYER_SPANS = ("cone.build", "synth.run", "area.calibrate")


def tiny_workload():
    return Workload.from_algorithm("blur", iterations=4,
                                   window_sides=(1, 2, 3), max_depth=2,
                                   max_cones_per_depth=3, frame_width=320,
                                   frame_height=240)


def digest(result):
    return hashlib.sha256(json.dumps(result.to_dict(),
                                     sort_keys=True).encode()).hexdigest()


def ancestors(span, by_id):
    parent = by_id.get(span["parent_id"])
    while parent is not None:
        yield parent
        parent = by_id.get(parent["parent_id"])


def test_characterization_layers_trace_below_the_stage():
    untraced = Session().run(tiny_workload())
    trace.enable()
    with trace.span("root") as root:
        traced = Session().run(tiny_workload())
    assert digest(traced) == digest(untraced)

    spans = trace.global_store().get(root.trace_id)
    by_id = {s["span_id"]: s for s in spans}
    for name in LAYER_SPANS:
        found = [s for s in spans if s["name"] == name]
        assert found, name
        for span in found:
            assert "stage.characterize" in {
                a["name"] for a in ancestors(span, by_id)}, name
            assert span["attributes"]["depth"] >= 1

    assert not [s for s in spans if s["name"] == "dfg.lower"]
    built = sorted((s["attributes"]["window"], s["attributes"]["depth"])
                   for s in spans if s["name"] == "cone.build")
    assert built == sorted(traced.exploration.characterizations)
    synthesized = sorted(
        (s["attributes"]["window"], s["attributes"]["depth"])
        for s in spans if s["name"] == "synth.run")
    assert synthesized == sorted(
        key for key, c in traced.exploration.characterizations.items()
        if c.synthesized)
