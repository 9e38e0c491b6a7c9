"""Bad C source fails with a typed error, never a crash.

Seeded character-level mutations of the IGF C source go through the front
door (``Workload(c_source=...)``), then through ``Session.run``.  Each one
either succeeds or raises one of the flow's typed input errors: the ones
the service answers with a 400 at submit (``CParseError``,
``ExtractionError``, ``KernelValidationError``) or the ``PipelineError`` a
stage raises for a kernel it cannot compile.
"""

import random
from collections import Counter

import pytest

from repro.algorithms import IGF_C_SOURCE
from repro.api import PipelineError, Session, Workload
from repro.frontend import CParseError
from repro.frontend.dsl import stencil_kernel
from repro.frontend.extractor import ExtractionError
from repro.frontend.kernel_ir import KernelValidationError

TYPED_ERRORS = (CParseError, ExtractionError, KernelValidationError,
                PipelineError)
TINY = dict(iterations=2, window_sides=(1, 2), max_depth=1,
            max_cones_per_depth=1, frame_width=16, frame_height=16)
#: What a mutation may insert: C punctuation, digits, letters, whitespace.
ALPHABET = "+-*/%<>=!&|()[]{};,.?:#_0123456789xyfWHCEDint \n"
CASES = 300
SEED = 20261017


def mutate(source, rng):
    """``source`` with one to three character deletions, insertions or
    replacements."""
    chars = list(source)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(chars))
        edit = rng.choice(("delete", "insert", "replace"))
        if edit == "delete":
            del chars[at]
        elif edit == "insert":
            chars.insert(at, rng.choice(ALPHABET))
        else:
            chars[at] = rng.choice(ALPHABET)
    return "".join(chars)


def compile_c(source):
    """Run ``source`` through the flow; return the outcome."""
    try:
        Session().run(Workload(c_source=source, **TINY))
    except TYPED_ERRORS as error:
        return type(error).__name__
    return "accepted"


def test_mutated_c_sources_fail_only_with_typed_errors():
    rng = random.Random(SEED)
    outcomes = Counter()
    for _ in range(CASES):
        source = mutate(IGF_C_SOURCE, rng)
        try:
            outcomes[compile_c(source)] += 1
        except Exception as error:  # an untyped failure: show the input
            pytest.fail(f"{type(error).__name__}: {error}\n{source}")
    assert sum(outcomes.values()) == CASES
    # the fuzz exercises both sides: rejected and compiled sources
    assert outcomes["CParseError"] and outcomes["accepted"]


def test_a_constant_zero_divisor_is_rejected_by_analyze():
    source = IGF_C_SOURCE.replace("W_C * f[y][x]", "W_C * f[y][x] / 0", 1)
    assert source != IGF_C_SOURCE
    assert compile_c(source) == "PipelineError"
    session = Session()
    with pytest.raises(PipelineError, match="constant zero"):
        session.run(Workload(c_source=source, **TINY))
    assert session.stats.synthesis_runs == 0


def test_a_divisor_that_folds_to_zero_is_rejected_by_analyze():
    source = IGF_C_SOURCE.replace("W_C * f[y][x]",
                                  "W_C * f[y][x] / (f[y][x] - f[y][x])", 1)
    events = []
    session = Session(on_event=events.append)
    with pytest.raises(PipelineError, match="constant zero"):
        session.run(Workload(c_source=source, **TINY))
    assert [event.stage for event in events
            if event.kind == "stage-started"] == ["frontend", "analyze"]
    assert session.stats.synthesis_runs == 0


def negative_root_dsl_kernel():
    def define(k):
        f = k.field("f")
        k.update(f, f(0, 0) + k.sqrt(0.0 - k.param("c", 1.0)))

    return stencil_kernel("k", define)


@pytest.mark.parametrize("workload, operand", [
    (lambda: Workload(c_source=IGF_C_SOURCE.replace(
        "W_C * f[y][x]", "W_C * f[y][x] + sqrtf(0.0f - 1.0f)", 1), **TINY),
     "(0.0 - 1.0)"),
    (lambda: Workload(kernel=negative_root_dsl_kernel(), **TINY),
     "(0.0 - c)"),
], ids=["c-source", "dsl"])
def test_a_square_root_of_a_negative_constant_is_rejected_by_analyze(
        workload, operand):
    events = []
    session = Session(on_event=events.append)
    with pytest.raises(PipelineError) as raised:
        session.run(workload())
    assert str(raised.value).endswith(
        f"takes the square root of {operand}, which folds to the negative "
        f"constant -1.0")
    assert [event.stage for event in events
            if event.kind == "stage-started"] == ["frontend", "analyze"]
    assert session.stats.synthesis_runs == 0
