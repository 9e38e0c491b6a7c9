"""Bring your own ISL: from a C kernel you wrote to VHDL and a design space.

The flow's input is plain C (Algorithm 1 of the paper).  This example defines
a new algorithm — an iterated anisotropic-like smoothing step — directly as C
source, then:

* extracts the stencil kernel and verifies the ISL properties
  (domain narrowness, translation invariance),
* inspects the dependency cone geometry,
* runs a quick design-space exploration,
* emits the VHDL entity of one cone.

Run with::

    python examples/custom_kernel_from_c.py
"""

from __future__ import annotations

from repro import Session, Workload
from repro.flow.report import pareto_table
from repro.ir.operators import DataFormat
from repro.symbolic.cone_expression import ConeExpressionBuilder
from repro.symbolic.invariance import verify_kernel

MY_KERNEL_C = """
/* One step of an edge-preserving smoothing filter: the centre element moves
 * towards the average of its axis neighbours, but never further than a
 * fixed clamp (a cheap approximation of anisotropic diffusion). */
#define RATE 0.35f
#define CLAMP 0.05f

void smooth(float out[H][W], const float u[H][W]) {
    for (int y = 1; y < H - 1; y++) {
        for (int x = 1; x < W - 1; x++) {
            float average = 0.25f * (u[y][x + 1] + u[y][x - 1]
                                   + u[y + 1][x] + u[y - 1][x]);
            float delta = RATE * (average - u[y][x]);
            float limited = fminf(fmaxf(delta, -CLAMP), CLAMP);
            out[y][x] = u[y][x] + limited;
        }
    }
}
"""


def main() -> None:
    workload = Workload.from_c(
        MY_KERNEL_C,
        data_format=DataFormat.FIXED16,
        frame_width=640,
        frame_height=480,
        iterations=8,
        window_sides=(1, 2, 3, 4),
        max_depth=4,
        max_cones_per_depth=6,
    )
    kernel = workload.resolve_kernel()

    print("extracted kernel:")
    print(kernel)
    report = verify_kernel(kernel)
    print(f"ISL verification: translation invariant={report.is_translation_invariant}, "
          f"domain narrow={report.is_domain_narrow} "
          f"(radius {report.radius}, {report.footprint_size} reads)")
    print()

    cone = ConeExpressionBuilder(kernel).build(window_side=2, depth=3)
    print("cone (window 2x2, depth 3):")
    print(f"  input window : {cone.domain.input_window.width}x"
          f"{cone.domain.input_window.height} elements")
    print(f"  registers    : {cone.register_count} (with data reuse)")
    print(f"  operations   : {cone.operation_count}")
    print()

    session = Session()
    result = session.run(workload)
    print(pareto_table(result.pareto, title="Pareto set for the custom kernel"))
    best = result.best_fitting_point()
    print(f"\nbest on device: {best.summary()}\n")

    files = session.generate_vhdl(workload, point=best)
    entity = next(name for name in sorted(files) if name.endswith(".vhd")
                  and "pkg" not in name and "top" not in name)
    print(f"--- head of {entity} ---")
    print("\n".join(files[entity].splitlines()[:14]))


if __name__ == "__main__":
    main()
