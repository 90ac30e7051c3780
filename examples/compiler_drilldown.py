"""Compiler drilldown: see the kernels HorseQC generates.

Reproduces the paper's Appendix E experience: for SSB Q3.1 we print
the single compound kernel of the fully pipelined model and the one
kernel of the multi-pass model, whose count launch runs it up to the
flag write (Figure 8, left) and whose write launch runs it over the
flagged threads to the aligned writes (Figure 8, right), then compare the
per-kernel data movement of all three micro execution models
(Figures 6 vs 7 vs 10 made concrete).

Run:  python examples/compiler_drilldown.py
"""

from repro import generate_ssb
from repro.analysis import movement_breakdown, reduction_factor
from repro.engines import CompoundEngine, MultiPassEngine, OperatorAtATimeEngine
from repro.hardware import GTX970, VirtualCoprocessor
from repro.workloads import ssb_plan


def main() -> None:
    database = generate_ssb(scale_factor=0.01)
    plan = ssb_plan("q3.1", database)

    # --- generated kernel sources -----------------------------------
    compound_engine = CompoundEngine("lrgp_simd")
    compound_result = compound_engine.execute(plan, database, VirtualCoprocessor(GTX970))
    final_pipeline = sorted(compound_engine.kernel_sources)[-1]
    print("=" * 72)
    print(f"Compound kernel for the fact pipeline ({final_pipeline}):")
    print("=" * 72)
    print(compound_engine.kernel_sources[final_pipeline])

    multipass_engine = MultiPassEngine()
    multipass_result = multipass_engine.execute(plan, database, VirtualCoprocessor(GTX970))
    # The count and write launches list the same source.
    listing = multipass_engine.kernel_sources[f"{final_pipeline}.count"]
    print("=" * 72)
    print(f"Multi-pass kernel ({final_pipeline}) — Figure 8: the count launch")
    print("stops at the flag write (left), the write launch runs past it (right)")
    print("=" * 72)
    print(listing)

    # --- movement comparison -----------------------------------------
    opaat_device = VirtualCoprocessor(GTX970)
    opaat_result = OperatorAtATimeEngine().execute(plan, database, opaat_device)

    print("=" * 72)
    print("Data movement, SSB Q3.1 (compare Figures 5/9/13):")
    print("=" * 72)
    baseline = movement_breakdown("operator-at-a-time", opaat_result, opaat_device)
    print(baseline.format())
    for label, result in (
        ("multi-pass", multipass_result),
        ("compound", compound_result),
    ):
        breakdown = movement_breakdown(label, result, VirtualCoprocessor(GTX970))
        print(breakdown.format())
        print(
            f"  -> {reduction_factor(baseline, breakdown):.1f}x less GPU global "
            "memory than operator-at-a-time"
        )


if __name__ == "__main__":
    main()
