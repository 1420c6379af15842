"""Fig 12k: array shadow plane — array interval store vs object map.

The ``--shadow array`` knob swaps the per-segment object
:class:`IntervalMap` inside the columnar engine's shadow memory for a
struct-of-arrays interval store (``core/interval_array.py``) whose
batched epoch operations — sort-and-sweep write-run assignment, the
code-level silent/fused flush remap, and the batched isPersist
pre-test — replace thousands of per-range carve/walk calls with a
handful of batched sweeps over ``array('q')`` columns.

This ablation isolates exactly what the knob changes: columns are
pre-decoded and epoch coalescing is off, so the timed region is the
shadow-update + checker-validate plane and nothing else.  The claim
gate (``test_fig12k_shadow_shape``) asserts the >= 2x min-of-rounds
speedup on the interval-heavy micro workload; the recorded rows and
derived ratios land in the benchmark JSON for the regression gate.
"""

import pytest

from _harness import (
    RESULTS,
    measure_shadow_speedup,
    pedantic,
    prepare_shadow_validate,
    record,
)
from repro.core.interval_array import SHADOW_NAMES


@pytest.mark.parametrize("shadow", SHADOW_NAMES)
def test_fig12k_shadow_ablation(benchmark, bench_rounds, shadow):
    """(k) shadow-plane ablation: replay the interval-heavy corpus
    (long same-site write runs, wide flushes, strided isPersist fans)
    on one columnar engine, varying only ``--shadow``."""
    pedantic(
        benchmark,
        bench_rounds,
        lambda: prepare_shadow_validate(shadow),
    )
    record("fig12k", (shadow,), benchmark)


def test_fig12k_shadow_shape(benchmark):
    """The tentpole claim: the array shadow validates interval-heavy
    epochs >= 2x faster than the object map, measured with interleaved
    min-of-rounds on a fixed workload size, independent of the
    smoke-scaling env knobs."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    best = measure_shadow_speedup()
    speedup = best["object"] / best["array"]
    assert speedup >= 2.0, (
        f"array shadow {speedup:.2f}x object on the interval-heavy micro "
        f"workload; the array-shadow claim needs >= 2.0x ({best})"
    )


def test_fig12k_verdicts_identical(benchmark):
    """Sanity row riding the bench corpus: both shadows produce the
    same verdict counts on the exact traces being timed (the byte-level
    differential lives in tests/core/test_shadow_array.py)."""
    from _harness import make_interval_heavy_cols
    from repro.core.engine_columnar import ColumnarCheckingEngine
    from repro.core.rules import X86Rules
    from repro.core.traceio import encode_result

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    cols = make_interval_heavy_cols(n_traces=2)
    wires = []
    for shadow in SHADOW_NAMES:
        engine = ColumnarCheckingEngine(
            X86Rules(), coalesce=False, shadow=shadow
        )
        wires.append(
            [encode_result(engine.check_trace(trace)) for trace in cols]
        )
    assert wires[0] == wires[1]
    mean_obj = RESULTS.get(("fig12k", ("object",)))
    mean_arr = RESULTS.get(("fig12k", ("array",)))
    if mean_obj and mean_arr:
        assert mean_arr < mean_obj, (mean_obj, mean_arr)
