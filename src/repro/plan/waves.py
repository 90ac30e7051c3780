"""Sibling build pipelines: dependency waves and their groups.

A build pipeline of a star join depends on nothing its siblings build:
each dimension is filtered and hashed on its own.  The paper's
translation still runs them one after another, and on a coprocessor
each pays its own launches and its own link latency.  This rewrite
orders a query's non-final pipelines into *dependency waves* and marks
the build pipelines of each wave as one execution group
(:attr:`PhysicalQuery.groups`): an engine that can fuse them runs the
group's kernels as one launch per phase over the members' disjoint CTA
ranges (``Engine.run_group``; the idea of *Data Path Fusion in GPU for
Analytical Query Processing*).

The rewrite keeps every pipeline object and its name and only reorders
within what the dependencies allow, so results do not change.  It is
applied where a session or server resolves a plan
(:mod:`repro.serving.plan_cache`); :func:`extract_pipelines
<repro.plan.pipelines.extract_pipelines>` and a bare ``Engine.execute``
of a logical plan stay the paper's translation.
"""

from __future__ import annotations

from dataclasses import replace

from .physical import BuildSink, PhysicalQuery, ProbeStage


def group_sibling_builds(query: PhysicalQuery) -> PhysicalQuery:
    """``query`` with its non-final pipelines ordered by dependency
    wave and the builds of each wave grouped.

    A pipeline's wave is one more than the highest wave of any table it
    probes or virtual table it scans (0: it reads only base tables).
    Waves run in order; within a wave the builds come first, as one
    group, then the other pipelines (virtual-table producers) alone, in
    their original order.  The final pipeline stays last and alone.  A
    query with no two builds in one wave comes back as it is."""
    *body, final = query.pipelines
    wave: dict[str, int] = {}
    waves: dict[int, tuple[list, list]] = {}
    for pipeline in body:
        reads = [stage.table_id for stage in pipeline.stages if isinstance(stage, ProbeStage)]
        if pipeline.source_is_virtual:
            reads.append(pipeline.source)
        level = 1 + max((wave.get(name, -1) for name in reads), default=-1)
        wave[pipeline.output_name] = level
        builds, others = waves.setdefault(level, ([], []))
        (builds if isinstance(pipeline.sink, BuildSink) else others).append(pipeline)
    if all(len(builds) < 2 for builds, _ in waves.values()):
        return query
    pipelines, groups = [], []
    for level in sorted(waves):
        builds, others = waves[level]
        pipelines += builds + others
        groups += ([len(builds)] if builds else []) + [1] * len(others)
    return replace(
        query, pipelines=pipelines + [final], groups=tuple(groups) + (1,)
    )
