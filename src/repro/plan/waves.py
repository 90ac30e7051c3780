"""The session rewrite: probe order, dependency waves and their groups.

A fact pipeline probes its hash tables in the reverse of the SQL join
order, whatever each build keeps.  A probe that is ``inner``, has no
residual and reads no payload of the probes beside it only drops rows
(build keys are unique) and gathers payload, so the rows that survive
a run of such probes, and their order, do not depend on the order of
the run: :func:`order_probes` runs each such run cheapest-first, by a
rank the optimizer reads off the builds' statistics
(:func:`repro.optimizer.cost.probe_ranks`).  A row dropped before a
probe is a probe — random global-memory traffic — never made.

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

Both rewrites keep every pipeline's name and every stage object and
only reorder within what the dependencies allow, so results do not
change.  They are one rewrite, :func:`session_plan`, applied where a
session or server resolves a plan
(:mod:`repro.serving.plan_cache`); :func:`extract_pipelines
<repro.plan.pipelines.extract_pipelines>` and a bare ``Engine.execute``
of a logical plan stay the paper's translation.
"""

from __future__ import annotations

from dataclasses import replace

from .physical import BuildSink, PhysicalQuery, Pipeline, ProbeStage


def session_plan(query: PhysicalQuery, ranks: dict[str, float]) -> PhysicalQuery:
    """The plan a session runs: ``query``'s probes ordered by ``ranks``
    (:func:`order_probes`), then its sibling builds grouped
    (:func:`group_sibling_builds`)."""
    return group_sibling_builds(order_probes(query, ranks))


def order_probes(query: PhysicalQuery, ranks: dict[str, float]) -> PhysicalQuery:
    """``query`` with every pipeline's runs of independent inner probes
    sorted by the rank of the table each probes, lowest first.

    A run is a maximal sequence of consecutive probe stages that are
    ``inner``, have no residual, probe a table ``ranks`` names, and
    whose keys read no payload an earlier probe of the run gathers.
    The sort is stable (ties keep their order) and keeps every stage
    object; a pipeline, or a query, with nothing to move comes back as
    it is."""
    pipelines = [_ordered(pipeline, ranks) for pipeline in query.pipelines]
    if all(new is old for new, old in zip(pipelines, query.pipelines)):
        return query
    return replace(query, pipelines=pipelines)


def _ordered(pipeline: Pipeline, ranks: dict[str, float]) -> Pipeline:
    stages: list = []
    run: list[ProbeStage] = []
    gathered: set[str] = set()

    def close() -> None:
        stages.extend(sorted(run, key=lambda stage: ranks[stage.table_id]))
        run.clear()
        gathered.clear()

    for stage in pipeline.stages:
        movable = (
            isinstance(stage, ProbeStage)
            and stage.kind == "inner"
            and stage.residual is None
            and stage.table_id in ranks
        )
        if not movable or any(key.columns() & gathered for key in stage.probe_keys):
            close()
        if movable:
            run.append(stage)
            gathered.update(stage.payload)
        else:
            stages.append(stage)
    close()
    if all(new is old for new, old in zip(stages, pipeline.stages)):
        return pipeline
    return replace(pipeline, stages=stages)


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
