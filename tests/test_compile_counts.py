"""What a cold front end compiles — as counts.

``tiny_cold_frontend`` clears the kernel cache before every item, so
every kernel lookup of its round compiles.  Compile time follows the
number of statements compiled, and a lookup that compiled says how
many (``KernelLookup.statements``); unlike the milliseconds beside
them, both counts repeat exactly.  The round here is that workload's
mix, built without ``perf/``.
"""

from __future__ import annotations

import ast

import pytest

import repro
from repro.hardware.traffic import Profile
from repro.kernels.codegen import (
    clear_kernel_cache,
    generate_compound_kernel,
    generate_count_kernel,
    generate_write_kernel,
)
from repro.plan import extract_pipelines
from repro.workloads import SSB_QUERIES, TPCH_PLANS, ssb_plan, tpch_plan

#: What one cold round compiles: a compound kernel per pipeline for
#: ``resolution`` and one multi-pass kernel per pipeline, shared by its
#: count and write launches (381 kernels of 1,675 statements mean the
#: two phases compile apart again).
ROUND_COMPILES = 254
ROUND_STATEMENTS = 1_380

COMPILED_ENGINES = ("resolution", "resolution-we", "pipelined", "vector", "multipass")


@pytest.fixture(scope="module")
def databases():
    return (
        repro.generate_ssb(scale_factor=0.001, seed=1),
        repro.generate_tpch(scale_factor=0.001, seed=1),
    )


def _cold_round(ssb, tpch) -> tuple[int, int, int]:
    """(compiles, statements compiled, cache hits) of one round: the 13
    SSB statements and the 16 TPC-H plans, rebuilt per execution, on
    ``resolution`` and ``multipass``, the kernel cache cleared before
    each item."""
    sessions = {"ssb": repro.connect(ssb), "tpch": repro.connect(tpch)}
    compiles = statements = hits = 0
    for engine in ("resolution", "multipass"):
        items = [("ssb", sql) for _name, sql in sorted(SSB_QUERIES.items())]
        items += [("tpch", name) for name in sorted(TPCH_PLANS)]
        for session, query in items:
            if session == "tpch":
                query = tpch_plan(query, tpch)
            clear_kernel_cache()
            result = sessions[session].execute(query, engine=engine)
            for lookup in result.profile.lookups:
                hits += lookup.hit
                compiles += not lookup.hit
                statements += lookup.statements
    return compiles, statements, hits


def test_cold_round_compiles_one_kernel_per_pipeline(databases):
    first = _cold_round(*databases)
    compiles, statements, hits = first
    assert hits == 0
    assert compiles == ROUND_COMPILES
    assert statements <= ROUND_STATEMENTS
    assert _cold_round(*databases) == first


def _statements(source: str) -> int:
    """Statements of a kernel's body, counted with ``ast``."""
    tree = ast.parse(source)
    return sum(isinstance(node, ast.stmt) for node in ast.walk(tree)) - 1  # the def


def test_a_compile_counts_its_statements(databases):
    ssb, tpch = databases
    plans = [(ssb_plan(name, ssb), ssb) for name in sorted(SSB_QUERIES)]
    plans += [(tpch_plan(name, tpch), tpch) for name in sorted(TPCH_PLANS)]
    for plan, database in plans:
        for pipeline in extract_pipelines(plan, database).pipelines:
            for generate in (generate_compound_kernel, generate_count_kernel):
                clear_kernel_cache()
                log = Profile()
                kernel = generate(pipeline, log)
                (lookup,) = log.lookups
                assert not lookup.hit
                assert lookup.statements == _statements(kernel.source)
            # The write phase's kernel is the count phase's object.
            hit = Profile()
            assert generate_write_kernel(pipeline, hit) is kernel
            assert [(entry.hit, entry.statements) for entry in hit.lookups] == [(True, 0)]


@pytest.mark.parametrize("engine", COMPILED_ENGINES)
def test_one_code_object_per_pipeline_per_execution(databases, engine):
    ssb, _tpch = databases
    clear_kernel_cache()
    session = repro.connect(ssb, engine=engine)
    for _name, sql in sorted(SSB_QUERIES.items()):
        pipelines = len(session.physical(sql).pipelines)
        for _execution in ("cold", "warm"):
            lookups = session.execute(sql).profile.lookups
            assert len(lookups) == pipelines
            assert len({lookup.name for lookup in lookups}) == pipelines
