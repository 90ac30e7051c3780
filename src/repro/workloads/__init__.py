"""Workloads: SSB, TPC-H, and the paper's micro-benchmarks."""

from .microbench import (
    aggregation_query,
    group_by_query,
    projection_query,
    selectivity_of,
    star_join_aggregate_query,
    star_join_query,
)
from .ssb import (
    ALL_SSB_SET,
    PAPER_SSB_SET,
    SSB_QUERIES,
    generate_ssb,
    ssb_plan,
    ssb_query_sql,
)
from .tpch import (
    PAPER_TPCH_SET,
    TABLE1_TPCH_SET,
    TPCH_PLANS,
    generate_tpch,
    tpch_plan,
)

__all__ = [
    "ALL_SSB_SET",
    "PAPER_SSB_SET",
    "PAPER_TPCH_SET",
    "SSB_QUERIES",
    "TABLE1_TPCH_SET",
    "TPCH_PLANS",
    "aggregation_query",
    "database_from_recipe",
    "generate_ssb",
    "generate_tpch",
    "group_by_query",
    "projection_query",
    "selectivity_of",
    "ssb_plan",
    "ssb_query_sql",
    "star_join_aggregate_query",
    "star_join_query",
    "tpch_plan",
]


def database_from_recipe(recipe: dict):
    """The database ``recipe`` names — ``{"data_dir": path}``: one
    persisted with ``repro generate``; ``{"workload": "ssb" | "tpch",
    ...}``: generated, the other keys (``scale_factor``, ``seed``,
    ``skew``) passed to the generator, whose defaults fill the rest.
    The CLI builds its databases from a recipe, and replay rebuilds a
    bundle's."""
    if recipe.get("data_dir"):
        from ..storage import load_database

        return load_database(recipe["data_dir"])
    options = dict(recipe)
    generate = {"ssb": generate_ssb, "tpch": generate_tpch}.get(options.pop("workload", None))
    if generate is None:
        from ..errors import ConfigurationError

        raise ConfigurationError(
            f"database recipe {recipe!r} names no workload; pass --data-dir "
            "(a database persisted with 'repro generate') to supply the input"
        )
    return generate(**options)
