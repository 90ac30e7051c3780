"""The runtime :meth:`Engine.estimate_pipeline
<repro.engines.base.Engine.estimate_pipeline>` prices a query on: the
:class:`QueryRuntime` of an execution (the same ``load_source`` decides
what is wire-resident and what is decoded at load) over a device
stand-in that prices launches and counts loads but holds, moves and
runs nothing."""

from __future__ import annotations

from ..hardware.costmodel import KernelCostModel
from ..hardware.device import link_record
from ..hardware.traffic import KernelTrace, Profile, TrafficMeter
from ..kernels.context import count_column
from ..plan.logical import PlanSchema
from ..plan.physical import Pipeline
from ..primitives.hashtable import TableEstimate, charge_build_kernel, charge_inserts
from .runtime import QueryRuntime


class PricedLaunches:
    """What an estimate needs of a device: a launch is priced and a load
    logged as ``VirtualCoprocessor`` does it, nothing is stored."""

    def __init__(self, cost_model: KernelCostModel, interconnect, compression):
        self.cost_model = cost_model
        self.profile = cost_model.profile
        self.interconnect = interconnect
        self.compression = compression
        self.log = Profile()

    new_meter = staticmethod(TrafficMeter)

    def launch(self, name, kind, elements, meter, occupancy: float = 1.0) -> KernelTrace:
        trace = self.cost_model.trace(name, kind, elements, meter, occupancy)
        self.log.kernels.append(trace)
        return trace

    def transfer_to_device(self, arrays, label="", raw_nbytes=0, codec="") -> None:
        nbytes = sum(array.nbytes for array in arrays)
        self.log.transfers.append(
            link_record(self.interconnect, nbytes, "h2d", label, raw_nbytes, codec)
        )

    def allocate(self, array, label="") -> None:
        pass  # decode scratch: inside the estimator's working-set bound


class EstimateRuntime(QueryRuntime):
    """Per-query state of one estimate.  ``cardinalities`` supplies the
    two numbers only statistics can: ``selectivity(database, pipeline,
    predicate)`` and ``groups(database, pipeline, rows)``."""

    def __init__(self, cost_model, interconnect, database, cardinalities, compression):
        super().__init__(PricedLaunches(cost_model, interconnect, compression), database)
        self.cardinalities = cardinalities

    def selectivity(self, pipeline: Pipeline, predicate) -> float:
        return self.cardinalities.selectivity(self.database, pipeline, predicate)

    def groups(self, pipeline: Pipeline, rows: int) -> int:
        return self.cardinalities.groups(self.database, pipeline, rows)

    def register_virtual_rows(self, name: str, rows: int, schema: PlanSchema) -> None:
        arrays = {
            column: count_column(dtype.numpy_dtype, rows)
            for column, dtype in schema.dtypes.items()
        }
        self.register_virtual(name, arrays, schema)

    def build_table(self, pipeline: Pipeline, rows: int, keys, payload, meter=None) -> None:
        """Register the table ``pipeline``'s build sink leaves over the
        ``rows`` rows that reach it — one row each of its ``keys`` and
        ``payload`` columns is given — and charge its inserts to
        ``meter``: the kernel they are fused into, else (None) the
        stand-alone build kernel over materialized keys."""
        table_id, source_rows = pipeline.sink.table_id, self.source_rows(pipeline)
        table = self.hash_tables[table_id] = TableEstimate(
            rows=rows,
            match_fraction=rows / source_rows if source_rows else 0.0,
            key_bytes=sum(key.dtype.itemsize for key in keys),
            # At least a row each, for the one-row gathers of an estimate.
            payload={
                name: count_column(values.dtype, max(rows, 1)) for name, values in payload.items()
            },
        )
        if meter is not None:
            charge_inserts(meter, rows, table.attempts, table.max_contention)
        else:
            charge_build_kernel(
                self.device, table_id, rows, table.attempts, table.max_contention,
                rows * table.key_bytes,
            )

