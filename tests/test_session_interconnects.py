"""Session-level interconnect configuration and the NVLink argument."""

import inspect

import pytest

from repro.api import Session, connect
from repro.engines import CompoundEngine, OperatorAtATimeEngine
from repro.hardware import GTX970, NVLINK1, OPENCAPI, PCIE3, VirtualCoprocessor
from repro.workloads import ssb_plan


class TestSessionInterconnect:
    def test_custom_interconnect_changes_pcie_baseline(self, ssb_db):
        pcie = Session(ssb_db, device=GTX970, interconnect=PCIE3)
        nvlink = Session(ssb_db, device=GTX970, interconnect=NVLINK1)
        sql = "select sum(lo_revenue) as r from lineorder"
        slow = pcie.execute(sql)
        fast = nvlink.execute(sql)
        assert fast.pcie_ms < slow.pcie_ms
        assert fast.table.to_rows() == slow.table.to_rows()

    def test_kernel_time_is_link_independent(self, ssb_db):
        """The device-side work does not change with the link."""
        sql = "select sum(lo_revenue) as r from lineorder"
        pcie = Session(ssb_db, device=GTX970, interconnect=PCIE3).execute(sql)
        capi = Session(ssb_db, device=GTX970, interconnect=OPENCAPI).execute(sql)
        assert pcie.kernel_ms == pytest.approx(capi.kernel_ms)

    def test_connect_accepts_every_session_keyword(self, ssb_db):
        """``connect`` forwards to ``Session``; its hand-copied keyword
        list had already lost ``interconnect``."""
        assert connect(ssb_db, interconnect=NVLINK1).device.interconnect is NVLINK1
        keywords = list(inspect.signature(Session).parameters.values())[1:]
        assert len(keywords) >= 12
        for keyword in keywords:
            session = connect(ssb_db, **{keyword.name: keyword.default})
            assert isinstance(session, Session)


class TestSection9Argument:
    """'With upcoming OpenCAPI and NVLink interconnects, these
    improvements to GPU-local processing are essential to benefit from
    increased bandwidth of the new hardware.'"""

    def test_op_at_a_time_cannot_exploit_nvlink(self, ssb_db):
        plan = ssb_plan("q3.1", ssb_db)
        device = VirtualCoprocessor(GTX970, interconnect=NVLINK1)
        result = OperatorAtATimeEngine().execute(plan, ssb_db, device)
        # The faster link has made the kernels the bottleneck.
        assert result.kernel_ms > result.pcie_ms

    def test_compound_kernels_track_nvlink_far_better(self, ssb_db):
        plan = ssb_plan("q3.1", ssb_db)
        compound = CompoundEngine("lrgp_simd").execute(
            plan, ssb_db, VirtualCoprocessor(GTX970, interconnect=NVLINK1)
        )
        opaat = OperatorAtATimeEngine().execute(
            plan, ssb_db, VirtualCoprocessor(GTX970, interconnect=NVLINK1)
        )
        # Behind NVLink, the compound kernel stays several times closer
        # to the link rate than operator-at-a-time does.
        assert compound.kernel_ms / compound.pcie_ms < (
            opaat.kernel_ms / opaat.pcie_ms
        ) / 3

    def test_link_upgrade_factor(self, ssb_db):
        """Upgrading the link only helps engines that saturate it."""
        plan = ssb_plan("q1.1", ssb_db)
        compound_pcie = CompoundEngine().execute(
            plan, ssb_db, VirtualCoprocessor(GTX970, interconnect=PCIE3)
        )
        compound_nvlink = CompoundEngine().execute(
            plan, ssb_db, VirtualCoprocessor(GTX970, interconnect=NVLINK1)
        )
        opaat_pcie = OperatorAtATimeEngine().execute(
            plan, ssb_db, VirtualCoprocessor(GTX970, interconnect=PCIE3)
        )
        opaat_nvlink = OperatorAtATimeEngine().execute(
            plan, ssb_db, VirtualCoprocessor(GTX970, interconnect=NVLINK1)
        )
        compound_gain = compound_pcie.total_ms / compound_nvlink.total_ms
        opaat_gain = opaat_pcie.total_ms / opaat_nvlink.total_ms
        assert compound_gain > opaat_gain
