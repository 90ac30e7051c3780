"""The one-device cases of the simulated-clock pin, each engine x
compression policy measured on its own.

``repro baseline`` (:mod:`repro.telemetry.baseline`) pins 41 plans x 5
engines x 2 compression policies, and the 13 SSB queries streamed out
of core under both, measured in one pass (``baseline_matrix``) and
compared with the committed store by ``repro baseline check``.  Here
each engine x policy slice, and each policy's streamed slice, is
measured again in its own test — on an empty layout memo, under the leak check —
and must equal its rows in that pass: launches (name, elements, meter),
times, bytes, device peak and the result **in output order** do not
depend on what the host memoized for other cases.
"""

from __future__ import annotations

import pytest

from repro.telemetry.baseline import COMPRESSION, ENGINES, measure


def _slice(matrix, engine, compression) -> list:
    return [case for case in matrix if case.endswith(f"|{engine}|{compression}")]


def test_the_pinned_matrix_is_complete(baseline_matrix):
    """The slices below cover every one-device case of the matrix."""
    one_device = {
        case for case in baseline_matrix if not case.startswith(("fleet:", "stream:"))
    }
    slices = [
        _slice(baseline_matrix, engine, compression)
        for engine in ENGINES
        for compression in COMPRESSION
    ]
    assert [len(cases) for cases in slices] == [13 + 16 + 9 + 3] * 10
    assert set().union(*slices) == one_device


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("compression", COMPRESSION)
def test_accounting_and_output_order_are_what_they_were(
    baseline_matrix, engine, compression
):
    cases = _slice(baseline_matrix, engine, compression)
    assert measure(cases) == {case: baseline_matrix[case] for case in cases}


@pytest.mark.parametrize("compression", COMPRESSION)
def test_streamed_accounting_and_output_order_are_what_they_were(baseline_matrix, compression):
    cases = [
        case for case in baseline_matrix
        if case.startswith("stream:") and case.endswith(f"|{compression}")
    ]
    assert len(cases) == 13
    assert measure(cases) == {case: baseline_matrix[case] for case in cases}
