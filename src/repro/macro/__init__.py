"""Macro execution models: run-to-finish, kernel-at-a-time, batch."""

from .batch import BatchExecutor, BatchResult
from .kernel_at_a_time import KernelAtATimeExecutor
from .models import (
    MacroMovement,
    batch_processing_movement,
    kernel_at_a_time_movement,
    run_to_finish,
)

__all__ = [
    "BatchExecutor",
    "BatchResult",
    "KernelAtATimeExecutor",
    "MacroMovement",
    "batch_processing_movement",
    "kernel_at_a_time_movement",
    "run_to_finish",
]
