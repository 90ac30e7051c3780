"""Kernel code generation and execution contexts."""

from .codegen import (
    CompiledKernel,
    generate_compound_kernel,
    generate_count_kernel,
    generate_write_kernel,
)
from .context import REDUCTION_MODES, EstimateContext, KernelContext

__all__ = [
    "CompiledKernel",
    "EstimateContext",
    "KernelContext",
    "REDUCTION_MODES",
    "generate_compound_kernel",
    "generate_count_kernel",
    "generate_write_kernel",
]
