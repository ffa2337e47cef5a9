"""Code generation: IR → executable Python source.

This plays the role of Clang's code emission in the paper: the adjoint
IR produced by :mod:`repro.core` (with the error-estimation statements
already inlined) is rendered to a flat Python function and compiled with
``compile``/``exec``.  Because the EE code is part of the generated
source, it benefits from the optimization pipeline (:mod:`repro.opt`)
exactly as CHEF-FP's EE code benefits from Clang's optimizer.
"""

from repro.codegen.pygen import generate_source
from repro.codegen.compile import (
    compile_primal,
    compile_raw,
    clear_config_kernel_cache,
    config_lane_kernel,
    lower_config_pool,
    CompiledFunction,
    ConfigLaneKernel,
    ConfigLoweringError,
    LoweredConfigPool,
)
from repro.codegen.npgen import (
    ConfigLaneProgram,
    UnvectorizableError,
    generate_batch_source,
    generate_config_lane_source,
)

__all__ = [
    "generate_source",
    "generate_batch_source",
    "generate_config_lane_source",
    "compile_primal",
    "compile_raw",
    "clear_config_kernel_cache",
    "config_lane_kernel",
    "lower_config_pool",
    "CompiledFunction",
    "ConfigLaneKernel",
    "ConfigLaneProgram",
    "ConfigLoweringError",
    "LoweredConfigPool",
    "UnvectorizableError",
]
