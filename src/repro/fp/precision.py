"""IEEE-754 precision levels and round-to-precision helpers.

The paper's Eq. 1 error model needs the machine epsilon of each storage
precision; the ADAPT model (Eq. 2) needs the *demotion error*
``x - (float)x``.  Both are provided here, for scalars and numpy arrays.
"""

from __future__ import annotations

import struct
from typing import Union

import numpy as np

from repro.ir.types import DType, MACHINE_EPS

#: Machine epsilon of IEEE binary16 (half precision).
EPS_F16 = MACHINE_EPS[DType.F16]
#: Machine epsilon of IEEE binary32 (single precision).
EPS_F32 = MACHINE_EPS[DType.F32]
#: Machine epsilon of IEEE binary64 (double precision).
EPS_F64 = MACHINE_EPS[DType.F64]

_EPS_BY_DTYPE = {DType.F16: EPS_F16, DType.F32: EPS_F32, DType.F64: EPS_F64}


def eps_of(dtype: DType) -> float:
    """Machine epsilon of a floating dtype.

    :raises KeyError: for non-float dtypes (there is no rounding error to
        model for integers/booleans).
    """
    return _EPS_BY_DTYPE[dtype]


def round_f64(x: float) -> float:
    """Identity — Python floats *are* binary64."""
    return float(x)


_F32_MAX_ROUND = 3.4028235677973366e38  # halfway point to binary32 inf


def round_f32(x: float) -> float:
    """Round a double to the nearest binary32 value (returned as double).

    Uses ``struct`` round-tripping, which applies IEEE round-to-nearest-
    even — the default FP environment assumed by the paper.  Values
    beyond binary32 range overflow to ±inf, exactly as a C cast would
    (``struct.pack`` would instead raise).
    """
    if x > _F32_MAX_ROUND:
        return float("inf")
    if x < -_F32_MAX_ROUND:
        return float("-inf")
    return struct.unpack("f", struct.pack("f", x))[0]


_F16_MAX_ROUND = 65520.0  # halfway point to binary16 inf


def round_f16(x: float) -> float:
    """Round a double to the nearest binary16 value (returned as double).

    Magnitudes from the round-to-nearest-even overflow point up become
    ±inf, exactly what the cast itself returns — guarded here so the
    cast never warns.
    """
    if x >= _F16_MAX_ROUND:
        return float("inf")
    if x <= -_F16_MAX_ROUND:
        return float("-inf")
    return float(np.float16(x))


_ROUNDERS = {DType.F16: round_f16, DType.F32: round_f32, DType.F64: round_f64}
_NP_DTYPES = {DType.F16: np.float16, DType.F32: np.float32, DType.F64: np.float64}


def round_to(
    x: Union[float, np.ndarray], dtype: DType
) -> Union[float, np.ndarray]:
    """Round ``x`` (scalar or array) to ``dtype`` precision, kept in f64.

    Non-float dtypes are returned unchanged (integers carry no rounding
    error in this model).
    """
    if not dtype.is_float:
        return x
    if isinstance(x, np.ndarray):
        # overflow to ±inf is the intended IEEE result, not an error
        with np.errstate(over="ignore"):
            return x.astype(_NP_DTYPES[dtype]).astype(np.float64)
    return _ROUNDERS[dtype](x)


def demotion_error(
    x: Union[float, np.ndarray], dtype: DType = DType.F32
) -> Union[float, np.ndarray]:
    """The representation error introduced by demoting ``x`` to ``dtype``.

    This is the per-variable error term of the ADAPT model (paper Eq. 2):
    ``x - (float)x`` for ``dtype == F32``.
    """
    return x - round_to(x, dtype)
