"""CHEF-FP core: reverse-mode AD with inline error estimation.

This package is the paper's primary contribution, reproduced:

* :mod:`repro.core.reverse` — the source-transformation adjoint generator
  (Fig. 2 structure; rules S1–S4),
* :mod:`repro.core.events` — the callback system through which extensions
  augment the generated adjoint (Clad's extension mechanism),
* :mod:`repro.core.estimation` — the Error Estimation Module,
* :mod:`repro.core.models` — error models (Taylor Eq. 1, ADAPT Eq. 2,
  FastApprox Algorithm 2, external user models),
* :mod:`repro.core.api` — :class:`ErrorEstimator` and ``gradient``
  (the analogues of ``clad::estimate_error``/``clad::gradient``); the
  error-estimation entry point is :meth:`repro.session.Session.estimate`.
"""

from repro.core.api import gradient, ErrorEstimator, Gradient
from repro.core.models import (
    ErrorModel,
    TaylorModel,
    AdaptModel,
    ApproxModel,
    CenaModel,
    ExternalModel,
)
from repro.core.report import ErrorReport, GradientResult

__all__ = [
    "gradient",
    "ErrorEstimator",
    "Gradient",
    "ErrorModel",
    "TaylorModel",
    "AdaptModel",
    "ApproxModel",
    "CenaModel",
    "ExternalModel",
    "ErrorReport",
    "GradientResult",
]
