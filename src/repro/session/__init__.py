"""Session facade: shared resources + the whole workflow as methods.

* :class:`Session` — owns the estimator memo, sweep cache, run store,
  and default models; exposes ``estimate`` / ``sweep`` / ``tune`` /
  ``search`` / ``plan`` / ``runs`` (see :mod:`repro.session.session`);
* :class:`SessionConfig` — the frozen, JSON-serializable defaults with
  a stable content fingerprint (see :mod:`repro.session.config`);
* :class:`RunsView` — run-store list/compare/prune/diff, the object
  behind ``session.runs()`` and ``python -m repro runs`` (see
  :mod:`repro.session.runs`);
* :mod:`repro.session.ops` — the estimate / sweep / tune / analyze /
  search operations on a named app scenario, declared once for the
  CLI, the job server and plan files.
"""

from repro.session.config import SessionConfig
from repro.session.runs import RunsView
from repro.session.session import Session

__all__ = ["RunsView", "Session", "SessionConfig"]
