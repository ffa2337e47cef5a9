"""Start ``python -m repro serve`` with the per-layer span wrappers.

Used only by the traced ``serve-jobs`` run, so that the server's
``--trace`` file holds the same layer spans as an in-process traced
run::

    python3 perfbench/serve_shim.py <src-dir> serve --store DIR --trace FILE ...
"""

import sys

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    import repro.cli
    import repro.serve  # noqa: F401  (bound before the wrappers go in)
    from layers import Layers

    Layers().install()
    raise SystemExit(repro.cli.main(sys.argv[2:]))
