"""Lightweight wall-clock timing helpers."""

from __future__ import annotations

import time


class Timer:
    """Context manager measuring wall-clock time with ``perf_counter``.

    Example::

        with Timer() as t:
            run_analysis()
        print(t.elapsed_s)
    """

    def __init__(self) -> None:
        self.start: float = 0.0
        self.elapsed_s: float = 0.0

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed_s = time.perf_counter() - self.start
