"""Deterministic parallel fan-out: results always merge in input order."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def thread_count() -> int:
    env = os.environ.get("SPIRAL_THREADS", "")
    if env.strip():
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


def parallel_map(fn, items, min_chunk: int = 4) -> list:
    """Map preserving order; falls back to serial for small inputs."""
    items = list(items)
    workers = thread_count()
    if workers <= 1 or len(items) < min_chunk:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
