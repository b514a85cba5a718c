"""One map over independent tasks in forked worker processes.

Two steps split into tasks that hold the GIL and share driver data far
larger than what each returns: training the partition IVFs
(``index.layout``), which read the corpus rows, and searching a batch's
routed partitions (``exec.local_engine``), which read the built index.
``fork_map`` runs such tasks in a ``fork`` ``ProcessPoolExecutor``. The
shared data goes into a module-level slot just before the pool starts
and is cleared in ``finally``; the workers are forked, so they inherit
it, and a task sends only its key and returns only its result.

The pool closes before ``fork_map`` returns, so no worker outlives the
call, and a task's exception is raised by ``fork_map``. The driver's
objects are frozen (``gc.freeze``) while the pool is open, so a worker's
garbage collection neither copies the driver's heap nor finalizes the
driver's garbage. With a width of 1 or less, or where ``fork`` does not
exist, the tasks run inline and no process starts. Each task is the same
call wherever it runs, so the results do not depend on the pool.
DESIGN.md §5 has the measurements, the reasons for ``fork`` over
``spawn`` and the caveat about forking beside PySpark's threads.
"""
from __future__ import annotations

import gc
import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Hashable, Iterable

# The ``staged`` argument of the open ``fork_map`` call, else None.
_STAGED = None


def _run_staged(fn: Callable, key: Hashable):
    return fn(_STAGED, key)


def fork_map(
    fn: Callable, staged, keys: Iterable[Hashable], width: int
) -> dict:
    """``{key: fn(staged, key)}`` for ``keys``, submitted in their order.

    ``fn`` must be a module-level function (a task pickles it by name).
    With ``width`` above 1 the calls run in ``width`` forked workers, else
    inline in this process.
    """
    global _STAGED
    if width <= 1 or "fork" not in mp.get_all_start_methods():
        return {key: fn(staged, key) for key in keys}
    _STAGED = staged
    # Frozen objects are left alone by the workers' garbage collections: a
    # worker that collected the driver's uncollected cycles would run their
    # finalizers, and py4j's send the JVM commands on the driver's sockets.
    gc.freeze()
    try:
        with ProcessPoolExecutor(width, mp_context=mp.get_context("fork")) as pool:
            futures = {key: pool.submit(_run_staged, fn, key) for key in keys}
            return {key: f.result() for key, f in futures.items()}
    finally:
        gc.unfreeze()
        _STAGED = None
