"""FORK negative fixture: forks with no thread live across them."""

import threading
from concurrent.futures import ProcessPoolExecutor

_POOL_STATE = None


def _consume(bucket):
    return len(bucket)


def _scale_chunk(items):
    return [_POOL_STATE[i] for i in items]


def fork_before_spawn(items):
    pool = ProcessPoolExecutor(max_workers=2)  # no thread yet
    feeder = threading.Thread(target=_consume, args=(items,))
    feeder.start()
    feeder.join()
    pool.shutdown()
    return pool


def fork_after_join(items):
    feeder = threading.Thread(target=_consume, args=(items,))
    feeder.start()
    feeder.join()  # nothing lives across the fork
    with ProcessPoolExecutor(max_workers=2) as pool:
        return pool.submit(_consume, items).result()

