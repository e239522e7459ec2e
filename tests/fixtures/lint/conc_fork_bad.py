"""FORK positive fixture: live threads at fork points."""

import threading
from concurrent.futures import ProcessPoolExecutor

_POOL_STATE = None


def _drain(bucket):
    bucket.append(1)


def _scale_chunk(items):
    return [_POOL_STATE[i] for i in items]


def fork_with_live_thread(items, bucket):
    feeder = threading.Thread(target=_drain, args=(bucket,))
    feeder.start()
    with ProcessPoolExecutor(max_workers=2) as pool:  # FORK001 direct
        return pool.submit(_drain, bucket).result()


def _start_feeder(bucket):
    feeder = threading.Thread(target=_drain, args=(bucket,))
    feeder.start()
    return feeder


def _build_pool():
    return ProcessPoolExecutor(max_workers=2)


def fork_via_helpers(items, bucket):
    _start_feeder(bucket)
    return _build_pool()  # FORK001 through both helpers

