"""Peak-RSS measurement for benchmarks and the scaling harness.

``resource.getrusage`` reports the process-lifetime resident-set
high-water mark; ``ru_maxrss`` is in kilobytes on Linux and bytes on
macOS, which this module normalises.  The helper is child-process
aware: forked children (the serving fleet, lint's process pool)
contribute their own high-water marks through ``RUSAGE_CHILDREN``, so
a multi-process benchmark cannot under-report by hiding its
allocations in children.

Because the kernel counter is a lifetime maximum, per-phase deltas
cannot be measured in-process — the bench harness therefore runs each
measured point in a fresh subprocess and reads that child's peak.
"""

import sys
from typing import Optional

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

__all__ = ["peak_rss_bytes", "peak_rss_mib", "rss_supported"]


def rss_supported() -> bool:
    """Whether peak-RSS measurement is available on this platform."""
    return resource is not None


def _maxrss_bytes(usage) -> int:
    # Linux (and most Unixes) report ru_maxrss in KiB; macOS in bytes.
    if sys.platform == "darwin":
        return int(usage.ru_maxrss)
    return int(usage.ru_maxrss) * 1024


def peak_rss_bytes(include_children: bool = True) -> Optional[int]:
    """Lifetime peak resident set size of this process, in bytes.

    With ``include_children`` (the default) the result is the maximum
    of the caller's own high-water mark and the largest high-water mark
    among its *waited-for* children — i.e. worker pools are accounted
    once they have been joined.  Returns None when the platform has no
    ``resource`` module.
    """
    if resource is None:  # pragma: no cover - non-POSIX platforms
        return None
    peak = _maxrss_bytes(resource.getrusage(resource.RUSAGE_SELF))
    if include_children:
        children = _maxrss_bytes(resource.getrusage(resource.RUSAGE_CHILDREN))
        peak = max(peak, children)
    return peak


def peak_rss_mib(include_children: bool = True) -> Optional[float]:
    """Peak RSS in MiB (see :func:`peak_rss_bytes`), or None."""
    peak = peak_rss_bytes(include_children=include_children)
    if peak is None:  # pragma: no cover - non-POSIX platforms
        return None
    return peak / (1024 * 1024)
