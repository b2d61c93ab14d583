"""Inert stand-in for the retired shared-memory result transport.

perfbench/harness.py:49 imports these two names.  Every pooled job runs
on threads and hands its result over in-process, so both report an
idle transport.
"""

from typing import Dict, List


def shm_stats() -> Dict[str, int]:
    """Transport counters, all zero."""
    keys = ("bytes_zero_copy", "bytes_pickled", "fallbacks", "segments_live")
    return dict.fromkeys(keys, 0)


def live_segments() -> List[str]:
    """Names of live segments: always none."""
    return []
