"""Checks of the benchmark's sample statistics.

    python3 -m pytest -q perfbench/test_run.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import combine, tail_index  # noqa: E402


def test_tail_is_never_below_the_90th_percentile():
    assert tail_index(12) == 10    # rotations: the second-slowest of 12
    assert tail_index(40) == 35
    assert tail_index(64) == 57
    assert tail_index(200) == 189  # ten samples beyond it
    assert all(tail_index(n) >= (n - 1) // 2 for n in range(1, 300))


def done(seconds, sha="a"):
    return {"outcome": "done", "seconds": seconds, "wall_s": seconds, "rss_mb": 50.0,
            "exit": 0, "sha256": sha, "bytes": 1, "facts": {}}


def test_combine_takes_the_median_and_checks_the_bytes():
    result = combine([done(0.3), done(0.1), done(0.2)])
    assert result["seconds"] == 0.2 and result["runs"] == 3
    assert combine([done(0.3), done(0.2, sha="b"), done(0.2)])["outcome"] == "error"
    stopped = {"outcome": "stopped", "seconds": 0.6, "wall_s": 0.6, "rss_mb": 50.0}
    assert combine([done(0.3), stopped, done(0.2)]) is stopped
