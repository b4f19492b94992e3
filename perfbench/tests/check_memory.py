"""``peak_rss_mib`` is the workload process's own peak, not its launcher's."""

import numpy as np

import support

INFLATE_MIB = 200


def test_peak_rss_does_not_move_when_the_launcher_is_inflated(tmp_path):
    plain = support.workload_process("gap-sweep", tmp_path / "plain")
    ballast = np.ones(INFLATE_MIB * 1024 * 1024 // 8)  # touched, so resident
    try:
        inflated = support.workload_process("gap-sweep", tmp_path / "inflated")
    finally:
        del ballast
    assert abs(inflated["peak_rss_mib"] - plain["peak_rss_mib"]) < 0.05 * plain["peak_rss_mib"], \
        (plain["peak_rss_mib"], inflated["peak_rss_mib"])
    # The same inflation does reach ru_maxrss, which is what makes it the
    # wrong measure: this assertion shows the check above can fail.
    assert inflated["ru_maxrss_mib"] > inflated["peak_rss_mib"] + INFLATE_MIB / 2, \
        (inflated["ru_maxrss_mib"], inflated["peak_rss_mib"])
