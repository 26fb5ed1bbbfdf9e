"""Beam-pattern walkthrough: zero-force four beams toward the UAV azimuths,
confirm the nulls each beam places on the other users, and show the main
lobe narrowing when the central array doubles from 64 to 128 elements. The
full pattern grid is written to beam_patterns.csv for plotting.
"""

import numpy as np

from uiobeam import ArrayConfig, beam_pattern, beamformer
from uiobeam.beamforming import half_power_width, steering_matrix
from uiobeam.simulate import write_csv

UAV_AZIMUTHS = np.array([0.10, 0.60, -0.40, 1.00])  # rad


def main():
    cfg = ArrayConfig.at_carrier(64, 4, 30.0e9)
    beams = beamformer(cfg, UAV_AZIMUTHS)
    cross = np.abs(steering_matrix(cfg, UAV_AZIMUTHS).T @ beams.f)
    print("=== zero-forcing cross-gain matrix |a^T(theta_j) f_i| ===")
    with np.printoptions(precision=2, suppress=False):
        print(cross)
    print(f"worst off-diagonal leakage: {np.max(cross - np.diag(np.diag(cross))):.2e}")
    print()

    grid_deg = np.linspace(-89.75, 89.75, 1437)
    (gains_db,) = beam_pattern(cfg, [beams.f], np.deg2rad(grid_deg))
    columns = [np.repeat(grid_deg, 4), np.tile(np.arange(4), grid_deg.size), gains_db]
    count = write_csv("beam_patterns.csv", ["theta_deg", "beam_id", "gain_db"], columns)
    print(f"wrote beam_patterns.csv ({count} rows)")
    print()

    print("=== main-lobe width vs array size (single beam at 0.25 rad) ===")
    widths = {}
    for m_ce in (64, 128):
        big = ArrayConfig.at_carrier(m_ce, 4, 30.0e9)
        single = beamformer(big, [0.25])
        local = 0.25 + np.linspace(-0.1, 0.1, 20001)
        widths[m_ce] = half_power_width(local, beam_pattern(big, [single.f], local)[0][:, 0])
        print(f"M_CE = {m_ce:>3}: -3 dB width = {np.rad2deg(widths[m_ce]):.3f} deg")
    print(f"ratio 128/64 = {widths[128] / widths[64]:.3f} (expected ~0.5)")


if __name__ == "__main__":
    main()
