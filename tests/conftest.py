"""Shared fixtures."""

import pytest

from uiobeam import beamforming


@pytest.fixture
def steering_shapes(monkeypatch):
    """Shapes of the steering matrices the beamforming module builds while
    the test runs, in build order (clear the list to restart the count)."""
    shapes = []
    build = beamforming.steering_matrix

    def counted(cfg, thetas, count=None):
        out = build(cfg, thetas, count)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(beamforming, "steering_matrix", counted)
    return shapes
