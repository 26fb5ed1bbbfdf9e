"""Shared fixtures."""

import importlib
import threading
import tracemalloc

import numpy as np
import pytest

from uiobeam import beamforming, linalg

# the package re-exports the function design(), which shadows the module name
design_module = importlib.import_module("uiobeam.design")


class SteeringShapes(list):
    """Shapes of steering allocations, in build order; an allocation of
    shape (..., count, N) holds one matrix per step of its leading axes."""

    def matrices(self, count, n=None):
        """Steering matrices with ``count`` rows (and ``n`` columns) built:
        the product of the leading dimensions of each such allocation."""
        return sum(int(np.prod(shape[:-2])) for shape in self
                   if shape[-2] == count and n in (None, shape[-1]))


@pytest.fixture
def steering_shapes(monkeypatch):
    """Shapes of the steering arrays the beamforming module allocates while
    the test runs, in build order (clear the list to restart the count); a
    step stack of C matrices is one (C, count, N) allocation, a pattern grid
    block of R points one (M_CE, R) allocation, and ``matrices`` counts
    matrices. Every matrix, whether steering_matrix or the steering_ahead
    stream fills it (the link's stream carries the pattern grid blocks of its
    snapshots after each chunk's two stacks), and on whichever thread, starts
    in one array allocated by _steering_arguments on the caller's thread,
    which is what is recorded."""
    shapes = SteeringShapes()
    allocate = beamforming._steering_arguments

    def counted(cfg, thetas):
        out = allocate(cfg, thetas)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(beamforming, "_steering_arguments", counted)
    return shapes


@pytest.fixture
def traced_peak():
    """A function that runs ``call()`` and returns the peak of the memory
    tracemalloc traced while it ran (numpy arrays included), in bytes above
    what was traced when it started; what ``call`` returns counts too."""

    def peak(call):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def definiteness_shapes(monkeypatch):
    """Shapes of the inputs given to linalg.check_definiteness while the test
    runs, in call order."""
    shapes = []
    check = linalg.check_definiteness

    def recorded(m, sense):
        shapes.append(np.shape(m))
        return check(m, sense)

    monkeypatch.setattr(linalg, "check_definiteness", recorded)
    return shapes


@pytest.fixture(autouse=True)
def dense_certificate_oracle(monkeypatch):
    """Every per-coordinate certificate verdict issued during a test (each
    design() call issues one) must equal the dense oracle feasible()
    at the same (P, Z, mu); the dense check runs after the test, with its
    patches undone."""
    issued = []
    certify = design_module.diagonal_feasible

    def recorded(prob, p_diag, z_diag, mu):
        verdict = certify(prob, p_diag, z_diag, mu)
        issued.append((prob, np.diag(p_diag), np.diag(z_diag), mu, verdict))
        return verdict

    monkeypatch.setattr(design_module, "diagonal_feasible", recorded)
    yield
    monkeypatch.undo()
    for prob, p, z, mu, verdict in issued:
        assert design_module.feasible(prob, p, z, mu) == verdict


@pytest.fixture(autouse=True)
def no_helper_thread_outlives_its_test():
    """After each test, every thread the package started (the steering
    helper, the certificate search's helper: names starting with uiobeam-)
    must end: each is joined with a timeout, and one still alive fails the
    test."""
    yield
    for thread in threading.enumerate():
        if thread.name.startswith("uiobeam-"):
            thread.join(timeout=10.0)
            assert not thread.is_alive(), f"thread {thread.name} outlived its test"
