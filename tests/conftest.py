"""Fixtures shared by the test modules."""

import platform

import numpy as np
import pytest

from qcmi import harness
from qcmi.linalg import HermitianEigen


@pytest.fixture
def applies(monkeypatch):
    """Record (stack length, size) of each HermitianEigen.apply call: the
    matrix functions built from a decomposition."""
    calls = []
    original = HermitianEigen.apply

    def recorded(self, f):
        q = self.eigenvectors
        calls.append((int(np.prod(q.shape[:-2])), q.shape[-1]))
        return original(self, f)

    monkeypatch.setattr(HermitianEigen, "apply", recorded)
    return calls


# The platform the bitwise pins (tests/pins/, tests/draw_pins.json and
# tests/channel_draw_pins.json) were recorded on. Another numpy, BLAS or
# CPU may round differently in the last bits.
PINS_RECORDED_ON = "Python 3.11.7, numpy 2.4.6, scipy-openblas 0.3.31 DYNAMIC_ARCH, AVX-512"


@pytest.fixture
def pin_platforms():
    """The message of a failing bitwise pin: where the pins were recorded
    and what is running."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # an older numpy has no mode="dicts"
        blas = "an unreported BLAS"
    running = f"Python {platform.python_version()}, numpy {np.__version__}, {blas}"
    return f"pins recorded on {PINS_RECORDED_ON}; running on {running}"


class _Injected:
    """A sample's draw replaced by a given state."""

    def __init__(self, state):
        self.state = state


@pytest.fixture
def inject_samples(monkeypatch):
    """Replace corpus samples: inject_samples({index: state_for(cfg, index)}).

    state_for is called where sample index is drawn (harness._draw), so it
    may raise there, in the draw's turn; its state's matrix then takes the
    sample's place in the matrices of its group (harness._matrices), the
    others built from their draws as one group. Scans, conjecture runs and
    corpus_state all see the replacement. A later call replaces the
    replacements.
    """
    draw, build = harness._draw, harness._matrices

    def install(replacements):
        def injected_draw(cfg, index):
            if index in replacements:
                return _Injected(replacements[index](cfg, index))
            return draw(cfg, index)

        def injected_build(cfg, draws):
            drawn = [d for d in draws if not isinstance(d, _Injected)]
            built = iter(build(cfg, drawn) if drawn else ())
            return np.array(
                [d.state.mat if isinstance(d, _Injected) else next(built) for d in draws]
            )

        monkeypatch.setattr(harness, "_draw", injected_draw)
        monkeypatch.setattr(harness, "_matrices", injected_build)

    return install
