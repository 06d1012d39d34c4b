"""Helpers shared by the test modules."""

import numpy as np

from wellpose.steckin import _sweep


def _bits(values) -> bytes:
    """The float64 bit patterns of values, for comparisons bit for bit."""
    return np.asarray(values, dtype=np.float64).tobytes()


def _whole_sweep(pts, nu):
    """Running nu-diameter of the rows of pts in their order: one sweep
    over pts built afresh."""
    return _sweep(pts, nu)(np.arange(len(pts)))


def _plain_sweep(sample, base):
    """Running base diameters of sample[order], the rows gathered and
    projected afresh on every sweep."""
    return lambda order: _whole_sweep(sample[order], base)
