"""Shared test helper for comparing Chebyshev coefficient vectors."""

import numpy as np


def padded(p, length):
    """The coefficients of ChebPoly p, zero-padded to length (never truncated)."""
    if length < len(p.coeffs):
        raise ValueError("cannot pad below current length")
    return np.pad(p.coeffs, (0, length - len(p.coeffs)))
