"""Adaptive composite Gauss-Legendre panels, the one integrator of the package.

It computes the Gram matrix of the linear and harmonic WKB states
(``matcher.overlap_gram``), the momentum moments of a general state
(``spectrum.momentum_moments``) and the oracle's antiderivative check of the
momentum-space phase (``oracle.MomentumSolution``).  The WKB exponent
integrals (``basis.ExponentTable``), the well's Gram (``matcher.well_gram``)
and the observability moments (``spectrum.closed_form_moments``) are closed
forms.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .errors import NumericalError

_GAUSS_NODES = 12
_MAX_BISECTIONS = 50
_MAX_PIECES = 64  # per interval


@functools.cache
def _gauss_pair() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes on [0, 1] of the n- and 2n-node Gauss-Legendre rules, side by side, and their weights."""
    x_lo, w_lo = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    x_hi, w_hi = np.polynomial.legendre.leggauss(2 * _GAUSS_NODES)
    return 0.5 * (1.0 + np.concatenate([x_lo, x_hi])), 0.5 * w_lo, 0.5 * w_hi


def panel_integrals(
    integrand: Callable, a: np.ndarray, b: np.ndarray, tol: float, owner: np.ndarray | None = None
) -> np.ndarray:
    """Integrals of a vector-valued integrand over each interval, shape (..., intervals).

    Each [a_i, b_i] starts as one panel of interval ``owner[i]``; without
    ``owner`` it is interval i, so every interval starts as one panel.
    ``integrand(t, width, which)`` gets the nodes t, shape (panels, 2n), of
    all open panels, their widths, shape (panels, 1), and the interval
    index of each panel; it returns its values times the panel width,
    shape (..., panels, 2n).  A panel whose n- and
    2n-node sums agree to ``tol`` in every component (absolute and relative,
    as epsabs = epsrel) adds its 2n-node sum to its interval; the others are
    bisected.  Each interval is bisected on its own, so its result does not
    depend on the other intervals of the call.
    """
    nodes, w_lo, w_hi = _gauss_pair()
    n = w_lo.size
    owner = np.arange(a.size) if owner is None else owner
    keep = a != b
    seg, lo, hi = owner[keep], a[keep], b[keep]
    out = None
    for _ in range(_MAX_BISECTIONS):
        width = (hi - lo)[:, None]
        f = integrand(lo[:, None] + width * nodes, width, seg)
        coarse = (f[..., :n] * w_lo).sum(axis=-1)
        fine = (f[..., n:] * w_hi).sum(axis=-1)
        if not np.all(np.isfinite(fine)):
            raise NumericalError("Gauss-Legendre panel integrand is not finite (overflow or a pole)")
        if out is None:
            out = np.zeros(fine.shape[:-1] + (owner.max(initial=-1) + 1,), dtype=complex)
        close = np.abs(fine - coarse) <= tol * np.maximum(1.0, np.abs(fine))
        done = np.all(close, axis=tuple(range(fine.ndim - 1)))
        np.add.at(out, (..., seg[done]), fine[..., done])
        if done.all():
            return out
        seg, lo, hi = seg[~done], lo[~done], hi[~done]
        if 2 * np.bincount(seg).max() > _MAX_PIECES:
            break
        mid = 0.5 * (lo + hi)
        seg = np.repeat(seg, 2)
        lo, hi = np.stack([lo, mid], axis=1).ravel(), np.stack([mid, hi], axis=1).ravel()
    raise NumericalError(
        f"Gauss-Legendre panels did not converge to {tol:g} within {_MAX_BISECTIONS} "
        f"bisections and {_MAX_PIECES} pieces per interval"
    )
