"""Spatial intra prediction for GOP-mode I-frames.

Seed-format I-frames code every block against a flat mid-grey (the
intra DC byte); GOP-mode I-frames (``Encoder(i_period=...)``) predict
each macroblock spatially from its already-reconstructed neighbours —
the ``IntraFrameEncoder`` shape: three modes, chosen per macroblock,
coded in two fixed bits ahead of the MCBPC/CBPY pair.

* ``INTRA_DC`` — flat 128 (always available; the fallback at edges),
* ``INTRA_VERTICAL`` — the pixel row directly above the block,
  replicated downward,
* ``INTRA_HORIZONTAL`` — the pixel column directly left of the block,
  replicated rightward.

Two decision/prediction planes keep the closed loop exact:

* the **mode decision** is open-loop — costs are SADs against the
  *source* luma (:func:`repro.me.engine.intra_mode_cost_surfaces`,
  pinned integer-identical to the per-block scalar
  :func:`repro.codec.reference.intra_mode_costs_reference`);
* the **prediction** is closed-loop — :func:`intra_predict` reads the
  *reconstructed* neighbours the decoder will have, so encoder and
  decoder reconstructions match bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.me.engine.kernels import INTRA_UNAVAILABLE_COST

#: Mode indices as they appear on the wire (2 fixed bits per MB).
INTRA_DC = 0
INTRA_VERTICAL = 1
INTRA_HORIZONTAL = 2

INTRA_MODE_NAMES = ("DC", "vertical", "horizontal")

#: Wire width of the per-macroblock mode field.
INTRA_MODE_BITS = 2

__all__ = [
    "INTRA_DC",
    "INTRA_HORIZONTAL",
    "INTRA_MODE_BITS",
    "INTRA_MODE_NAMES",
    "INTRA_UNAVAILABLE_COST",
    "INTRA_VERTICAL",
    "choose_intra_modes",
    "intra_predict",
]


def intra_predict(
    plane: np.ndarray, block_row: int, block_col: int, size: int, mode: int
) -> np.ndarray:
    """Predict one ``size`` x ``size`` block from its causal neighbours.

    ``plane`` is the partially reconstructed plane being filled in
    raster order, so the row above and the column left of the block are
    final pixels.  Neighbours outside the picture fall back to the flat
    DC value, matching the decoder exactly.  Returns ``float64`` ready
    for residual arithmetic.
    """
    y0, x0 = size * block_row, size * block_col
    if mode == INTRA_VERTICAL and block_row > 0:
        above = plane[y0 - 1, x0 : x0 + size].astype(np.float64)
        return np.broadcast_to(above, (size, size)).copy()
    if mode == INTRA_HORIZONTAL and block_col > 0:
        left = plane[y0 : y0 + size, x0 - 1].astype(np.float64)
        return np.broadcast_to(left[:, None], (size, size)).copy()
    if mode not in (INTRA_DC, INTRA_VERTICAL, INTRA_HORIZONTAL):
        raise ValueError(f"illegal intra prediction mode {mode}")
    return np.full((size, size), 128.0)


def choose_intra_modes(costs: np.ndarray) -> np.ndarray:
    """Mode index per macroblock from a cost surface: minimal SAD, ties
    broken toward the lowest mode index (DC first)."""
    return np.argmin(costs, axis=0)
