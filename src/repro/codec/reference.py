"""Seed reference implementations: the codec's bit-exactness oracle.

Production code keeps one path per layer — the word-level symbol parse
(behind the backend's compiled attempt), the batched engine
reconstruction, whole-frame motion compensation in the encoder and the
estimators' frame drivers.  This module keeps the seed per-block code
those paths replaced, so golden tests and the benches' "vs seed"
baselines check them against an implementation that shares as little
code with them as possible:

* :func:`parse_bitstream_reference` — the seed event-list parse, driven
  by :class:`~repro.codec.bitstream.ScalarBitReader` so every VLC
  symbol goes through its per-bit tree walk;
* :func:`reconstruct_picture_reference` — per-macroblock reconstruction
  of a :class:`~repro.codec.decoder.ParsedPicture`: per-MB
  :func:`~repro.codec.dct.inverse_dct`, per-block motion compensation
  through :func:`~repro.me.subpel.predict_block` and
  :func:`~repro.codec.macroblock.predict_chroma_block`;
* :func:`decode_bitstream_reference` — the two chained over a stream;
* :func:`intra_mode_costs_reference` — the scalar twin of
  :func:`repro.me.engine.intra_mode_cost_surfaces`;
* :func:`estimate_reference` — an estimator's per-block raster walk with
  no shared reference cache, i.e. the seed search.

Only tests and the ``repro.experiments.*_bench`` modules import it; a
tier-1 test fails if production code does.
"""

from __future__ import annotations

import numpy as np

from repro.codec.bitstream import ScalarBitReader
from repro.codec.dct import inverse_dct
from repro.codec.decoder import (
    ParsedPicture,
    PictureHeader,
    _parse_pictures,
    detect_version,
    read_picture_header,
)
from repro.codec.encoder import MAX_REF_FRAMES
from repro.codec.intra import (
    INTRA_DC,
    INTRA_HORIZONTAL,
    INTRA_MODE_BITS,
    INTRA_UNAVAILABLE_COST,
    INTRA_VERTICAL,
    intra_predict,
)
from repro.codec.macroblock import join_luma_blocks, predict_chroma_block, read_events
from repro.codec.mv_coding import predict_mv, read_mvd
from repro.codec.quantizer import dequantize, dequantize_intra_dc
from repro.codec.vlc import read_ue_golomb
from repro.codec.vlc_tables import CBPY_TABLE, MCBPC_TABLE
from repro.codec.zigzag import events_to_block
from repro.me.estimator import MotionEstimator
from repro.me.stats import SearchStats
from repro.me.subpel import predict_block
from repro.me.types import MotionField, MotionVector
from repro.video.frame import Frame

# -- scalar symbol parse ---------------------------------------------------


def _read_coded_flags(reader) -> list[bool]:
    """MCBPC + CBPY → the six per-block coded flags (Y0..Y3, Cb, Cr)."""
    mcbpc = MCBPC_TABLE.decode(reader)
    cbpy = CBPY_TABLE.decode(reader)
    coded_flags = [bool(cbpy & (1 << k)) for k in range(4)]
    coded_flags += [bool(mcbpc & 2), bool(mcbpc & 1)]
    return coded_flags


def _read_ref_index(reader, header: PictureHeader) -> int:
    """One coded macroblock's exp-Golomb reference index, validated
    against the header's active-reference count."""
    ref = read_ue_golomb(reader)
    if ref >= header.num_refs:
        raise ValueError(
            f"reference index {ref} out of range "
            f"(picture codes {header.num_refs} active references)"
        )
    return ref


def _parse_intra_body(reader, header: PictureHeader) -> ParsedPicture:
    """Seed-syntax I-frame: per block an 8-bit DC level, then the AC
    event list of coded blocks."""
    rows, cols = header.mb_rows, header.mb_cols
    levels = np.zeros((rows * cols * 6, 8, 8), dtype=np.int64)
    dc_levels = np.empty(rows * cols * 6, dtype=np.int64)
    k = 0
    for _ in range(rows * cols):
        coded_flags = _read_coded_flags(reader)
        for coded in coded_flags:
            dc_levels[k] = reader.read_bits(8)
            if coded:
                levels[k] = events_to_block(read_events(reader), skip_first=1)
            k += 1
    return ParsedPicture(header=header, levels=levels, dc_levels=dc_levels)


def _parse_intra_pred_body(reader, header: PictureHeader) -> ParsedPicture:
    """GOP-syntax I-frame: per-MB mode bits, then inter-style residual
    events."""
    rows, cols = header.mb_rows, header.mb_cols
    levels = np.zeros((rows, cols, 6, 8, 8), dtype=np.int64)
    modes = np.empty((rows, cols), dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            mode = reader.read_bits(INTRA_MODE_BITS)
            if mode > 2:
                raise ValueError(f"illegal intra prediction mode {mode}")
            modes[r, c] = mode
            coded_flags = _read_coded_flags(reader)
            for k, coded in enumerate(coded_flags):
                if coded:
                    levels[r, c, k] = events_to_block(read_events(reader))
    return ParsedPicture(header=header, levels=levels, modes=modes)


def _parse_inter_body(reader, header: PictureHeader) -> ParsedPicture:
    """P-frame: COD skip bit, coded flags, (extended pictures) a per-MB
    reference index, the MVD against the median predictor, events."""
    rows, cols = header.mb_rows, header.mb_cols
    multi = header.extended
    coded_field = MotionField(rows, cols)
    levels = np.zeros((rows, cols, 6, 8, 8), dtype=np.int64)
    ref_idx = np.zeros((rows, cols), dtype=np.int64) if multi else None
    for r in range(rows):
        for c in range(cols):
            if reader.read_bit():  # COD = 1: skipped
                coded_field.set(r, c, MotionVector.zero())
                continue
            coded_flags = _read_coded_flags(reader)
            if multi:
                ref_idx[r, c] = _read_ref_index(reader, header)
            predictor = predict_mv(coded_field, r, c)
            mv = read_mvd(reader, predictor)
            coded_field.set(r, c, mv)
            for k, coded in enumerate(coded_flags):
                if coded:
                    levels[r, c, k] = events_to_block(read_events(reader))
    hx, hy = coded_field.to_arrays()
    return ParsedPicture(header=header, levels=levels, hx=hx, hy=hy, ref_idx=ref_idx)


def parse_picture_reference(reader) -> ParsedPicture:
    """One picture (header + macroblock layer) through the seed walk."""
    header = read_picture_header(reader)
    if header.frame_type == "P":
        return _parse_inter_body(reader, header)
    if header.extended:
        return _parse_intra_pred_body(reader, header)
    return _parse_intra_body(reader, header)


def parse_bitstream_reference(bitstream: bytes) -> list[ParsedPicture]:
    """Every picture of a version-1 or -2 stream, parsed one bit at a
    time.  Symbol-identical to
    :func:`repro.codec.decoder.parse_bitstream_symbols`."""
    reader = ScalarBitReader(bitstream)
    return _parse_pictures(reader, detect_version(bitstream), parse_picture_reference)


# -- per-block reconstruction ----------------------------------------------


def reconstruct_picture_reference(
    parsed: ParsedPicture, references: "list[Frame] | None", frame_index: int = 0
) -> Frame:
    """Pixels from parsed symbols, one macroblock at a time.

    ``references`` is the decoded reference list, most recent first.
    Bit-identical to :func:`repro.codec.decoder.reconstruct_picture`,
    including its geometry and reference-count errors.
    """
    header = parsed.header
    refs = list(references or [])
    g = header.geometry
    if refs and refs[0].geometry != g:
        raise ValueError(f"geometry change mid-stream: {refs[0].geometry} → {g}")
    if header.frame_type == "P" and not refs:
        raise ValueError("P-frame without a decoded reference")
    qp = header.qp
    y = np.empty((g.height, g.width), dtype=np.uint8)
    cb = np.empty((g.chroma_height, g.chroma_width), dtype=np.uint8)
    cr = np.empty((g.chroma_height, g.chroma_width), dtype=np.uint8)
    for r in range(header.mb_rows):
        for c in range(header.mb_cols):
            y0, x0 = 16 * r, 16 * c
            cy0, cx0 = 8 * r, 8 * c
            if header.frame_type == "I" and not header.extended:
                k0 = 6 * (r * header.mb_cols + c)
                blocks = []
                for k in range(k0, k0 + 6):
                    coefficients = dequantize(parsed.levels[k], qp)
                    coefficients[0, 0] = float(dequantize_intra_dc(int(parsed.dc_levels[k])))
                    blocks.append(coefficients)
                residual = inverse_dct(np.stack(blocks))
                pred_y, pred_cb, pred_cr = 0.0, 0.0, 0.0
            else:
                residual = inverse_dct(
                    np.stack([dequantize(parsed.levels[r, c, k], qp) for k in range(6)])
                )
                if header.frame_type == "I":
                    mode = int(parsed.modes[r, c])
                    pred_y = intra_predict(y, r, c, 16, mode)
                    pred_cb = intra_predict(cb, r, c, 8, mode)
                    pred_cr = intra_predict(cr, r, c, 8, mode)
                else:
                    k = int(parsed.ref_idx[r, c]) if parsed.ref_idx is not None else 0
                    if k >= len(refs):
                        raise ValueError(
                            f"picture selects reference {k} but only {len(refs)} "
                            f"frame(s) are decoded since the last I-frame"
                        )
                    source = refs[k]
                    mv = MotionVector(int(parsed.hx[r, c]), int(parsed.hy[r, c]))
                    pred_y = predict_block(source.y, y0, x0, mv, 16, 16).astype(np.float64)
                    pred_cb = predict_chroma_block(source.cb, cy0, cx0, mv, header.p)
                    pred_cr = predict_chroma_block(source.cr, cy0, cx0, mv, header.p)
            y[y0 : y0 + 16, x0 : x0 + 16] = np.clip(
                np.rint(join_luma_blocks(residual[:4]) + pred_y), 0, 255
            ).astype(np.uint8)
            cb[cy0 : cy0 + 8, cx0 : cx0 + 8] = np.clip(
                np.rint(residual[4] + pred_cb), 0, 255
            ).astype(np.uint8)
            cr[cy0 : cy0 + 8, cx0 : cx0 + 8] = np.clip(
                np.rint(residual[5] + pred_cr), 0, 255
            ).astype(np.uint8)
    return Frame(y, cb, cr, index=frame_index)


def decode_bitstream_reference(bitstream: bytes) -> list[Frame]:
    """Scalar parse + per-block reconstruction of a whole stream, with
    the production decoder's reference-list rules (I-frames reset it,
    P-frames push onto it up to :data:`MAX_REF_FRAMES`)."""
    frames: list[Frame] = []
    references: list[Frame] = []
    for i, parsed in enumerate(parse_bitstream_reference(bitstream)):
        frame = reconstruct_picture_reference(parsed, references, i)
        if parsed.header.frame_type == "I":
            references = [frame]
        else:
            references = [frame, *references][:MAX_REF_FRAMES]
        frames.append(frame)
    return frames


# -- encoder and estimator oracles -----------------------------------------


def intra_mode_costs_reference(y: np.ndarray) -> np.ndarray:
    """Per-macroblock SAD of each intra mode against the source luma.

    The per-block scalar twin of the batched
    :func:`repro.me.engine.intra_mode_cost_surfaces`; both return the
    same ``(3, mb_rows, mb_cols)`` ``int64`` surface.  Unavailable
    modes cost :data:`~repro.codec.intra.INTRA_UNAVAILABLE_COST`.
    """
    rows, cols = y.shape[0] // 16, y.shape[1] // 16
    cur = y.astype(np.int64)
    costs = np.full((3, rows, cols), INTRA_UNAVAILABLE_COST, dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            y0, x0 = 16 * r, 16 * c
            block = cur[y0 : y0 + 16, x0 : x0 + 16]
            costs[INTRA_DC, r, c] = int(np.abs(block - 128).sum())
            if r > 0:
                above = cur[y0 - 1, x0 : x0 + 16]
                costs[INTRA_VERTICAL, r, c] = int(np.abs(block - above[None, :]).sum())
            if c > 0:
                left = cur[y0 : y0 + 16, x0 - 1]
                costs[INTRA_HORIZONTAL, r, c] = int(np.abs(block - left[:, None]).sum())
    return costs


def estimate_reference(
    estimator: MotionEstimator,
    current: np.ndarray,
    reference: np.ndarray,
    prev_field: MotionField | None = None,
    qp: int = 16,
) -> tuple[MotionField, SearchStats]:
    """The seed search: the estimator's frame driver with no
    :class:`~repro.me.engine.ReferencePlane`, so every block runs
    ``search_block`` with per-candidate interpolation and no batched
    ring, surface or half-pel gather."""
    cur, ref = np.asarray(current), np.asarray(reference)
    return estimator.estimate_frame(cur, ref, None, prev_field, qp)
