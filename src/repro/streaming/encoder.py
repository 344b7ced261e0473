"""Frame-iterator encoder: bounded-memory encode of unbounded sources.

:class:`StreamEncoder` drives the exact per-frame step the
whole-sequence :class:`~repro.codec.encoder.Encoder` runs
(:meth:`~repro.codec.encoder.Encoder.encode_frame_into`), but pulls
frames from any iterator and emits bytes as each picture closes, so an
arbitrarily long source — e.g. a multi-gigabyte YUV file through
:func:`repro.video.yuv_io.iter_yuv_frames` — encodes while holding only
the closed loop's working set: the current frame, the reconstructed
reference list (one frame, or up to ``n_ref_frames`` under the GOP
syntax) and the previous motion field.
Because both encoders execute the same step with the same state
threading, the concatenated streamed chunks are byte-identical to the
whole-sequence bitstream in both wire formats (``tests/test_streaming.py``
pins this).

One wrinkle separates the two formats: version-2 pictures are
byte-aligned, so each emitted chunk is exactly one framed picture;
version-1 pictures pack with no alignment, so a picture can end mid-byte
— the encoder then emits every *complete* byte and carries the partial
byte into the next picture (``BitWriter.drain``), with the final
zero-padded byte arriving in the last chunk.  Concatenation is identical
either way.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.codec.bitstream import BitWriter
from repro.codec.encoder import Encoder, FrameRecord
from repro.me.estimator import MotionEstimator
from repro.video.frame import Frame, FrameGeometry


class StreamEncoder:
    """Incremental encode session over a frame iterator.

    Construction parameters mirror :class:`~repro.codec.encoder.Encoder`
    (an ``Encoder`` built here runs the closed loop); reconstruction
    keeping is forced off — the point is not materializing the output.

    Use :meth:`encode_iter` as a generator of byte chunks, or
    :meth:`encode_to` to pump everything into a writable file object.
    Per-frame :class:`~repro.codec.encoder.FrameRecord` summaries
    accumulate on :attr:`records` as frames are consumed.
    """

    def __init__(
        self,
        estimator: MotionEstimator | str = "acbm",
        qp: int = 16,
        estimator_kwargs: dict | None = None,
        bitstream_version: int = 1,
        i_period: int | None = None,
        n_ref_frames: int = 1,
    ) -> None:
        self._encoder = Encoder(
            estimator=estimator,
            qp=qp,
            estimator_kwargs=estimator_kwargs,
            keep_reconstruction=False,
            bitstream_version=bitstream_version,
            i_period=i_period,
            n_ref_frames=n_ref_frames,
        )
        self.records: list[FrameRecord] = []

    @property
    def keyframes(self) -> tuple[int, ...]:
        """Positions of the I-frames emitted so far."""
        return tuple(i for i, r in enumerate(self.records) if r.frame_type == "I")

    @property
    def qp(self) -> int:
        return self._encoder.qp

    @property
    def bitstream_version(self) -> int:
        return self._encoder.bitstream_version

    @property
    def estimator_name(self) -> str:
        est = self._encoder.estimator
        return est.name or type(est).__name__

    def encode_iter(self, frames: Iterable[Frame]) -> Iterator[bytes]:
        """Encode ``frames`` lazily, yielding one byte chunk per picture
        (plus, for version 1, a final padding chunk when the last
        picture ends mid-byte).

        The closed loop holds only the reference list and motion field
        between pictures (an I-frame — forced at every ``i_period``-th
        position — resets both).  All frames must share one geometry,
        mirroring the
        :class:`~repro.video.sequence.Sequence` contract.

        Raises
        ------
        ValueError
            If the iterator yields no frames, or a frame whose geometry
            differs from the first one's.
        """
        writer = BitWriter()
        references: list[Frame] = []
        prev_field = None
        geometry: FrameGeometry | None = None
        position = 0
        for frame in frames:
            if geometry is None:
                geometry = frame.geometry
            elif frame.geometry != geometry:
                raise ValueError(
                    f"mixed geometries in stream: {geometry} vs {frame.geometry}"
                )
            record, recon, prev_field = self._encoder.encode_frame_into(
                writer, frame, position, references, prev_field
            )
            references = self._encoder.advance_references(references, record, recon)
            self.records.append(record)
            position += 1
            chunk = writer.drain()
            if chunk:
                yield chunk
        if position == 0:
            raise ValueError("stream encode needs at least one frame")
        tail = writer.getvalue()  # v1 partial-byte padding; empty for v2
        if tail:
            yield tail

    def encode_to(self, sink, frames: Iterable[Frame]) -> int:
        """Pump :meth:`encode_iter` into ``sink.write``; returns total
        bytes written."""
        written = 0
        for chunk in self.encode_iter(frames):
            sink.write(chunk)
            written += len(chunk)
        return written
