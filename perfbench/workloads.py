"""The benchmark's three workloads and the timed, checked operations
they are built from.

Every operation calls a public function of the program, is timed by
:meth:`calib.Calibrator.measure`, which runs a calibration chunk before
it, and has its output checked; the checks feed the :class:`Ledger` behind
``ok_op_share``.  Workloads are generated here from the benchmark's
``--seed``: the program only ever receives the rendered clips and
experiment configs.

Each set-up repetition runs cold, in a fresh interpreter, so that
``setup_s`` covers the program's imports and first-use warm-up; the
inputs it made come back pickled.

Untraced rounds give the end-to-end numbers.  Traced rounds turn on the
program's own tracer (``repro.obs.trace.TRACER``), drain the spans it
already records after each operation, and add the benchmark's own
timing wrapper (a delegating motion estimator) to split the time by
layer.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from calib import REFERENCE_CHUNK_S, Calibrator, ChunkPair

HERE = Path(__file__).resolve().parent

#: Chunk size fed to ``StreamDecoder`` (bytes).
STREAM_CHUNK = 1024
#: ``/dev/shm`` name prefix of every segment the transport layer creates.
SHM_PREFIX = "repro-"

#: The program's packages a set-up imports, timed as its first step.
PROGRAM_MODULES = (
    "repro",
    "repro.codec",
    "repro.streaming",
    "repro.parallel",
    "repro.transport",
    "repro.experiments.rd_curves",
)
#: Encode-side spans of the program's tracer the traced rounds read.
ENCODE_SPANS = ("encode.frame", "encode.transform_quant", "encode.entropy")

_SETUP_CODE = (
    "import sys\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from workloads import setup_child\n"
    "setup_child(*sys.argv[3:])\n"
)


class Ledger:
    """Counts checked operations; a failed check is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def _ints():
    return defaultdict(int)


def _floats():
    return defaultdict(float)


@dataclass
class Round:
    """One pass over a workload's operations: frames and raw seconds by
    operation kind ("encode", "decode", "stream")."""

    traced: bool
    frames: dict[str, int] = field(default_factory=_ints)
    raw: dict[str, float] = field(default_factory=_floats)
    #: Reference seconds per raw second by kind, from the round's chunks.
    factors: dict = field(default_factory=dict)
    #: Factors a workload measured its own way; they win over ``factors``.
    fixed_factors: dict = field(default_factory=dict)

    def add(self, kind: str, frames: int, raw: float) -> None:
        self.frames[kind] += frames
        self.raw[kind] += raw

    def scaled(self, kind: str) -> float:
        return self.raw[kind] * self.factors[kind]

    def fps(self, kind: str, calibrated: bool = True) -> float:
        return self.frames[kind] / (self.scaled(kind) if calibrated else self.raw[kind])

    @property
    def wall_s(self) -> float:
        """Calibrated seconds of all timed operations in the round."""
        return sum(self.scaled(kind) for kind in self.raw)


@dataclass
class Outcome:
    """What a workload run measured, before it becomes metrics."""

    #: Calibrated seconds of each set-up repetition.
    setup_s: list[float] = field(default_factory=list)
    #: The workload whose only encode happens in set-up: one
    #: ``Round`` per set-up repetition holding that encode.
    setup_encodes: list[Round] = field(default_factory=list)
    rounds: list[Round] = field(default_factory=list)
    #: Deterministic quality, rate and search-cost figures.
    quality: dict[str, float] = field(default_factory=dict)
    #: Per-layer sums (raw seconds and counts) from traced rounds and set-up.
    layers: dict[str, float] = field(default_factory=_floats)
    #: Every calibration chunk time (seconds).
    chunks: list[float] = field(default_factory=list)


# -- timing wrappers ------------------------------------------------------


class TimedEstimator:
    """Delegates to a real motion estimator and times ``estimate``."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.seconds = 0.0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def estimate(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return self._inner.estimate(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start


def traced_call(fn, *args, **kwargs):
    """Run ``fn`` with the program's tracer on; ``(result, events)``."""
    from repro.obs.trace import TRACER

    TRACER.drain()
    TRACER.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        TRACER.disable()
    return result, TRACER.drain()


def fold_spans(events, layers, names, own: bool = True) -> None:
    """Add the complete-event seconds for ``names`` to
    ``layers["span.<name>"]``, from this process's events (``own``) or
    from every other process's.  ``encode.frame`` spans are booked by
    frame type instead, as ``encode.<type>_s`` and ``encode.<type>_frames``.
    """
    pid = os.getpid()
    for event in events:
        name = event["name"]
        if event.get("ph") != "X" or name not in names or (event["pid"] == pid) != own:
            continue
        seconds = event["dur"] / 1e6
        if name == "encode.frame":
            kind = event["args"]["type"]
            layers[f"encode.{kind}_s"] += seconds
            layers[f"encode.{kind}_frames"] += 1
        else:
            layers["span." + name] += seconds


# -- program calls ------------------------------------------------------------


def stream_decode(bitstream, pipeline=False):
    """``StreamDecoder`` fed ``STREAM_CHUNK``-byte chunks, draining
    after every feed; ``(frames, bytes_copied)``."""
    from repro.streaming import StreamDecoder

    decoder = StreamDecoder(pipeline=pipeline)
    frames = []
    for offset in range(0, len(bitstream), STREAM_CHUNK):
        decoder.feed(bitstream[offset : offset + STREAM_CHUNK])
        frames.extend(decoder.frames())
    decoder.close()
    frames.extend(decoder.frames())
    return frames, decoder.bytes_copied


def import_program() -> None:
    import importlib

    for module in PROGRAM_MODULES:
        importlib.import_module(module)


def setup_child(name: str, seed: str, smallest: str) -> None:
    """One cold set-up repetition, run as a fresh interpreter's only
    work: time the program's imports, then the workload's
    :meth:`Workload.prepare`; write the pickled :meth:`Workload.setup`
    record to stdout, which carries nothing else."""
    out = sys.stdout.buffer
    sys.stdout = sys.stderr
    cal = Calibrator()
    import_s = cal.measure("setup", import_program)[1]
    workload = WORKLOADS[name](int(seed), smallest == "1", cal)
    record = workload.setup(import_s)
    out.write(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
    out.flush()


def same_frames(a, b) -> bool:
    """Frame-for-frame pixel equality of two frame sequences."""
    a, b = list(a), list(b)
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def gain_ratio(gain_db: float) -> float:
    """A PSNR gain in dB as the linear power ratio it stands for (FSBM
    mean squared error over ACBM's): the same information as the dB
    figure, but centred on 1 instead of 0, so a bound expressed as a
    share of the median means something."""
    return 10.0 ** (gain_db / 10.0)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def figures(result) -> tuple[float, float, float]:
    """``(PSNR-Y dB, kbit/s, positions/MB)`` of an ``EncodeResult``."""
    return result.mean_psnr_y, result.rate_kbps, result.avg_positions_per_mb


def quality(acbm, fsbm) -> dict[str, float]:
    """The deterministic end-to-end figures from matched ACBM and FSBM
    cells, each given as :func:`figures` triples: ACBM's quality, rate
    and search cost, and the paper's two claims against FSBM."""
    return {
        "psnr_y_db": mean(a[0] for a in acbm),
        "kbps": mean(a[1] for a in acbm),
        "positions_per_mb": mean(a[2] for a in acbm),
        "acbm_position_saving": 1.0 - mean(a[2] for a in acbm) / mean(f[2] for f in fsbm),
        "acbm_psnr_gain_ratio": gain_ratio(mean(a[0] - f[0] for a, f in zip(acbm, fsbm))),
    }


def shm_segments() -> set[str]:
    """Names of the transport's shared-memory segments now in ``/dev/shm``."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(SHM_PREFIX)}
    except FileNotFoundError:
        return set()


# -- workloads --------------------------------------------------------------


class Workload:
    """A set-up run ``setup_reps`` times, each in a fresh interpreter,
    then rounds until the time budget is spent.  Subclasses define
    :meth:`prepare` (one set-up repetition, returning the inputs),
    :meth:`same_inputs` and :meth:`round`."""

    name = ""
    #: Set-up repetitions per run; ``setup_s`` is their median.
    setup_reps = 3

    def __init__(self, seed: int, smallest: bool, cal: Calibrator | None = None) -> None:
        self.seed = seed
        self.smallest = smallest
        self.ledger = Ledger()
        self.cal = cal or Calibrator()
        self.out = Outcome()
        #: Raw seconds and the set-up encode of the current repetition.
        self._setup_s = 0.0
        self._setup_encode = Round(traced=False)

    # -- hooks -----------------------------------------------------------

    def prepare(self, layers) -> dict:
        raise NotImplementedError

    def same_inputs(self, a: dict, b: dict) -> bool:
        raise NotImplementedError

    def round(self, state: dict, rnd: Round, layers) -> None:
        """One pass; ``layers`` is the per-layer sink in traced rounds,
        ``None`` in untraced ones."""
        raise NotImplementedError

    # -- helpers for subclasses --------------------------------------------

    def encode(self, clip, qp, estimator, layers=None, **encoder_kwargs):
        """``Encoder.encode`` of ``clip``, after a calibration chunk;
        returns ``(EncodeResult, raw seconds)``.

        In traced rounds (``layers`` given) the encode runs with the
        tracer on, its ``encode.frame`` spans book the time by frame
        type, and the search is timed through a :class:`TimedEstimator`.
        """
        from repro.codec.encoder import Encoder

        if layers is not None:
            estimator = TimedEstimator(estimator)
        encoder = Encoder(estimator=estimator, qp=qp, keep_reconstruction=True, **encoder_kwargs)
        if layers is None:
            return self.cal.measure("encode", encoder.encode, clip)
        (result, events), raw = self.cal.measure("encode", traced_call, encoder.encode, clip)
        fold_spans(events, layers, ENCODE_SPANS)
        layers["me_s"] += estimator.seconds
        return result, raw

    def render(self, name, frames, geometry, layers):
        from repro.video.synthesis.sequences import make_sequence

        clip, raw = self.cal.measure(
            "setup",
            make_sequence, name, frames=frames, seed=self.seed, geometry=geometry
        )
        self._setup_s += raw
        layers["render_s"] += raw
        layers["render_frames"] += frames
        return clip

    def decode(self, bitstream, expected, rnd: Round, layers, what: str):
        """``decode_bitstream`` once, checked against ``expected``."""
        from repro.codec.decoder import decode_bitstream

        if layers is None:
            frames, raw = self.cal.measure("decode", decode_bitstream, bitstream)
        else:
            (frames, events), raw = self.cal.measure(
                "decode", traced_call, decode_bitstream, bitstream
            )
            fold_spans(events, layers, ("decode.parse", "decode.reconstruct"))
            layers["decode_frames"] += len(frames)
        rnd.add("decode", len(frames), raw)
        self.ledger.check(
            f"decoded frames equal the encoder's reconstruction ({what})",
            same_frames(frames, expected),
        )
        return frames

    def stream(self, bitstream, expected, rnd: Round, layers, what: str) -> None:
        """Stream decode, checked frame for frame against ``expected``
        (``decode_bitstream``'s output on the same bytes)."""
        if layers is None:
            (frames, _), raw = self.cal.measure("stream", stream_decode, bitstream)
        else:
            ((frames, _), _), raw = self.cal.measure("stream", traced_call, stream_decode, bitstream)
        rnd.add("stream", len(frames), raw)
        self.ledger.check(
            f"stream decode equals decode_bitstream ({what})", same_frames(frames, expected)
        )

    def decode_passes(self, result, rnd: Round, layers, passes: int, what: str) -> None:
        """``passes`` x (decode + stream decode) of one v2 stream; in
        traced rounds also the stream-over-decode time ratio's sums."""
        decode_s, stream_s = rnd.raw["decode"], rnd.raw["stream"]
        for _ in range(1 if self.smallest else passes):
            frames = self.decode(result.bitstream, result.reconstruction, rnd, layers, what)
            self.stream(result.bitstream, frames, rnd, layers, what)
        if layers is None:
            return
        layers["overhead_decode_s"] += rnd.raw["decode"] - decode_s
        layers["overhead_stream_s"] += rnd.raw["stream"] - stream_s
        # Only a process-pipeline decoder copies bytes across a process
        # boundary (the serial one above copies none); the count is
        # exact, so one untimed pass per run gives it.
        if "copy_frames" not in layers:
            frames, copied = stream_decode(result.bitstream, pipeline="process")
            self.ledger.check(
                f"process-pipeline stream decode equals the reconstruction ({what})",
                same_frames(frames, result.reconstruction),
            )
            layers["copy_frames"] += len(frames)
            layers["bytes_copied"] += copied

    # -- run loop ------------------------------------------------------------

    def setup(self, import_s: float) -> dict:
        """One set-up repetition after an import that took ``import_s``
        raw seconds: the inputs, the raw set-up seconds, and what the
        set-up measured on the way, its calibration chunks included."""
        layers = _floats()
        self._setup_s = import_s
        self._setup_encode = Round(traced=False)
        state = self.prepare(layers)
        self.cal.tick("setup")
        return {
            "state": state,
            "raw_s": self._setup_s,
            "encode": self._setup_encode,
            "layers": dict(layers),
            "quality": self.out.quality,
            "chunks": self.cal.chunks,
        }

    def cold_setup(self, src: Path) -> dict:
        """:meth:`setup` run by :func:`setup_child` in a fresh
        interpreter that finds the program under ``src``."""
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(HERE), str(src), self.name, str(self.seed)]
            + [str(int(self.smallest))],
            capture_output=True,
            timeout=150,
        )
        if done.returncode:
            sys.stderr.write(done.stderr.decode(errors="replace"))
            raise RuntimeError(f"{self.name}: set-up child exited with {done.returncode}")
        return pickle.loads(done.stdout)

    def run(self, src: Path, seconds: float, trace: bool) -> Outcome:
        out = self.out
        records = [self.cold_setup(src) for _ in range(1 if self.smallest else self.setup_reps)]
        # One scale for the whole set-up phase: a repetition's few chunks
        # miss the machine's second-scale swings in speed, all of them
        # together sample the phase.
        out.chunks = [c for record in records for c in record["chunks"]]
        factor = REFERENCE_CHUNK_S * len(out.chunks) / sum(out.chunks)
        for record in records:
            out.setup_s.append(record["raw_s"] * factor)
            if record["encode"].frames:
                record["encode"].factors = {"encode": factor}
                out.setup_encodes.append(record["encode"])
        for record in records[1:]:
            self.ledger.check(
                f"{self.name}: set-up inputs and encodes repeat at a fixed seed",
                self.same_inputs(records[0]["state"], record["state"]),
            )
        state = records[-1]["state"]
        out.quality = records[-1]["quality"]
        out.layers.update(records[-1]["layers"])

        # Trace mode alternates untraced and traced rounds, so both see
        # the same machine conditions.  A round (or pair) is not started
        # when, at the mean pace so far, it would end more than half of
        # itself past the budget, so runs last the budget on average.
        step = 2 if trace else 1
        begin = time.perf_counter()
        while True:
            traced = trace and len(out.rounds) % 2 == 1
            rnd = Round(traced=traced)
            self.round(state, rnd, out.layers if traced else None)
            rnd.factors = {**self.cal.close_round(), **rnd.fixed_factors}
            out.rounds.append(rnd)
            done = len(out.rounds)
            if done % step:
                continue
            elapsed = time.perf_counter() - begin
            if self.smallest or elapsed * (done + step / 2) / done > seconds:
                break
        out.chunks += self.cal.chunks
        return out


class PaperQcifEncode(Workload):
    """ACBM on the paper's set-up: the four paper clips at QCIF, 30 fps,
    p = 15, half-pel, seed (v1) syntax, at Qp 30 and Qp 16; each clip
    decoded once and checked."""

    name = "paper_qcif_encode"
    #: Decode + stream-decode passes over the v2 stream per round.
    stream_passes = 16

    def __init__(self, *args) -> None:
        super().__init__(*args)
        from repro.experiments.config import PAPER_SEQUENCES, ExperimentConfig

        if self.smallest:
            self.config = ExperimentConfig(sequences=("miss_america",), qps=(16,), frames=4)
        else:
            self.config = ExperimentConfig(sequences=PAPER_SEQUENCES, qps=(30, 16), frames=6)
        self.cells = [(s, qp) for s in self.config.sequences for qp in self.config.qps]
        self.first_streams: dict = {}

    def estimator(self, name):
        from repro.experiments.rd_curves import build_estimator

        return build_estimator(name, self.config)

    def prepare(self, layers) -> dict:
        cfg = self.config
        clips = {s: self.render(s, cfg.frames, cfg.geometry, layers) for s in cfg.sequences}
        # FSBM encodes of the same cells: the reference the paper's two
        # claims are measured against.
        fsbm = {}
        for s, qp in self.cells:
            result, raw = self.encode(clips[s], qp, self.estimator("fsbm"))
            self._setup_s += raw
            fsbm[(s, qp)] = figures(result)
        # One cell again in v2 framing, for the stream decoder (v1
        # pictures are not splittable without parsing).  The pictures
        # carry the same symbols, so every round checks its
        # reconstruction against the v1 encode.
        s, qp = self.cells[-1]
        v2, raw = self.encode(clips[s], qp, self.estimator("acbm"), bitstream_version=2)
        self._setup_s += raw
        return {"clips": clips, "fsbm": fsbm, "v2": v2}

    def same_inputs(self, a, b) -> bool:
        return (
            all(same_frames(a["clips"][s], b["clips"][s]) for s in a["clips"])
            and a["fsbm"] == b["fsbm"]
            and a["v2"].bitstream == b["v2"].bitstream
        )

    def round(self, state, rnd: Round, layers) -> None:
        acbm = {}
        for s, qp in self.cells:
            result, raw = self.encode(state["clips"][s], qp, self.estimator("acbm"), layers)
            rnd.add("encode", len(result.frames), raw)
            sha = digest(result.bitstream)
            self.ledger.check(
                f"encode of {s} qp={qp} is deterministic at a fixed seed",
                self.first_streams.setdefault((s, qp), sha) == sha,
            )
            self.decode(result.bitstream, result.reconstruction, rnd, layers, f"{s} qp={qp}")
            acbm[(s, qp)] = result
        v2 = state["v2"]
        self.ledger.check(
            "v2 framing leaves the reconstruction unchanged",
            same_frames(v2.reconstruction, acbm[self.cells[-1]].reconstruction),
        )
        self.decode_passes(v2, rnd, layers, self.stream_passes, "v2 stream")
        if not self.out.quality:
            stats = [acbm[k].search_stats for k in self.cells]
            self.out.layers["me_full_share"] = sum(st.full_search_blocks for st in stats) / sum(
                st.blocks for st in stats
            )
            self.out.quality = quality(
                [figures(acbm[k]) for k in self.cells], [state["fsbm"][k] for k in self.cells]
            )


class CifGopDecode(Workload):
    """A CIF stream with GOPs (``i_period``), two reference frames and
    v2 framing, encoded with ACBM in set-up, then decoded repeatedly
    through ``decode_bitstream`` and ``StreamDecoder``."""

    name = "cif_gop_decode"
    #: Its only encodes are in set-up, so ``encode_fps`` needs more of
    #: them than the other workloads' ``setup_s`` does.
    setup_reps = 5
    #: Decode + stream-decode passes per round.
    passes = 3
    qp = 16

    def __init__(self, *args) -> None:
        super().__init__(*args)
        from repro.experiments.config import ExperimentConfig
        from repro.video.frame import CIF, QCIF

        if self.smallest:
            geometry, self.frames, i_period = QCIF, 3, 2
        else:
            geometry, self.frames, i_period = CIF, 6, 3
        self.config = ExperimentConfig(geometry=geometry)
        self.encode_kwargs = dict(bitstream_version=2, i_period=i_period, n_ref_frames=2)

    def prepare(self, layers) -> dict:
        from repro.experiments.rd_curves import build_estimator

        clip = self.render("foreman", self.frames, self.config.geometry, layers)
        acbm, raw = self.encode(
            clip, self.qp, build_estimator("acbm", self.config), **self.encode_kwargs
        )
        self._setup_s += raw
        self._setup_encode.add("encode", len(acbm.frames), raw)
        stats = acbm.search_stats
        layers["me_full_share"] = stats.full_search_blocks / stats.blocks
        # The FSBM encode of the same clip is the claims' reference.
        fsbm, raw = self.encode(
            clip, self.qp, build_estimator("fsbm", self.config), **self.encode_kwargs
        )
        self._setup_s += raw
        self.out.quality = quality([figures(acbm)], [figures(fsbm)])
        return {"acbm": acbm, "fsbm": fsbm}

    def same_inputs(self, a, b) -> bool:
        return (
            a["acbm"].bitstream == b["acbm"].bitstream
            and a["fsbm"].bitstream == b["fsbm"].bitstream
        )

    def round(self, state, rnd: Round, layers) -> None:
        self.decode_passes(state["acbm"], rnd, layers, self.passes, "CIF GOP stream")


class PaperSweepJobs2(Workload):
    """The Figs. 5-6 / Table 1 sweep of acbm, fsbm and pbm over the
    paper clips at 30 and 10 fps, through ``run_rd_sweep(jobs=2)`` with
    its default transport."""

    name = "paper_sweep_jobs2"
    workers = 2
    #: Decode + stream-decode passes over each set-up stream per round.
    passes = 8
    #: Chunk pairs run before and after each sweep.
    pair_burns = 12

    def __init__(self, *args) -> None:
        super().__init__(*args)
        from repro.experiments.config import PAPER_SEQUENCES, ExperimentConfig

        if self.smallest:
            self.config = ExperimentConfig(
                sequences=("miss_america",), qps=(30,), fps_list=(30,), frames=4, seed=self.seed
            )
            self.estimators = ("acbm", "fsbm")
        else:
            self.config = ExperimentConfig(
                sequences=PAPER_SEQUENCES, qps=(30, 16), fps_list=(30, 10), frames=4, seed=self.seed
            )
            self.estimators = ("acbm", "fsbm", "pbm")
        self.first_cells = None

    def run(self, src: Path, seconds: float, trace: bool) -> Outcome:
        with ChunkPair() as self.pairs:
            return super().run(src, seconds, trace)

    def jobs(self):
        from repro.experiments.rd_curves import sweep_jobs

        return sweep_jobs(self.config, self.estimators)

    def prepare(self, layers) -> dict:
        from repro.experiments.rd_curves import build_estimator

        cfg = self.config
        # Renders handed to run_rd_sweep as its sources, so the parent
        # renders in set-up rather than inside the first timed sweep.
        sources = {s: self.render(s, cfg.frames, cfg.geometry, layers) for s in cfg.sequences}
        # v2 ACBM streams of the clips give this workload its decode and
        # stream-decode operations; every clip, because the decode time
        # depends on the seed's content.
        streams = {}
        for s, clip in sources.items():
            streams[s], raw = self.encode(
                clip, cfg.qps[-1], build_estimator("acbm", cfg), bitstream_version=2
            )
            self._setup_s += raw
        return {"sources": sources, "streams": streams}

    def same_inputs(self, a, b) -> bool:
        return (
            all(same_frames(a["sources"][s], b["sources"][s]) for s in a["sources"])
            and all(a["streams"][s].bitstream == b["streams"][s].bitstream for s in a["streams"])
        )

    def round(self, state, rnd: Round, layers) -> None:
        from repro.experiments.rd_curves import run_rd_sweep
        from repro.parallel import borrowed_renders

        cfg = self.config
        first: list[float] = []

        def progress(_message: str) -> None:
            if not first:
                first.append(time.perf_counter())

        def sweep():
            start = time.perf_counter()
            result = run_rd_sweep(
                cfg,
                estimators=self.estimators,
                sequences_cache=state["sources"],
                progress=progress,
                jobs=self.workers,
            )
            return result, first[0] - start

        before = shm_segments()
        # The sweep keeps two workers busy, so it is calibrated by chunk
        # pairs run at once on both sides of it: they see the second
        # core's availability as well as each core's speed.
        burns = [self.pairs.pair() for _ in range(self.pair_burns)]
        start = time.perf_counter()
        if layers is None:
            result, first_s = sweep()
        else:
            (result, first_s), events = traced_call(sweep)
        raw = time.perf_counter() - start
        burns += [self.pairs.pair() for _ in range(self.pair_burns)]
        rnd.fixed_factors["encode"] = REFERENCE_CHUNK_S * len(burns) / sum(burns)
        if layers is not None:
            # Workers trace locally while the parent's tracer is on, and
            # run_jobs ships their spans back.
            fold_spans(events, layers, ENCODE_SPANS + ("encode.me", "job"), own=False)
            parent = _floats()
            fold_spans(events, parent, ("run_jobs",))
            layers["run_jobs_worker_s"] += self.workers * parent["span.run_jobs"]
            layers["first_result_s"] += first_s
            layers["sweeps"] += 1
            if "spec_bytes" not in layers:
                layers["spec_bytes"] = self.spec_bytes_per_job(state)
        frames = sum(len(range(0, cfg.frames, cfg.subsample_factor(j.fps))) for j in self.jobs())
        rnd.add("encode", frames, raw)
        leaked = shm_segments() - before
        self.ledger.check(f"no /dev/shm segment survives the sweep (left: {sorted(leaked)})", not leaked)
        cells = list(result.cells)
        if self.first_cells is None:
            self.first_cells = cells
            self.out.quality = self.sweep_quality(cells)
        self.ledger.check("sweep cells are deterministic at a fixed seed", cells == self.first_cells)
        # One cell re-run in this process must equal its worker result;
        # the cell rotates with the round so a run covers several.
        index = (self.seed + len(self.out.rounds)) % len(cells)
        with borrowed_renders(state["sources"], cfg):
            local = self.jobs()[index].run()
        self.ledger.check(f"in-process re-run equals 2-worker cell {index}", local == cells[index])
        for s, stream in state["streams"].items():
            self.decode_passes(stream, rnd, layers, self.passes, f"{s} v2 stream")

    def sweep_quality(self, cells) -> dict:
        by_key = {(c.sequence, c.fps, c.estimator, c.qp): c for c in cells}
        acbm = [c for c in cells if c.estimator == "acbm"]
        fsbm = [by_key[(c.sequence, c.fps, "fsbm", c.qp)] for c in acbm]
        self.out.layers["me_full_share"] = mean(c.full_search_fraction for c in acbm)

        def cell_figures(c):
            return c.psnr_y, c.rate_kbps, c.avg_positions

        return quality([cell_figures(c) for c in acbm], [cell_figures(c) for c in fsbm])

    def spec_bytes_per_job(self, state) -> float:
        """Bytes one job spec puts through the worker pipe under the
        default (shared-memory) transport: its pickle plus any array
        payload left in it (``payload_bytes``; zero once packed)."""
        from repro.parallel import borrowed_renders
        from repro.transport import FrameArena, FrameStore, payload_bytes

        with borrowed_renders(state["sources"], self.config):
            with FrameArena(name_prefix="repro-jobs") as arena:
                store = FrameStore(arena)
                packed = [job.pack_shm(store) for job in self.jobs()]
                sizes = [len(pickle.dumps(p)) + payload_bytes(p) for p in packed]
        return mean(sizes)


WORKLOADS = {cls.name: cls for cls in (PaperQcifEncode, CifGopDecode, PaperSweepJobs2)}
