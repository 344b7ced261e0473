"""Machine-speed calibration and parallel-capacity probe.

Nothing here imports ``repro``: the calibration loop must stay fixed
while the program under test changes, so that scaling a wall time by it
removes drift of the machine (frequency, neighbours' load) and nothing
else.

The loop mixes interpreter work (integer arithmetic, dict and list
traffic) with small NumPy reductions on 16x16 blocks, the two kinds of
work the codec's per-macroblock loops are made of.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

#: A typical :func:`calib_chunk` time on the machine the benchmark was
#: tuned on (2-vCPU x86-64 container, Python 3.11, NumPy 2.4; measured
#: chunk times there ranged 14-28 ms with neighbours' load).
#: Calibrated wall times are in these reference seconds:
#: ``scaled = raw * REFERENCE_CHUNK_S / measured_chunk_s``.
REFERENCE_CHUNK_S = 0.0200

_PY_ITERS = 60000
_NP_ITERS = 3000
_BLOCK = np.arange(256, dtype=np.int64).reshape(16, 16)


def calib_chunk() -> float:
    """Run the fixed calibration work once; return its wall seconds."""
    start = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    row: list[int] = []
    for i in range(_PY_ITERS):
        acc = (acc + i * 7) % 1_000_003
        table[i & 255] = acc
        if i & 15 == 0:
            row.append(acc)
    block = _BLOCK
    for i in range(_NP_ITERS):
        acc += int(np.abs(block - i).sum())
    if acc < 0 or len(row) != (_PY_ITERS + 15) // 16:  # keep the work observable
        raise RuntimeError("calibration loop miscounted")
    return time.perf_counter() - start


class Calibrator:
    """Calibration chunks interleaved with timed operations.

    :meth:`measure` runs a chunk right before each operation and files
    it under the operation's kind, so each kind's chunks sample the
    machine's speed around that kind's operations; :meth:`close_round`
    turns them into one scale per kind, ``REFERENCE_CHUNK_S`` over the
    mean chunk time.  Pooling matters: one 20 ms chunk is too noisy to
    correct one operation, but a round's mean tracks the machine.
    """

    def __init__(self) -> None:
        #: Every chunk time measured so far (seconds).
        self.chunks: list[float] = []
        self._round: dict[str, list[float]] = {}

    def tick(self, kind: str) -> None:
        seconds = calib_chunk()
        self.chunks.append(seconds)
        self._round.setdefault(kind, []).append(seconds)

    def measure(self, kind: str, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), raw wall seconds)``, after a chunk."""
        self.tick(kind)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, time.perf_counter() - start

    def close_round(self) -> dict[str, float]:
        """Reference seconds per measured second, by kind, for the round
        just finished (key ``None``: all of the round's chunks); starts
        the next round.  A closing chunk joins every kind."""
        closing = calib_chunk()
        self.chunks.append(closing)
        kinds = {kind: times + [closing] for kind, times in self._round.items()}
        kinds[None] = [t for times in self._round.values() for t in times] + [closing]
        self._round = {}
        return {kind: REFERENCE_CHUNK_S * len(t) / sum(t) for kind, t in kinds.items()}


_HELPER_CODE = (
    "import sys\n"
    f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
    "from calib import calib_chunk\n"
    "for _ in sys.stdin:\n"
    "    print(calib_chunk(), flush=True)\n"
)


class ChunkPair:
    """Two helper processes that each run one calibration chunk per
    request, for calibrating work that runs on two processes at once.

    :meth:`pair` has both run a chunk at the same time and returns the
    slower chunk's seconds, so it slows down when either the cores or
    the second core's availability do.  Use as a context manager: the
    helpers exit, and are waited for, when it closes.
    """

    def __enter__(self) -> "ChunkPair":
        self._helpers = []
        try:
            for _ in range(2):
                self._helpers.append(
                    subprocess.Popen(
                        [sys.executable, "-c", _HELPER_CODE],
                        stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE,
                        text=True,
                    )
                )
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        for helper in self._helpers:
            helper.stdin.close()
        for helper in self._helpers:
            helper.wait(timeout=60)
            helper.stdout.close()

    def _run(self, helpers) -> float:
        for helper in helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        times = []
        for helper in helpers:
            line = helper.stdout.readline()
            if not line:
                raise RuntimeError(f"calibration helper exited with {helper.wait()}")
            times.append(float(line))
        return max(times)

    def solo(self) -> float:
        """One helper runs a chunk alone; its seconds."""
        return self._run(self._helpers[:1])

    def pair(self) -> float:
        """Both helpers run a chunk at once; the slower one's seconds."""
        return self._run(self._helpers)


def parallel_capacity(repeats: int = 10) -> float:
    """Measured parallel capacity of two processes: 2 x (chunk alone) /
    (two chunks at once).  2.0 means two free cores; 1.0 means the
    second process gained nothing."""
    with ChunkPair() as helpers:
        helpers.pair()  # warm both helpers
        alone = sum(helpers.solo() for _ in range(repeats))
        together = sum(helpers.pair() for _ in range(repeats))
    return 2.0 * alone / together
