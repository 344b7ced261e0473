"""Codec benchmark: one workload per run, result as the last stdout line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_qcif_encode --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones.  After the measured workload, and
before anything is printed, a self-test runs every workload at its
smallest size and validates its result against the declared format;
the run's own result is validated the same way.  The self-test comes
last so that the measured rounds find no program state it warmed.  A
line with the run's provenance (backend, versions, CPU count, measured
parallel capacity, revision, calibration) precedes the result.

Top-level imports stay in the standard library: worker processes the
program spawns re-import this file as their ``__main__``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def pooled_fps(rounds, kind: str, calibrated: bool = True) -> float:
    """Frames over seconds summed across ``rounds`` (each round's
    seconds scaled by its own calibration factor when ``calibrated``)."""
    frames = sum(r.frames[kind] for r in rounds)
    return frames / sum(r.scaled(kind) if calibrated else r.raw[kind] for r in rounds)


def build_result(ledger, out, trace: bool, units: dict[str, str]) -> dict:
    untraced = [r for r in out.rounds if not r.traced]
    encodes = out.setup_encodes or untraced
    if trace:
        L = out.layers

        def per(total: str, count: str, scale: float = 1000.0) -> float:
            return scale * L[total] / L[count] if L[count] else 0.0

        # Search seconds: the delegating estimator's in this process,
        # the workers' ``encode.me`` spans in the sweep.
        L["search_s"] = L["me_s"] + L["span.encode.me"]
        me_ms = per("search_s", "encode.P_frames")
        p_ms = per("encode.P_s", "encode.P_frames")
        L["encode_frames"] = L["encode.I_frames"] + L["encode.P_frames"]
        traced_s = sum(r.wall_s for r in out.rounds if r.traced)
        untraced_s = sum(r.wall_s for r in untraced)
        values = {
            "me.search_ms_per_frame": me_ms,
            "me.full_search_share": L["me_full_share"],
            "codec.encode_frame_ms.I": per("encode.I_s", "encode.I_frames"),
            "codec.encode_frame_ms.P": p_ms,
            "codec.texture_ms_per_frame": p_ms - me_ms,
            "codec.transform_quant_ms_per_frame": per(
                "span.encode.transform_quant", "encode_frames"
            ),
            "codec.entropy_ms_per_frame": per("span.encode.entropy", "encode_frames"),
            "codec.parse_ms_per_frame": per("span.decode.parse", "decode_frames"),
            "codec.reconstruct_ms_per_frame": per("span.decode.reconstruct", "decode_frames"),
            "streaming.overhead_ratio": per("overhead_stream_s", "overhead_decode_s", 1.0),
            "streaming.bytes_copied_per_frame": per("bytes_copied", "copy_frames", 1.0),
            "parallel.first_result_s": per("first_result_s", "sweeps", 1.0),
            "parallel.worker_busy_share": per("span.job", "run_jobs_worker_s", 1.0),
            "transport.spec_bytes_per_job": L["spec_bytes"],
            "video.render_ms_per_frame": per("render_s", "render_frames"),
            "obs.trace_overhead_ratio": traced_s / untraced_s,
            "machine.calib_ms": 1000.0 * statistics.median(out.chunks),
            "raw.encode_fps": pooled_fps(encodes, "encode", calibrated=False),
            "raw.decode_fps": pooled_fps(untraced, "decode", calibrated=False),
        }
    else:
        rss_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        values = {
            "setup_s": statistics.median(out.setup_s),
            "encode_fps": pooled_fps(encodes, "encode"),
            "decode_fps": pooled_fps(untraced, "decode"),
            "stream_decode_fps": pooled_fps(untraced, "stream"),
            **out.quality,
            "peak_rss_mb": rss_kb / 1024.0,
            "ok_op_share": (ledger.attempted - ledger.failed) / ledger.attempted,
        }
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]} for name in units
        },
    }


def run_workload(cls, spec, seed: int, seconds: float, trace: bool, smallest: bool):
    from contract import declared

    workload = cls(seed, smallest)
    out = workload.run(SRC, seconds, trace)
    return build_result(workload.ledger, out, trace, declared(spec, trace)), out


def self_test(spec, seed: int, trace: bool) -> None:
    """Every workload at its smallest size, result validated against
    the declared format; raises on the first problem."""
    from contract import FormatError, validate
    from workloads import WORKLOADS

    for name, cls in WORKLOADS.items():
        result, _ = run_workload(cls, spec, seed, 0.0, trace, smallest=True)
        validate(result, spec, trace)
        if not result["correct"]:
            raise FormatError(f"self-test: {name} (trace={int(trace)}) failed a check")


def provenance(out) -> dict:
    import numpy

    from calib import REFERENCE_CHUNK_S, parallel_capacity
    from repro.kernels import get_backend

    revision = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        revision = done.stdout.strip() or None
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode())
        tree.update(path.read_bytes())
    return {
        "backend": get_backend().name,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "parallel_capacity": parallel_capacity(),
        "git_revision": revision,
        "src_sha256": tree.hexdigest(),
        "calib_ms": 1000.0 * statistics.median(out.chunks),
        "reference_calib_ms": 1000.0 * REFERENCE_CHUNK_S,
        "rounds": len(out.rounds),
        "setup_reps": len(out.setup_s),
    }


def stop_resource_tracker() -> None:
    """End, and wait for, the resource-tracker process multiprocessing
    starts for the program's shared memory, so no process outlives the
    run."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from contract import load_spec, validate
    from workloads import WORKLOADS

    spec = load_spec(ROOT)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    trace = bool(args.trace)
    try:
        result, out = run_workload(
            WORKLOADS[args.workload], spec, args.seed, args.seconds, trace, False
        )
        validate(result, spec, trace)
        self_test(spec, args.seed, trace)
    finally:
        stop_resource_tracker()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance(out),
        "setup_s": out.setup_s,
        "quality": out.quality,
        "rounds": [
            {"traced": r.traced, "fps": {k: [r.fps(k), r.fps(k, False)] for k in r.frames}}
            for r in out.rounds
        ],
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
