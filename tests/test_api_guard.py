"""Guards for the one-production-path rule.

Each codec and search layer has a single production path; the seed
per-block implementations live in :mod:`repro.codec.reference` as the
bit-exactness oracle.  Two things would quietly undo that, and both
fail here:

* a public callable regaining a path-selection knob (``use_engine``,
  ``reader_factory``);
* a production module importing the oracle — only the oracle itself and
  the ``repro.experiments.*_bench`` modules (whose "vs seed" baselines
  time it) may.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

REMOVED_KNOBS = {"use_engine", "reader_factory"}
ORACLE = "repro.codec.reference"
SRC_ROOT = Path(repro.__file__).resolve().parent


def _modules() -> list[str]:
    return sorted(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))


def _public_callables():
    """``(qualified name, callable)`` for every public function, class
    and method defined in a ``repro`` module."""
    for name in _modules():
        module = importlib.import_module(name)
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                continue
            if inspect.isfunction(obj):
                yield f"{name}.{attr}", obj
            elif inspect.isclass(obj):
                yield f"{name}.{attr}", obj
                for meth_name, meth in vars(obj).items():
                    if inspect.isfunction(meth) and (
                        meth_name == "__init__" or not meth_name.startswith("_")
                    ):
                        yield f"{name}.{attr}.{meth_name}", meth


def _parameters(obj) -> set[str]:
    if dataclasses.is_dataclass(obj):
        return {f.name for f in dataclasses.fields(obj)}
    try:
        return set(inspect.signature(obj).parameters)
    except (TypeError, ValueError):
        return set()


def test_named_signatures_have_no_path_knob():
    """The constructors and entry points that used to take the knob."""
    from repro.codec.decoder import Decoder, decode_bitstream, parse_bitstream_symbols
    from repro.codec.encoder import Encoder, encode_sequence
    from repro.core.acbm import ACBMEstimator
    from repro.me.cross_diamond import CrossDiamondEstimator
    from repro.me.diamond import DiamondEstimator
    from repro.me.estimator import MotionEstimator
    from repro.me.four_step import FourStepEstimator
    from repro.me.hexagon import HexagonEstimator
    from repro.me.predictive import PredictiveEstimator
    from repro.parallel import DecodeJob, GopEncodeJob, encode_sequence_parallel
    from repro.streaming import StreamEncoder
    from repro.streaming.session import EncodeSession

    named = [
        MotionEstimator,
        ACBMEstimator,
        CrossDiamondEstimator,
        DiamondEstimator,
        FourStepEstimator,
        HexagonEstimator,
        PredictiveEstimator,
        Encoder,
        encode_sequence,
        Decoder,
        decode_bitstream,
        StreamEncoder,
        EncodeSession,
        encode_sequence_parallel,
        DecodeJob,
        GopEncodeJob,
        parse_bitstream_symbols,
    ]
    for obj in named:
        assert not _parameters(obj) & REMOVED_KNOBS, obj.__qualname__


def test_no_public_callable_takes_a_path_knob():
    offenders = [
        qualname
        for qualname, obj in _public_callables()
        if _parameters(obj) & REMOVED_KNOBS
    ]
    assert offenders == []


def _imports_oracle(package: str, tree: ast.AST) -> bool:
    """Whether ``tree`` (a module of ``package``) imports the oracle."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == ORACLE for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[: len(parts) - (node.level - 1)]
                base = ".".join(parts + ([base] if base else []))
            if base == ORACLE:
                return True
            if any(f"{base}.{alias.name}" == ORACLE for alias in node.names):
                return True
    return False


def _allowed_importer(module: str) -> bool:
    return module == ORACLE or (
        module.startswith("repro.experiments.") and module.endswith("_bench")
    )


def test_only_the_oracle_and_benches_import_the_oracle():
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        parts = path.relative_to(SRC_ROOT.parent).with_suffix("").parts
        package = ".".join(parts[:-1])
        module = package if parts[-1] == "__init__" else f"{package}.{parts[-1]}"
        if _allowed_importer(module):
            continue
        if _imports_oracle(package, ast.parse(path.read_text(), filename=str(path))):
            offenders.append(module)
    assert offenders == []


@pytest.mark.parametrize(
    "source",
    [
        "import repro.codec.reference",
        "from repro.codec.reference import decode_bitstream_reference",
        "from repro.codec import reference",
        "from . import reference",
        "from .reference import estimate_reference",
    ],
)
def test_import_walk_detects_every_spelling(source):
    """The walk above must not miss an import form (written from inside
    ``repro.codec``, the oracle's own package)."""
    assert _imports_oracle("repro.codec", ast.parse(source))
