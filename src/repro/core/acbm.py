"""The Adaptive Cost Block Matching estimator (Section 3.2).

Per macroblock:

1. Compute ``Intra_SAD`` of the reference (current-frame) block.
2. Run the predictive search (PBM, [9]) → vector + ``SAD_PBM``.
3. Classify with the two acceptance conditions
   (:func:`repro.core.classifier.classify_block`).
4. If critical, run the full search — per-block SAD maps while the
   frame's critical count is small, one lazily built whole-frame
   surface (:func:`repro.me.engine.frame_sad_surfaces`, shared through
   the frame driver's cache) once it isn't — and keep whichever vector
   wins the arbitration (plain SAD by default; optionally the paper's Section
   2.1 Lagrangian ``J = SAD + λ(Qp)·R(mvd)``, which slightly favours
   the predictive vector's cheaper differential coding — the mechanism
   behind ACBM's "slightly better rate-distortion than FSBM").

Cost accounting follows the paper: the positions charged to a block are
the predictive search's evaluations plus — only on critical blocks —
the full search's.  The Intra_SAD computation itself touches only the
current block and is not a candidate position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codec.mv_coding import mvd_bits, predict_mv
from repro.core.classifier import BlockDecision, classify_block
from repro.core.parameters import ACBMParameters
from repro.me.cost import lagrange_lambda
from repro.me.engine.kernels import frame_sad_surfaces, supports_vectorized_search
from repro.me.estimator import BlockContext, MotionEstimator, register_estimator
from repro.me.full_search import full_search_sads, select_minimum
from repro.me.metrics import intra_sad
from repro.me.predictive import PredictiveEstimator
from repro.me.subpel import refine_half_pel
from repro.me.types import BlockResult, MotionVector


@dataclass(frozen=True)
class ACBMBlockResult(BlockResult):
    """BlockResult enriched with the classifier verdict."""

    decision: str = BlockDecision.CRITICAL.value
    intra_sad: float = 0.0
    sad_pbm: int = 0


@register_estimator("acbm")
class ACBMEstimator(MotionEstimator):
    """Adaptive Cost Block Matching — the paper's proposed algorithm.

    Parameters
    ----------
    p, block_size, half_pel:
        As in :class:`repro.me.estimator.MotionEstimator`; paper values
        are p=15, 16x16 blocks, half-pel on.
    params:
        α/β/γ configuration; defaults to the paper's tuned values.
    refine_steps:
        Bound on the predictive stage's integer refinement descent.
    lagrangian:
        When True, critical blocks pick between the predictive and the
        full-search vector by ``J = SAD + λ(Qp)·R(mvd)`` (differential
        MV bits against the H.263 median predictor) instead of raw SAD.
        Off by default — the paper's base algorithm compares SADs.
    surface_threshold:
        Critical-block count per frame after which the remaining
        critical full searches read one lazily built
        :func:`repro.me.engine.frame_sad_surfaces` pass instead of
        per-block SAD maps.  The whole-frame surface costs roughly
        20-25 per-block searches, so frames with few critical blocks
        (high Qp, calm content) stay on the per-block path and busy
        frames amortize one batched pass; both paths return bit-exact
        SAD surfaces, so the decisions and position counts never
        depend on the threshold.

    >>> est = ACBMEstimator()
    >>> (est.p, est.params.alpha, est.params.beta, est.params.gamma)
    (15, 1000.0, 8.0, 0.25)
    """

    def __init__(
        self,
        p: int = 15,
        block_size: int = 16,
        half_pel: bool = True,
        params: ACBMParameters | None = None,
        refine_steps: int = 2,
        lagrangian: bool = False,
        surface_threshold: int = 12,
    ) -> None:
        super().__init__(p=p, block_size=block_size, half_pel=half_pel)
        if surface_threshold < 0:
            raise ValueError(f"surface_threshold must be >= 0, got {surface_threshold}")
        self.params = params if params is not None else ACBMParameters.paper_defaults()
        self.lagrangian = lagrangian
        self.surface_threshold = surface_threshold
        # The embedded predictive stage; half-pel kept on so SAD_PBM is
        # the SAD of the vector PBM would actually deliver.
        self._pbm = PredictiveEstimator(
            p=p, block_size=block_size, half_pel=half_pel, refine_steps=refine_steps
        )

    def _vector_cost(self, sad: int, mv: MotionVector, ctx: BlockContext) -> float:
        """Arbitration metric between candidate vectors on a critical
        block: raw SAD, or the Lagrangian J when enabled."""
        if not self.lagrangian:
            return float(sad)
        predictor = predict_mv(ctx.field, ctx.mb_row, ctx.mb_col)
        return float(sad) + lagrange_lambda(ctx.qp) * mvd_bits(mv, predictor)

    def _critical_surfaces(self, ctx: BlockContext):
        """The frame's :class:`FrameSadSurfaces` for critical blocks, or
        ``None`` while the per-block path is still cheaper.

        Built lazily in the frame driver's shared cache once this
        frame's critical-block count crosses ``surface_threshold``; a
        single batched pass then serves every later critical block's
        full search.  Returns ``None`` when the frame has no shared
        reference cache (the seed per-block walk) or no frame cache
        (bare ``search_block`` calls), or the geometry is outside the
        batched kernel's envelope.
        """
        cache = ctx.frame_cache
        if cache is None or ctx.ref_plane is None:
            return None
        key = "acbm_critical_surfaces"
        if key not in cache:
            count = cache.get("acbm_critical_blocks", 0) + 1
            cache["acbm_critical_blocks"] = count
            if count <= self.surface_threshold:
                return None
            cur = np.asarray(ctx.current)
            cache[key] = (
                frame_sad_surfaces(cur, ctx.ref_plane, self.block_size, self.p)
                if cur.dtype == np.uint8
                and supports_vectorized_search(ctx.ref_plane.luma, self.block_size, self.p)
                else None
            )
        return cache[key]

    def search_block(self, ctx: BlockContext) -> BlockResult:
        activity = intra_sad(ctx.block)
        pbm_result = self._pbm.search_block(ctx)
        decision = classify_block(activity, pbm_result.sad, ctx.qp, self.params)
        mv: MotionVector = pbm_result.mv
        best_sad = pbm_result.sad
        positions = pbm_result.positions
        used_full_search = False
        if not decision.accepts_pbm:
            surfaces = self._critical_surfaces(ctx)
            if surfaces is not None:
                fs_sads, window = surfaces.block_surface(ctx.mb_row, ctx.mb_col)
            else:
                fs_sads, window = full_search_sads(
                    ctx.current, ctx.reference, ctx.block_y, ctx.block_x, self.block_size, self.p
                )
            fs_mv, fs_sad = select_minimum(fs_sads, window)
            positions += window.num_positions
            used_full_search = True
            if self.half_pel:
                fs_mv, fs_sad, extra = refine_half_pel(
                    ctx.block, ctx.matcher_reference, ctx.block_y, ctx.block_x, fs_mv, fs_sad, window
                )
                positions += extra
            if self._vector_cost(fs_sad, fs_mv, ctx) < self._vector_cost(best_sad, mv, ctx):
                mv, best_sad = fs_mv, fs_sad
        return ACBMBlockResult(
            mv=mv,
            sad=best_sad,
            positions=positions,
            used_full_search=used_full_search,
            decision=decision.value,
            intra_sad=activity,
            sad_pbm=pbm_result.sad,
        )
