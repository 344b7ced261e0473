"""Predictive block matching (PBM), Section 2.2 of the paper.

Follows the complexity-bounded scheme of Chimienti et al. [9] that the
paper plugs into ACBM:

1. Gather candidate predictors from the spatio-temporal neighbourhood
   of Fig. 2: the already-computed spatial neighbours in the current
   frame (left, top-left, top, top-right — ``mv1t..mv4t``), the
   collocated vector and its *causal-future* neighbours from the
   previous frame's field (``mv0t-1, mv5t-1, mv7t-1, mv8t-1``), plus
   the zero vector.
2. Evaluate the SAD of each distinct predictor (at integer precision)
   and keep the minimum.
3. Refine: a bounded greedy ±1 integer-pel descent around the winner,
   then the standard 8-neighbour half-pel step.

The whole search touches a handful of positions per block — the
paper's "extremely low computational cost" — but inherits the failure
mode ACBM exists to fix: on textured or erratically moving content all
predictors can sit in the same wrong valley.
"""

from __future__ import annotations

from repro.me.candidates import CandidateEvaluator
from repro.me.estimator import BlockContext, MotionEstimator, register_estimator
from repro.me.search_window import clamped_window
from repro.me.subpel import refine_half_pel
from repro.me.types import BlockResult, MotionField, MotionVector

#: ±1 integer-pel ring used by the bounded refinement descent.
_RING = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))


def gather_predictors(
    mb_row: int,
    mb_col: int,
    field: MotionField,
    prev_field: MotionField | None,
) -> list[MotionVector]:
    """Distinct candidate predictors for block (mb_row, mb_col).

    Spatial predictors come from the partially built current field (only
    causally available neighbours, per Fig. 2); temporal predictors come
    from the previous field, including the positions that are *not*
    spatially available (right/below), which is exactly what the
    temporal side contributes.  Order is deterministic; duplicates are
    collapsed keeping first occurrence.
    """
    raw: list[MotionVector | None] = [MotionVector.zero()]
    # Spatial: left, top-left, top, top-right (mv4t, mv1t, mv2t, mv3t).
    raw.append(field.get(mb_row, mb_col - 1))
    raw.append(field.get(mb_row - 1, mb_col - 1))
    raw.append(field.get(mb_row - 1, mb_col))
    raw.append(field.get(mb_row - 1, mb_col + 1))
    if prev_field is not None:
        # Temporal: collocated plus the neighbours unavailable spatially
        # (mv0t-1, mv5t-1, mv7t-1, mv8t-1).
        raw.append(prev_field.get(mb_row, mb_col))
        raw.append(prev_field.get(mb_row, mb_col + 1))
        raw.append(prev_field.get(mb_row + 1, mb_col))
        raw.append(prev_field.get(mb_row + 1, mb_col + 1))
    seen: set[MotionVector] = set()
    out: list[MotionVector] = []
    for mv in raw:
        if mv is None or mv in seen:
            continue
        seen.add(mv)
        out.append(mv)
    return out


@register_estimator("pbm")
class PredictiveEstimator(MotionEstimator):
    """Predictor-driven search with bounded local refinement.

    Parameters
    ----------
    refine_steps:
        Maximum recentrings of the ±1 descent (the complexity bound of
        [9]).  0 disables integer refinement entirely.
    """

    def __init__(
        self,
        p: int = 15,
        block_size: int = 16,
        half_pel: bool = True,
        refine_steps: int = 2,
    ) -> None:
        super().__init__(p=p, block_size=block_size, half_pel=half_pel)
        if refine_steps < 0:
            raise ValueError(f"refine_steps must be >= 0, got {refine_steps}")
        self.refine_steps = refine_steps

    def search_block(self, ctx: BlockContext) -> BlockResult:
        window = clamped_window(
            ctx.block_y,
            ctx.block_x,
            self.block_size,
            self.block_size,
            ctx.reference.shape[0],
            ctx.reference.shape[1],
            self.p,
        )
        evaluator = CandidateEvaluator(
            ctx.block, ctx.matcher_reference, ctx.block_y, ctx.block_x, window
        )
        predictors = gather_predictors(ctx.mb_row, ctx.mb_col, ctx.field, ctx.prev_field)
        for mv in predictors:
            # Predictors carry half-pel precision; the candidate stage of
            # [9] evaluates their integer-pel projection, clamped into
            # this block's legal window.
            dx, dy = window.clamp(round(mv.hx / 2), round(mv.hy / 2))
            evaluator.evaluate(dx, dy)
        if self.refine_steps:
            evaluator.descend(_RING, self.refine_steps)
        mv, best_sad = evaluator.best()
        positions = evaluator.positions
        if self.half_pel:
            mv, best_sad, extra = refine_half_pel(
                ctx.block, ctx.matcher_reference, ctx.block_y, ctx.block_x, mv, best_sad, window
            )
            positions += extra
        return BlockResult(mv=mv, sad=best_sad, positions=positions, used_full_search=False)
