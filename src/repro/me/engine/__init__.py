"""Frame-level vectorized search engine.

The seed reproduction evaluated every candidate with a per-block,
per-candidate Python-level SAD: each block re-sliced the reference and
each half-pel candidate re-ran the bilinear interpolation.  Real
encoders build the interpolated reference **once per frame** and batch
candidate evaluation; this package is that engine:

* :class:`ReferencePlane` — a per-frame cache around the reference luma
  with its 2x-upsampled half-pel plane (H.263 bilinear rounding,
  bit-exact with :func:`repro.me.subpel.half_pel_block`), built once
  and shared by every estimator, the half-pel refinement and the
  encoder's motion compensation.
* :func:`block_sad_surfaces` — the full +-p SAD surface of any list
  of 16x16 macroblocks in one vectorized pass (ACBM's critical blocks);
  :func:`frame_sad_surfaces` runs it over every macroblock and returns
  the ``(rows, cols, 2p+1, 2p+1)`` array (FSBM, and the Fig. 4 rig,
  which reduces it with :func:`sad_deviations`).
* :func:`select_minima` / :func:`refine_half_pel_batch` — vectorized
  minimum selection (full-search tie-break semantics) and batched
  8-neighbour half-pel refinement over any set of blocks at once.
* :func:`evaluate_candidates_batch` — arbitrary candidate lists scored
  for many blocks in one gather, behind the predictive and pattern
  searches' :class:`repro.me.candidates.BatchEvaluator`.

The search kernels take no block size: each searches the codec's 16x16
macroblocks (:data:`repro.video.frame.MACROBLOCK_SIZE`), the paper's
H.263 setting.

The reconstruction side gets the same treatment
(:mod:`repro.me.engine.reconstruction` and
:mod:`repro.me.engine.chroma_plane`):

* :class:`ChromaReferencePlane` — the Cb/Cr planes with their half-pel
  caches, shared by the encoder's closed loop and the decoder.
* :func:`frame_mc_luma` / :func:`frame_mc_chroma` — whole-frame motion
  compensation in one gather (chroma includes the H.263 vector
  derivation and border clamping).
* :func:`split_frame_blocks` / :func:`tile_luma_blocks` /
  :func:`tile_blocks` / :func:`add_residual_clip` — whole-frame block
  split and its inverse, residual reassembly, rounding and clamping
  back to stored ``uint8`` planes.
* :func:`composite_predictions` — per-macroblock reference selection
  over whole-frame predictions (multi-reference P-frames).

Everything in here is *bit-exact* with the per-block reference
implementations it replaces; ``tests/test_engine.py`` and
``tests/test_reconstruction.py`` hold the golden equivalence proofs.
"""

from repro.me.engine.chroma_plane import ChromaReferencePlane
from repro.me.engine.kernels import (
    INTRA_UNAVAILABLE_COST,
    SURFACE_SENTINEL,
    block_sad_surfaces,
    evaluate_candidates_batch,
    frame_sad_surfaces,
    intra_mode_cost_surfaces,
    refine_half_pel_batch,
    sad_deviations,
    select_minima,
)
from repro.me.engine.reconstruction import (
    add_residual_clip,
    chroma_mv_grids,
    composite_predictions,
    frame_mc_chroma,
    frame_mc_luma,
    split_frame_blocks,
    tile_blocks,
    tile_luma_blocks,
)
from repro.me.engine.reference_plane import ReferencePlane

__all__ = [
    "INTRA_UNAVAILABLE_COST",
    "SURFACE_SENTINEL",
    "ChromaReferencePlane",
    "ReferencePlane",
    "add_residual_clip",
    "block_sad_surfaces",
    "chroma_mv_grids",
    "composite_predictions",
    "evaluate_candidates_batch",
    "frame_mc_chroma",
    "frame_mc_luma",
    "frame_sad_surfaces",
    "intra_mode_cost_surfaces",
    "refine_half_pel_batch",
    "sad_deviations",
    "select_minima",
    "split_frame_blocks",
    "tile_blocks",
    "tile_luma_blocks",
]
