"""The kernel ABI: the narrow seam between the codec and its compute.

Every hot loop in the codec funnels through one of the entry points
named here — a deliberate bottleneck so an alternative backend (today
:mod:`repro.kernels.numba_backend`, tomorrow Cython/C) only has to
implement this surface to accelerate the whole system:

* ``sad_surfaces`` — the full ±p SAD surface of any list of
  macroblocks (the core of :func:`repro.me.engine.block_sad_surfaces`:
  ACBM's critical blocks, or every block for FSBM);
* ``evaluate_candidates`` — arbitrary (block, displacement) candidate
  lists scored in one pass;
* ``refine_half_pel`` — the 8-neighbour half-pel stage for any set of
  blocks;
* ``intra_mode_costs`` — open-loop DC/vertical/horizontal mode SADs;
* ``mc_gather`` — the motion-compensated plane gather behind
  ``frame_mc_luma``/``frame_mc_chroma``;
* ``dequant`` / ``dequant_intra_dc`` — H.263 level reconstruction;
* ``idct`` — the 8x8 inverse DCT.  **Every backend must bind the same
  float64 matmul** (:func:`repro.codec.dct.inverse_dct`): the codec's
  bit-identity contract hinges on ``rint`` seeing identical floats, and
  a compiled reassociation of the sum could flip a half-way case;
* ``scan_block_levels`` + ``parse_*_body`` — the VLC symbol-scan
  primitives backing ``BitReader.read_vlc``/``read_ue``: a compiled
  TCOEF block scan and whole-picture-body grammar kernels walking the
  packed LUTs of :mod:`repro.kernels.lut_pack`.  ``None`` means "use
  the Python LUT path" (the numpy backend's choice — NumPy cannot beat
  the existing word-level reader at per-symbol granularity).

Contract for the compiled VLC entries: they operate on an **untouched**
cursor snapshot (``BitReader.cursor()``) and signal *any* deviation from
the happy path — invalid prefix, truncation, illegal value, unsupported
shape — by returning ``None`` (bodies) or a negative position (scan)
**without advancing the reader**.  The caller then replays the identical
bits through the Python path, which raises the codec's exact exceptions;
error parity across backends holds by construction, not by duplicated
``raise`` statements.

Search geometry: the four motion-search entries (``sad_surfaces``,
``evaluate_candidates``, ``refine_half_pel``, ``intra_mode_costs``)
take no block size — every one works on the codec's 16x16 macroblocks
(:data:`repro.video.frame.MACROBLOCK_SIZE`), a module constant each
backend reads.  Only ``mc_gather`` takes its block edge, because motion
compensation serves 16x16 luma and 8x8 chroma blocks.

Numerical contract everywhere else: integer kernels (SAD, gather,
dequant) are exact, so "equivalent" means *bit-identical* — the golden
suites run parametrized over every available backend and compare
encoded bytes, not PSNR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class KernelBackend:
    """One backend's bindings for the kernel ABI.

    Instances are cheap frozen records; the active one is resolved by
    :func:`repro.kernels.get_backend` (``REPRO_BACKEND`` env var or the
    runner's ``--backend`` flag, ``auto`` = numba-if-importable).
    """

    #: Registry name ("numpy", "numba"; "numba-sim" for the un-jitted
    #: bodies).  The ``backend.select`` trace event and perfbench's run
    #: record carry it, and the worker pool re-selects it by name in
    #: spawned workers.
    name: str

    #: (cur u8 (h,w), ref u8 (h,w), mb_rows (N,), mb_cols (N,), p)
    #: -> (N, 2p+1, 2p+1) int32 surfaces of 16x16 macroblocks with
    #: SURFACE_SENTINEL at out-of-plane displacements, for any block list
    #: (unsorted, repeats and N = 0 allowed).  1 <= p <= 31 only
    #: (:func:`repro.me.engine.kernels.check_search_envelope`).
    sad_surfaces: Callable

    #: (cur, ref, block_ys (N,), block_xs (N,), dys (N,K), dxs (N,K))
    #: -> (N, K) int64 16x16 SADs, -1 marking out-of-plane candidates.
    evaluate_candidates: Callable

    #: (cur, half_plane u8, mb_rows (N,), mb_cols (N,), anchor_dx (N,),
    #:  anchor_dy (N,), anchor_sads (N,), p, h, w, neighbours (8,2) as
    #:  (dhx, dhy)) -> (hx, hy, sads, evaluated), all (N,), for any subset
    #: of macroblocks; strict-improvement update in neighbour order.
    refine_half_pel: Callable

    #: (y plane) -> (3, rows, cols) int64 per-macroblock mode-cost
    #: surface (DC / vertical / horizontal), INTRA_UNAVAILABLE_COST
    #: sentinel.
    intra_mode_costs: Callable

    #: (half_plane u8, base_hy (rows,cols), base_hx (rows,cols), s)
    #: -> (rows*s, cols*s) u8 motion-compensated plane; s is 16 for
    #: luma and 8 for chroma.
    mc_gather: Callable

    #: (levels int array, qp) -> float64 reconstructed coefficients.
    dequant: Callable

    #: (dc levels int64, already range-validated) -> float64 (level * 8).
    dequant_intra_dc: Callable

    #: (coefficients (..., 8, 8) float64) -> float64 pixels.  Must be the
    #: shared numpy matmul in every backend (see module docstring).
    idct: Callable

    #: Optional compiled TCOEF block scan:
    #: (data u8 array, bit_pos, nbits, out_flat int64 (64,), skip_first)
    #: -> new bit position, or -1 to fall back (out untouched or rezeroed
    #: by the caller).  None = use the Python LUT loop.
    scan_block_levels: Optional[Callable] = None

    #: Optional compiled picture-body parsers.  Signatures:
    #: parse_inter_body(data, pos, nbits, extended, num_refs, rows, cols)
    #:   -> (new_pos, levels (rows,cols,6,64) i64, hx, hy, ref_idx) | None
    #: parse_intra_body(data, pos, nbits, rows, cols)
    #:   -> (new_pos, levels (rows*cols*6,64) i64, dc_levels) | None
    #: parse_intra_pred_body(data, pos, nbits, rows, cols)
    #:   -> (new_pos, levels (rows,cols,6,64) i64, modes) | None
    #: None = use the Python fast bodies.
    parse_inter_body: Optional[Callable] = None
    parse_intra_body: Optional[Callable] = None
    parse_intra_pred_body: Optional[Callable] = None
