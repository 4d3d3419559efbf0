"""The always-on reference backend: the existing NumPy kernels.

Nothing here is new code — this module re-exports the vectorized
implementations that live next to their call sites (the engine's batched
SAD kernels, the reconstruction gather, the quantizer arithmetic) as a
:class:`~repro.kernels.api.KernelBackend` record.  The compiled VLC
entries are ``None``: the Python word-level reader + LUT walk *is* the
numpy-tier parse path, and the fast bodies in ``repro.codec.decoder``
use it directly.

Being the reference has teeth: every other backend is pinned
bit-identical to this one by the backend-parametrized golden suites,
and this backend itself is pinned to the seed per-block implementations
by the original equivalence tests.
"""

from __future__ import annotations

from repro.codec.dct import inverse_dct
from repro.codec.quantizer import dequantize_intra_dc_numpy, dequantize_numpy
from repro.kernels.api import KernelBackend
from repro.me.engine.kernels import (
    evaluate_candidates_numpy,
    intra_mode_costs_numpy,
    refine_half_pel_numpy,
    sad_surfaces_numpy,
)
from repro.me.engine.reconstruction import mc_gather_numpy

BACKEND = KernelBackend(
    name="numpy",
    sad_surfaces=sad_surfaces_numpy,
    evaluate_candidates=evaluate_candidates_numpy,
    refine_half_pel=refine_half_pel_numpy,
    intra_mode_costs=intra_mode_costs_numpy,
    mc_gather=mc_gather_numpy,
    dequant=dequantize_numpy,
    dequant_intra_dc=dequantize_intra_dc_numpy,
    idct=inverse_dct,
    scan_block_levels=None,
    parse_inter_body=None,
    parse_intra_body=None,
    parse_intra_pred_body=None,
)
