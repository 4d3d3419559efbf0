"""Per-block criticality classification — the heart of ACBM.

Section 3.1's characterization (our Fig. 4 rig regenerates it) showed:

* high-texture blocks (large Intra_SAD) usually carry *true* motion
  vectors and exhibit large SAD_deviation — skipping full search there
  is dangerous only if the predictive SAD is far from minimal;
* low-texture blocks gain almost nothing from full search but pay for
  it in bits (incoherent vectors) and computation.

:func:`classify_block` encodes the resulting two-condition rule;
:func:`classify_blocks` applies it to many blocks at once.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.core.parameters import ACBMParameters


class BlockDecision(str, Enum):
    """Outcome of the ACBM acceptance test for one block.

    The string values double as stable keys in
    :attr:`repro.me.stats.SearchStats.decisions`.
    """

    #: Condition 1 fired: combined activity + prediction error below the
    #: Qp-scaled threshold; the predictive vector is accepted.
    LOW_COST = "low_cost"
    #: Condition 2 fired: textured block but the predictive SAD is small
    #: relative to Intra_SAD; the predictive vector is accepted.
    GOOD_PREDICTION = "good_prediction"
    #: Neither condition holds; the block is critical and full search
    #: must run to protect reconstruction quality.
    CRITICAL = "critical"

    @property
    def accepts_pbm(self) -> bool:
        return self is not BlockDecision.CRITICAL


def classify_block(
    intra_sad: float,
    sad_pbm: int,
    qp: int,
    params: ACBMParameters,
) -> BlockDecision:
    """Apply the paper's two acceptance conditions in order.

    Parameters
    ----------
    intra_sad:
        Activity of the current block, Σ|p − µ|.
    sad_pbm:
        SAD of the vector found by the predictive search.
    qp:
        Quantizer step of the current frame (1..31).
    params:
        α, β, γ configuration.

    >>> params = ACBMParameters.paper_defaults()
    >>> classify_block(500.0, 400, 10, params)
    <BlockDecision.LOW_COST: 'low_cost'>
    >>> classify_block(9000.0, 800, 10, params)
    <BlockDecision.GOOD_PREDICTION: 'good_prediction'>
    >>> classify_block(9000.0, 5000, 10, params)
    <BlockDecision.CRITICAL: 'critical'>
    """
    if intra_sad < 0:
        raise ValueError(f"Intra_SAD must be >= 0, got {intra_sad}")
    if sad_pbm < 0:
        raise ValueError(f"SAD_PBM must be >= 0, got {sad_pbm}")
    if intra_sad + sad_pbm < params.threshold(qp):
        return BlockDecision.LOW_COST
    if sad_pbm < params.gamma * intra_sad:
        return BlockDecision.GOOD_PREDICTION
    return BlockDecision.CRITICAL


#: :func:`classify_blocks` codes index this tuple.
DECISIONS: tuple[BlockDecision, ...] = tuple(BlockDecision)
CRITICAL_CODE = DECISIONS.index(BlockDecision.CRITICAL)


def classify_blocks(
    intra_sads: np.ndarray, sad_pbms: np.ndarray, qp: int, params: ACBMParameters
) -> np.ndarray:
    """:func:`classify_block` over arrays: the decision of every block
    as an index into :data:`DECISIONS`.  The comparisons run in the same
    float64 arithmetic as the scalar rule, so the verdicts are
    identical block for block.

    >>> params = ACBMParameters.paper_defaults()
    >>> codes = classify_blocks(np.array([500.0, 9000.0, 9000.0]), np.array([400, 800, 5000]), 10, params)
    >>> [DECISIONS[k].value for k in codes]
    ['low_cost', 'good_prediction', 'critical']
    """
    intra = np.asarray(intra_sads, dtype=np.float64)
    sad_pbm = np.asarray(sad_pbms)
    return np.where(
        intra + sad_pbm < params.threshold(qp),
        DECISIONS.index(BlockDecision.LOW_COST),
        np.where(
            sad_pbm < params.gamma * intra,
            DECISIONS.index(BlockDecision.GOOD_PREDICTION),
            CRITICAL_CODE,
        ),
    )
