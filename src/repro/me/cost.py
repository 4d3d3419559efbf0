"""Lagrangian motion cost, Section 2.1 of the paper.

``J(mv) = D(mv) + λ·R(mv)`` where D is the SAD, R the bits to code the
motion vector differentially, and λ grows with the quantization step.
The paper uses J only as the comparison metric between estimators; the
codec's mode decisions here use the same model so the RD experiments
measure what the paper measured.

λ(Qp) follows the convention popularized by the H.263+ test models:
``λ = 0.85 · Qp²`` scaled into SAD units (the paper's β·Qp² threshold
shape comes from the same quadratic dependence).
"""

from __future__ import annotations

#: Test-model constant relating λ to Qp² for SAD-based distortion.
LAMBDA_SCALE = 0.85


def lagrange_lambda(qp: int) -> float:
    """Lagrange multiplier for quantizer step ``qp`` (1..31 in H.263)."""
    if not 1 <= qp <= 31:
        raise ValueError(f"H.263 Qp must be in 1..31, got {qp}")
    return LAMBDA_SCALE * float(qp * qp) ** 0.5  # sqrt(Qp^2) = Qp for SAD-domain D

