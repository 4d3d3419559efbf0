"""Sequences of frames with an attached frame rate.

The paper evaluates each clip at 30 and at 10 frames per second; the
lower rates are obtained by temporal subsampling of the 30 fps source
(keep every 3rd frame), which is exactly what
:meth:`Sequence.subsample` implements.  The frame rate matters twice:

* the rate axis of the RD curves is ``bits_per_frame * fps / 1000``
  (kbit/s), and
* subsampling enlarges inter-frame displacements, which is the paper's
  mechanism for stressing the predictive estimator's slow-motion-field
  assumption (Section 4).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence as TypingSequence

from repro.video.frame import Frame, FrameGeometry


class Sequence:
    """An ordered list of equally sized frames plus a frame rate.

    Parameters
    ----------
    frames:
        Frames in display order.  All must share one geometry.
    fps:
        Nominal frame rate in frames per second (the paper uses 30, 15
        and 10).
    name:
        Label used by experiment reports ("foreman", ...).
    """

    def __init__(self, frames: Iterable[Frame], fps: float = 30.0, name: str = "") -> None:
        self._frames: list[Frame] = list(frames)
        if not self._frames:
            raise ValueError("a sequence needs at least one frame")
        if fps <= 0:
            raise ValueError(f"fps must be positive, got {fps}")
        geometry = self._frames[0].geometry
        for frame in self._frames[1:]:
            if frame.geometry != geometry:
                raise ValueError(
                    f"mixed geometries in sequence: {geometry} vs {frame.geometry}"
                )
        self.fps = float(fps)
        self.name = name

    # -- container protocol -------------------------------------------

    def __len__(self) -> int:
        return len(self._frames)

    def __iter__(self) -> Iterator[Frame]:
        return iter(self._frames)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Sequence(self._frames[item], fps=self.fps, name=self.name)
        return self._frames[item]

    @property
    def frames(self) -> TypingSequence[Frame]:
        return tuple(self._frames)

    @property
    def geometry(self) -> FrameGeometry:
        return self._frames[0].geometry

    # -- derivations ---------------------------------------------------

    def subsample(self, factor: int) -> "Sequence":
        """Keep every ``factor``-th frame and divide the frame rate.

        ``seq.subsample(3)`` turns a 30 fps clip into the 10 fps variant
        used in Fig. 6 / Table 1.  Original frame indices are preserved
        on the retained frames.
        """
        if factor < 1:
            raise ValueError(f"subsample factor must be >= 1, got {factor}")
        if factor == 1:
            return Sequence(self._frames, fps=self.fps, name=self.name)
        kept = self._frames[::factor]
        return Sequence(kept, fps=self.fps / factor, name=self.name)

    def pairs(self) -> Iterator[tuple[Frame, Frame]]:
        """Yield (previous, current) frame pairs in display order."""
        for prev, cur in zip(self._frames, self._frames[1:]):
            yield prev, cur

    def __repr__(self) -> str:
        g = self.geometry
        label = f"{self.name!r}, " if self.name else ""
        return f"Sequence({label}{len(self)} frames, {g.width}x{g.height} @ {self.fps:g} fps)"
