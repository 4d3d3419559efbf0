"""YUV 4:2:0 video frames.

The paper evaluates on QCIF (176x144) and CIF (352x288) sequences; both
geometries are multiples of 16 so every frame tiles exactly into 16x16
macroblocks, with 8x8 chroma blocks under 4:2:0 subsampling.

A :class:`Frame` owns three ``uint8`` numpy planes (Y, Cb, Cr).  All
pixel math in the package is done in wider integer or float dtypes; the
frame is the storage boundary where values are clamped back to [0, 255].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Luminance macroblock edge in pixels (the paper's N = M = 16).
MACROBLOCK_SIZE = 16


@dataclass(frozen=True)
class FrameGeometry:
    """Dimensions of a 4:2:0 frame.

    Parameters
    ----------
    width, height:
        Luma plane dimensions in pixels.  Both must be positive
        multiples of 16 so the frame tiles exactly into macroblocks.
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"frame dimensions must be positive, got {self.width}x{self.height}")
        if self.width % MACROBLOCK_SIZE or self.height % MACROBLOCK_SIZE:
            raise ValueError(
                f"frame dimensions must be multiples of {MACROBLOCK_SIZE}, "
                f"got {self.width}x{self.height}"
            )

    @property
    def chroma_width(self) -> int:
        return self.width // 2

    @property
    def chroma_height(self) -> int:
        return self.height // 2

    @property
    def mb_cols(self) -> int:
        """Macroblock grid width."""
        return self.width // MACROBLOCK_SIZE

    @property
    def mb_rows(self) -> int:
        """Macroblock grid height."""
        return self.height // MACROBLOCK_SIZE

    @property
    def pixels(self) -> int:
        """Luma pixel count."""
        return self.width * self.height


#: Quarter Common Intermediate Format — the paper's main evaluation size.
QCIF = FrameGeometry(176, 144)

#: Common Intermediate Format.
CIF = FrameGeometry(352, 288)


def _as_plane(data: np.ndarray, height: int, width: int, name: str) -> np.ndarray:
    arr = np.asarray(data)
    if arr.shape != (height, width):
        raise ValueError(f"{name} plane must be {height}x{width}, got {arr.shape}")
    if arr.dtype != np.uint8:
        arr = np.clip(np.rint(arr.astype(np.float64)), 0, 255).astype(np.uint8)
    return np.ascontiguousarray(arr)


class Frame:
    """One 4:2:0 video frame.

    Parameters
    ----------
    y:
        Luma plane, shape ``(height, width)``.
    cb, cr:
        Chroma planes, shape ``(height//2, width//2)``.  When omitted
        they default to the neutral value 128 (grey).
    index:
        Position of the frame in its source sequence (display order).
        Carried along so temporally subsampled sequences keep their
        original timestamps.

    Non-``uint8`` inputs are rounded and clamped to [0, 255].
    """

    __slots__ = ("y", "cb", "cr", "index")

    def __init__(
        self,
        y: np.ndarray,
        cb: np.ndarray | None = None,
        cr: np.ndarray | None = None,
        index: int = 0,
    ) -> None:
        y = np.asarray(y)
        if y.ndim != 2:
            raise ValueError(f"luma plane must be 2-D, got shape {y.shape}")
        geometry = FrameGeometry(y.shape[1], y.shape[0])
        ch, cw = geometry.chroma_height, geometry.chroma_width
        self.y = _as_plane(y, geometry.height, geometry.width, "Y")
        neutral = None
        if cb is None or cr is None:
            neutral = np.full((ch, cw), 128, dtype=np.uint8)
        self.cb = _as_plane(cb, ch, cw, "Cb") if cb is not None else neutral.copy()
        self.cr = _as_plane(cr, ch, cw, "Cr") if cr is not None else neutral.copy()
        self.index = int(index)

    # -- geometry -----------------------------------------------------

    @property
    def geometry(self) -> FrameGeometry:
        return FrameGeometry(self.y.shape[1], self.y.shape[0])

    @property
    def width(self) -> int:
        return self.y.shape[1]

    @property
    def height(self) -> int:
        return self.y.shape[0]

    # -- conversions --------------------------------------------------

    def copy(self) -> "Frame":
        return Frame(self.y.copy(), self.cb.copy(), self.cr.copy(), index=self.index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return (
            np.array_equal(self.y, other.y)
            and np.array_equal(self.cb, other.cb)
            and np.array_equal(self.cr, other.cr)
        )

    def __hash__(self) -> None:  # pragma: no cover - frames are mutable
        raise TypeError("Frame is unhashable (mutable pixel data)")

    def __repr__(self) -> str:
        return f"Frame({self.width}x{self.height}, index={self.index})"
