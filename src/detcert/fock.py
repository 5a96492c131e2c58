"""Photon-number block spaces.

Every measurement in this package is block-diagonal in total photon number,
with an optional extra "flag" block of orthonormal classical pointer states.
A ``SpaceLayout`` records the ordered blocks; operators on it are plain
dense matrices, and a block is the slice ``layout.slice_of(label)`` of both
of their indices.

The intended scale is small (cutoff <= 3, at most four detectors), where
dense eigensolves are both exact enough and fast.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

FLAG_LABEL = "flag"


def photon_label(m: int) -> str:
    return f"m={m}"


def _is_photon_label(label: str) -> bool:
    return label.startswith("m=") and label[2:].isdigit()


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered block structure of a finite-dimensional space.

    ``blocks`` is a tuple of ``(label, dimension)`` pairs.  Labels are either
    photon-number labels ``m=0, m=1, ...`` or the literal ``"flag"``.  The
    vacuum block ``m=0``, when present, must be one-dimensional.
    """

    blocks: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("layout needs at least one block")
        labels = [lab for lab, _ in self.blocks]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate block labels in {labels}")
        for lab, dim in self.blocks:
            if not (_is_photon_label(lab) or lab == FLAG_LABEL):
                raise ValueError(f"unknown block label {lab!r}")
            if not isinstance(dim, int) or dim < 1:
                raise ValueError(f"block {lab!r} has invalid dimension {dim}")
        if photon_label(0) in labels and dict(self.blocks)[photon_label(0)] != 1:
            raise ValueError("the vacuum block m=0 must have dimension 1")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.blocks)

    @property
    def total_dim(self) -> int:
        return sum(dim for _, dim in self.blocks)

    def dim(self, label: str) -> int:
        for lab, d in self.blocks:
            if lab == label:
                return d
        raise KeyError(f"no block {label!r} in layout")

    def offset(self, label: str) -> int:
        off = 0
        for lab, d in self.blocks:
            if lab == label:
                return off
            off += d
        raise KeyError(f"no block {label!r} in layout")

    def slice_of(self, label: str) -> slice:
        off = self.offset(label)
        return slice(off, off + self.dim(label))

    def has(self, label: str) -> bool:
        return label in self.labels

    @property
    def photon_labels(self) -> tuple[str, ...]:
        return tuple(lab for lab in self.labels if _is_photon_label(lab))

    def photon_numbers(self) -> tuple[int, ...]:
        return tuple(int(lab[2:]) for lab in self.photon_labels)

    def projector(self, labels) -> np.ndarray:
        """Read-only projector onto the given blocks, built once per ``(layout, tuple(labels))`` key."""
        return _projector(self, (labels,) if isinstance(labels, str) else tuple(labels))


@functools.lru_cache(maxsize=64)
def _projector(layout: SpaceLayout, labels: tuple[str, ...]) -> np.ndarray:
    p = np.zeros((layout.total_dim, layout.total_dim))
    for lab in labels:
        s = layout.slice_of(lab)
        p[s, s] = np.eye(layout.dim(lab))
    p.flags.writeable = False
    return p
