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
    vacuum block ``m=0``, when present, must be one-dimensional.  What
    depends on ``blocks`` alone is computed on first use and kept.
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

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.blocks)

    @functools.cached_property
    def total_dim(self) -> int:
        return sum(dim for _, dim in self.blocks)

    @functools.cached_property
    def _slices(self) -> dict[str, slice]:
        """Each block's slice of both indices, by label."""
        ends = np.cumsum([dim for _, dim in self.blocks]).tolist()
        return {lab: slice(end - dim, end) for (lab, dim), end in zip(self.blocks, ends)}

    @functools.cached_property
    def off_blocks(self) -> np.ndarray:
        """Read-only ``(d, d)`` mask of the entries outside every block."""
        owner = np.repeat(np.arange(len(self.blocks)), [dim for _, dim in self.blocks])
        mask = owner[:, None] != owner
        mask.flags.writeable = False
        return mask

    def dim(self, label: str) -> int:
        s = self.slice_of(label)
        return s.stop - s.start

    def offset(self, label: str) -> int:
        return self.slice_of(label).start

    def slice_of(self, label: str) -> slice:
        try:
            return self._slices[label]
        except KeyError:
            raise KeyError(f"no block {label!r} in layout") from None

    def has(self, label: str) -> bool:
        return label in self._slices

    @functools.cached_property
    def photon_labels(self) -> tuple[str, ...]:
        return tuple(lab for lab in self.labels if _is_photon_label(lab))

    def photon_numbers(self) -> tuple[int, ...]:
        return tuple(int(lab[2:]) for lab in self.photon_labels)

    def projector(self, labels) -> np.ndarray:
        """Read-only projector onto the given blocks, built once per ``(layout, tuple(labels))`` key."""
        return _projector(self, (labels,) if isinstance(labels, str) else tuple(labels))


class _Bytes(tuple):
    """An array argument of a :func:`_kept` function, as its ``(dtype, shape, bytes)``."""


def _kept(maxsize: int):
    """Keep a function's value for each argument value, for the process, in an ``lru_cache`` of ``maxsize``.

    The one way this package keeps an object: nothing is built before its first call.  An array argument
    keys on its dtype, shape and C-order bytes and reaches the function read-only; other arguments key as
    themselves and their type, so a ``1.0`` never finds the value of ``1``.  Arrays in the value and among
    its :func:`_members` are made read-only.
    """

    def keep(fn):
        @functools.lru_cache(maxsize=maxsize, typed=True)
        def build(*key, **kwargs):
            value = fn(*[np.frombuffer(a[2], a[0]).reshape(a[1]) if type(a) is _Bytes else a for a in key], **kwargs)
            for a in (value, *_members(value)):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
            return value

        @functools.wraps(fn, updated=())
        def kept(*args, **kwargs):
            keys = [_Bytes((a.dtype, a.shape, a.tobytes())) if isinstance(a, np.ndarray) else a for a in args]
            return build(*keys, **kwargs)
        kept.cache_info, kept.cache_clear = build.cache_info, build.cache_clear
        return kept

    return keep


def _members(value) -> list:
    """A tuple's items, else the value's attributes: in its ``__dict__`` and its classes' tuple ``__slots__``."""
    if isinstance(value, tuple):
        return list(value)
    slots = [name for cls in type(value).__mro__ for name in cls.__dict__.get("__slots__", ())]
    return [getattr(value, name, None) for name in [*getattr(value, "__dict__", ()), *slots]]


_layout = _kept(maxsize=64)(SpaceLayout)  # the builders' layouts, so what a layout keeps is built once


@_kept(maxsize=64)
def _projector(layout: SpaceLayout, labels: tuple[str, ...]) -> np.ndarray:
    p = np.zeros((layout.total_dim, layout.total_dim))
    for s in map(layout.slice_of, labels):
        p[s, s] = np.eye(s.stop - s.start)
    return p
