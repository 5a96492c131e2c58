"""Setup descriptors: the JSON a certificate starts from, parsed and validated.

A descriptor names a detection setup, the ranges within which an adversary
may set the dark count rates and efficiencies, and tolerances.  A field's
``metadata["parse"]`` converts its value, JSON or Python, and accepts its own
output; ``__post_init__`` runs it once per field given and then every value
rule, so a malformed field raises :class:`DescriptorError` naming it however
built.  The JSON reader only checks which fields appear and rejects nulls.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .detectors import MAX_DETECTORS, enumerate_events, is_isometry


class DescriptorError(ValueError):
    """Malformed setup descriptor (field named in the message)."""


def _number(value, name: str) -> float:
    """A JSON number (not a bool, null or string) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DescriptorError(f"{name}: expected a number, got {value!r}")
    return float(value)


def _optional_number(value, name: str) -> float | None:
    return None if value is None else _number(value, name)


def _integer(value, name: str) -> int:
    """A JSON number with an integral value as an int."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DescriptorError(f"{name}: expected an integer, got {value!r}")
    return value


def _ranges(value, name: str):
    """A shared ``[lo, hi]`` (kept as one range) or a list of ranges."""
    if not isinstance(value, (list, tuple)):
        raise DescriptorError(f"{name}: expected a range or list of ranges")
    if len(value) == 2 and not any(isinstance(v, (list, tuple)) for v in value):
        value = [value]
    out = []
    for entry in value:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise DescriptorError(f"{name}: malformed range entry {entry!r}")
        out.append((_number(entry[0], name), _number(entry[1], name)))
    return tuple(out)


def _point(value, name: str):
    """One number (kept as one value) or a list of numbers."""
    values = value if isinstance(value, (list, tuple)) else [value]
    return tuple(_number(v, name) for v in values)


def _parse_mode_map(raw, name: str):
    """Rows of numbers, ``[re, im]`` pairs or complexes; an entry with imaginary part 0 is kept as a float."""
    if not (isinstance(raw, (list, tuple)) and all(isinstance(r, (list, tuple)) for r in raw)):
        raise DescriptorError(f"{name}: expected a list of rows")
    rows = []
    for row in raw:
        parsed = []
        for entry in row:
            pair = (entry.real, entry.imag) if isinstance(entry, complex) else entry
            pair = pair if isinstance(pair, (list, tuple)) and len(pair) == 2 else (entry, 0.0)
            real, imag = (_number(v, name) for v in pair)
            parsed.append(complex(real, imag) if imag else real)
        rows.append(tuple(parsed))
    return tuple(rows)


def _observed(value, name: str) -> tuple[str, float]:
    """A JSON ``{"event", "probability"}`` object or an ``(event, probability)`` tuple as ``(str, float)``."""
    if isinstance(value, dict) and "event" in value and "probability" in value:
        value = (value["event"], value["probability"])
    elif not (isinstance(value, tuple) and len(value) == 2):
        raise DescriptorError(f"{name}: needs fields 'event' and 'probability'")
    return (str(value[0]), _number(value[1], name))


def _field(parse, default):
    """A descriptor field: its default and ``parse(value, name)`` converting a value given for it."""
    return field(default=default, metadata={"parse": parse})


_FIXED_K = {"active-bb84": 2, "passive-bb84": 4}  # a custom setup states k and mode_map


@dataclass(frozen=True)
class SetupDescriptor:
    """Validated description of a detection setup; attributes are named as the JSON fields.

    ``eta_range``, ``dark_range``, ``eta`` and ``dark`` hold one entry per
    detector, or one shared by all ``k``; ``k`` defaults to a fixed setup's.
    A given ``eta`` or ``dark`` lies inside its range, detector by detector.
    """

    setup: str  # "active-bb84" | "passive-bb84" | "custom"
    k: int | None = _field(_integer, None)
    eta_range: tuple[tuple[float, float], ...] = _field(_ranges, ((1.0, 1.0),))
    dark_range: tuple[tuple[float, float], ...] = _field(_ranges, ((0.0, 0.0),))
    cutoff: int = _field(_integer, 1)
    eta_star: float | None = _field(_optional_number, None)
    coarse_grain: str = "none"
    tol: float = _field(_number, 1e-9)
    feas_tol: float = _field(_number, 1e-6)
    seed: int = _field(_integer, 0)
    weight_in: float = _field(_number, 0.0)
    mode_map: tuple = _field(_parse_mode_map, ())
    eta: tuple[float, ...] | None = _field(_point, None)
    dark: tuple[float, ...] | None = _field(_point, None)
    observed: tuple[str, float] | None = _field(_observed, None)
    corner_limit: int = _field(_integer, 4)

    def __post_init__(self):
        for f in fields(self):  # each value given, from JSON or Python, converted once
            value = getattr(self, f.name)
            if "parse" in f.metadata and value is not f.default:
                object.__setattr__(self, f.name, f.metadata["parse"](value, f.name))
        if self.setup not in (*_FIXED_K, "custom"):
            raise DescriptorError(f"setup: unknown kind {self.setup!r}")
        fixed = _FIXED_K.get(self.setup)
        if fixed is None:
            if self.k is None or not 1 <= self.k <= MAX_DETECTORS:
                raise DescriptorError(f"k: custom setups need a detector count in [1, {MAX_DETECTORS}], got {self.k!r}")
        else:
            if self.k not in (None, fixed):
                raise DescriptorError(f"k: the {self.setup} setup has {fixed} detectors, got {self.k!r}")
            object.__setattr__(self, "k", fixed)
            if self.mode_map:
                raise DescriptorError(f"mode_map: fixed by the {self.setup} setup, must be empty")
        for name in ("eta_range", "dark_range", "eta", "dark"):
            values = getattr(self, name)
            if values is None:
                continue
            if len(values) == 1:  # one entry shared by every detector
                values = values * self.k
                object.__setattr__(self, name, values)
            if len(values) != self.k:
                unit = "ranges" if name.endswith("_range") else "values"
                raise DescriptorError(f"{name}: expected {self.k} {unit}, got {len(values)}")
        if self.cutoff not in (1, 2, 3):
            raise DescriptorError(f"cutoff: must be 1, 2 or 3, got {self.cutoff}")
        if self.coarse_grain not in ("none", "multiclick"):
            raise DescriptorError(f"coarse_grain: unknown mode {self.coarse_grain!r}")
        if self.coarse_grain == "multiclick" and self.k < 2:
            raise DescriptorError("coarse_grain: multiclick needs at least 2 detectors, got k=1")
        for name in ("eta_range", "dark_range"):
            for lo, hi in getattr(self, name):
                if not (0.0 <= lo <= hi <= 1.0):
                    raise DescriptorError(f"{name}: range [{lo}, {hi}] not ordered in [0, 1]")
        if not 0.0 <= self.weight_in <= 1.0:
            raise DescriptorError("weight_in: must lie in [0, 1]")
        for name in ("tol", "feas_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DescriptorError(f"{name}: must be positive and finite, got {value}")
        if self.eta_star is not None and not math.isfinite(self.eta_star):
            raise DescriptorError(f"eta_star: must be finite, got {self.eta_star}")
        if self.seed < 0:
            raise DescriptorError(f"seed: must be a non-negative integer, got {self.seed}")
        if self.corner_limit < 2:
            raise DescriptorError(f"corner_limit: must be at least 2, got {self.corner_limit}")
        entries = [z for row in self.mode_map for z in row]
        if not np.isfinite(np.asarray(entries, dtype=complex)).all():
            raise DescriptorError(f"mode_map: values must be finite, got {entries}")
        for name, ranges in (("eta", self.eta_range), ("dark", self.dark_range)):
            values = getattr(self, name)
            if values is not None and not all(lo <= v <= hi for v, (lo, hi) in zip(values, ranges)):  # NaN fails too
                raise DescriptorError(
                    f"{name}: values must lie in {name}_range {[list(r) for r in ranges]}, got {list(values)}"
                )
        if self.observed is not None and not 0.0 <= self.observed[1] <= 1.0:
            raise DescriptorError(f"observed: values must lie in [0, 1], got {[self.observed[1]]}")
        if self.setup == "custom":
            widths = [len(row) for row in self.mode_map]
            if len(widths) != self.k or len(set(widths)) != 1 or 0 in widths:
                raise DescriptorError(
                    f"mode_map: expected {self.k} rows of one nonzero length, "
                    f"got row lengths {widths}"
                )
            if not is_isometry(self.mode_map):
                raise DescriptorError("mode_map: columns are not orthonormal (not an isometry)")
        if self.observed is not None:
            events = enumerate_events(self.k)
            allowed = events.labels + (("multi",) if events.multi_indices else ())
            if self.observed[0] not in allowed:
                raise DescriptorError(
                    f"observed: no event labelled {self.observed[0]!r}; expected one of {list(allowed)}"
                )

    def points(self, box: bool) -> tuple[np.ndarray, np.ndarray]:
        """The efficiencies and dark rates a command evaluates, as two ``(n, k)`` stacks.

        ``box=True`` samples the corners of ``eta_range``: all-low, all-high,
        then mixed corners in binary-counter order over the detectors whose
        range is not a single point (detector 1 first), so no corner repeats,
        up to ``corner_limit`` in all.  Exact for quantities monotone in each
        efficiency, a sample otherwise.  Its dark stack is one row, the top of
        each ``dark_range``.  ``box=False`` is one point: ``eta``, else the
        bottom of each range, and ``dark``, else the top of each range.
        """
        lo, hi = np.array(self.eta_range).T
        top = np.array(self.dark_range)[:, 1]
        if not box:
            eta, dark = (lo if self.eta is None else self.eta), (top if self.dark is None else self.dark)
            return np.array([eta]), np.array([dark])
        free = np.flatnonzero(lo < hi)
        last = 2**free.size - 1
        patterns = np.array(([0, last, *range(1, last)] if last else [0])[: self.corner_limit])
        high = np.zeros((patterns.size, self.k), dtype=bool)
        high[:, free] = (patterns[:, None] >> np.arange(free.size)) & 1
        return np.where(high, hi, lo), top[None]

    def to_dict(self) -> dict:
        """The JSON fields; unset optional ones are left out, ``eta_star`` echoed even as null."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.setup != "custom":
            del out["k"]  # fixed by the setup
        out["mode_map"] = [[[z.real, z.imag] for z in row] for row in self.mode_map]
        if self.observed is not None:
            out["observed"] = {"event": self.observed[0], "probability": self.observed[1]}
        return {name: v for name, v in out.items() if v not in (None, []) or name == "eta_star"}


def descriptor_from_dict(data: dict) -> SetupDescriptor:
    """The descriptor a JSON object states; the reader checks which fields appear and rejects nulls, not values."""
    if not isinstance(data, dict):
        raise DescriptorError("descriptor must be a JSON object")
    setup = data.get("setup")
    if isinstance(setup, str) and setup in _FIXED_K:
        for name in ("k", "mode_map"):
            if name in data:
                raise DescriptorError(f"{name}: fixed by the {setup} setup, not a descriptor field")

    unknown = set(data) - {f.name for f in fields(SetupDescriptor)}
    if unknown:
        raise DescriptorError(f"unknown descriptor fields: {sorted(unknown)}")
    for f in fields(SetupDescriptor):
        if f.name in data and data[f.name] is None and "parse" in f.metadata:
            f.metadata["parse"](None, f.name)  # a null: its converter names the field (eta_star's admits it)
    return SetupDescriptor(**{**data, "setup": setup})


def load_descriptor(path) -> SetupDescriptor:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DescriptorError(
            f"descriptor is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    except (OSError, UnicodeDecodeError, RecursionError) as exc:  # unreadable, not UTF-8, or nested too deeply
        raise DescriptorError(f"cannot read descriptor: {exc}") from exc
    return descriptor_from_dict(data)
