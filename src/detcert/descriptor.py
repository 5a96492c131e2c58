"""Setup descriptors: the JSON a certificate starts from, parsed and validated.

A descriptor names a detection setup, the ranges within which an adversary
may set the dark count rates and efficiencies, and tolerances.  A field's
entry in ``_FIELDS`` holds its default and the converter of its value, JSON
or Python, which accepts its own output; ``SetupDescriptor.__init__`` refuses
an unknown field, runs the converter once per field given and then every
value rule, so a malformed field raises :class:`DescriptorError` naming it
however built.  The JSON reader only refuses a fixed setup's ``k`` and
``mode_map``, and nulls.
The module imports no numeric code: a rule stated in :mod:`detcert.detectors`
or :mod:`detcert.squashing` is imported by the branch that applies it, so
loading a fixed setup's descriptor loads neither numpy nor the detectors.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


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
    if not isinstance(value[0], str):
        raise DescriptorError(f"{name}: expected an event label, got {value[0]!r}")
    return (value[0], _number(value[1], name))


_FIXED_K = {"active-bb84": 2, "passive-bb84": 4}  # a custom setup states k and mode_map

# Every descriptor field, in the order ``to_dict`` echoes them: its name, its
# default and ``convert(value, name)`` for a value given for it (None: kept as
# given).  ``setup`` is required, so its default is never read.
_FIELDS = (
    ("setup", None, None),  # "active-bb84" | "passive-bb84" | "custom"
    ("k", None, _integer),
    ("eta_range", ((1.0, 1.0),), _ranges),
    ("dark_range", ((0.0, 0.0),), _ranges),
    ("cutoff", 1, _integer),
    ("eta_star", None, _optional_number),
    ("coarse_grain", "none", None),
    ("tol", 1e-9, _number),
    ("feas_tol", 1e-6, _number),
    ("seed", 0, _integer),
    ("weight_in", 0.0, _number),
    ("mode_map", (), _parse_mode_map),
    ("eta", None, _point),
    ("dark", None, _point),
    ("observed", None, _observed),
    ("corner_limit", 4, _integer),
)
FIELD_NAMES = frozenset(name for name, _, _ in _FIELDS)


class SetupDescriptor:
    """Validated description of a detection setup; attributes are named as the JSON fields.

    ``eta_range``, ``dark_range``, ``eta`` and ``dark`` hold one entry per
    detector, or one shared by all ``k``; ``k`` defaults to a fixed setup's.
    A given ``eta`` or ``dark`` lies inside its range, detector by detector.
    Immutable, compared and hashed on its field values; :meth:`replace` is
    the one way to derive another, and it runs every rule again.
    """

    def __init__(self, setup=None, **given):
        unknown = given.keys() - FIELD_NAMES
        if unknown:
            raise DescriptorError(f"unknown descriptor fields: {sorted(unknown)}")
        given["setup"] = setup
        fields = self.__dict__  # each value given, from JSON or Python, converted once
        for name, default, convert in _FIELDS:
            value = given.get(name, default)
            fields[name] = convert(value, name) if convert is not None and value is not default else value
        if self.setup not in (*_FIXED_K, "custom"):
            raise DescriptorError(f"setup: unknown kind {self.setup!r}")
        fixed = _FIXED_K.get(self.setup)
        if fixed is None:
            from .detectors import MAX_DETECTORS
            if self.k is None or not 1 <= self.k <= MAX_DETECTORS:
                raise DescriptorError(f"k: custom setups need a detector count in [1, {MAX_DETECTORS}], got {self.k!r}")
        else:
            if self.k not in (None, fixed):
                raise DescriptorError(f"k: the {self.setup} setup has {fixed} detectors, got {self.k!r}")
            fields["k"] = fixed
            if self.mode_map:
                raise DescriptorError(f"mode_map: fixed by the {self.setup} setup, must be empty")
        for name in ("eta_range", "dark_range", "eta", "dark"):
            values = getattr(self, name)
            if values is None:
                continue
            if len(values) == 1:  # one entry shared by every detector
                values = values * self.k
                fields[name] = values
            if len(values) != self.k:
                unit = "ranges" if name.endswith("_range") else "values"
                raise DescriptorError(f"{name}: expected {self.k} {unit}, got {len(values)}")
        if self.cutoff not in (1, 2, 3):
            raise DescriptorError(f"cutoff: must be 1, 2 or 3, got {self.cutoff}")
        if self.coarse_grain not in ("none", "multiclick"):
            raise DescriptorError(f"coarse_grain: unknown mode {self.coarse_grain!r}")
        if self.coarse_grain == "multiclick" and self.k < 2:
            raise DescriptorError("coarse_grain: multiclick needs at least 2 detectors, got k=1")
        if self.coarse_grain != "none" and self.setup == "active-bb84":  # squashed per basis, never grained
            raise DescriptorError(f"coarse_grain: the active-bb84 setup takes no graining, got {self.coarse_grain!r}")
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
        if self.eta_star is not None and not 0.0 < self.eta_star <= 1.0:  # NaN fails too
            raise DescriptorError(f"eta_star: must lie in (0, 1], got {self.eta_star}")
        if self.seed < 0:
            raise DescriptorError(f"seed: must be a non-negative integer, got {self.seed}")
        if self.corner_limit < 2:
            raise DescriptorError(f"corner_limit: must be at least 2, got {self.corner_limit}")
        entries = [z for row in self.mode_map for z in row]
        if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in entries):
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
            from .detectors import is_isometry
            if not is_isometry(self.mode_map):
                raise DescriptorError("mode_map: columns are not orthonormal (not an isometry)")
        if self.observed is not None:
            from .detectors import enumerate_events
            from .squashing import _resolve_event
            try:
                _resolve_event(enumerate_events(self.k), self.observed[0])
            except ValueError as exc:
                raise DescriptorError(f"observed: {exc}") from exc

    def to_dict(self) -> dict:
        """The JSON fields; unset optional ones are left out, ``eta_star`` echoed even as null."""
        out = dict(self.__dict__)
        if self.setup != "custom":
            del out["k"]  # fixed by the setup
        out["mode_map"] = [[[z.real, z.imag] for z in row] for row in self.mode_map]
        if self.observed is not None:
            out["observed"] = {"event": self.observed[0], "probability": self.observed[1]}
        return {name: v for name, v in out.items() if v not in (None, []) or name == "eta_star"}

    def replace(self, **changes) -> SetupDescriptor:
        """This descriptor with ``changes`` in place of its fields, every rule run again."""
        return SetupDescriptor(**{**self.__dict__, **changes})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self.__dict__ == other.__dict__ if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        return f"SetupDescriptor({', '.join(f'{name}={value!r}' for name, value in self.__dict__.items())})"


def descriptor_from_dict(data: dict) -> SetupDescriptor:
    """The descriptor a JSON object states; the reader refuses nulls and a fixed setup's ``k`` or ``mode_map``, not values."""
    if not isinstance(data, dict):
        raise DescriptorError("descriptor must be a JSON object")
    setup = data.get("setup")
    if isinstance(setup, str) and setup in _FIXED_K:
        for name in ("k", "mode_map"):
            if name in data:
                raise DescriptorError(f"{name}: fixed by the {setup} setup, not a descriptor field")
    for name, _, convert in _FIELDS:
        if convert is not None and name in data and data[name] is None:
            convert(None, name)  # a null: its converter names the field (eta_star's admits it)
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
