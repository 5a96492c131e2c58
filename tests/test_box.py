"""What a box certifies, every point in it certifies.

A metamorphic test of ``run_analysis``: a descriptor box it finds reducible
is run again as one-point descriptors drawn inside it, both ranges collapsed
to the point and ``eta_star`` the box's.  Each point must be reducible, with
``weight_out`` at most the box's.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from detcert.descriptor import descriptor_from_dict
from detcert.report import run_analysis

_DARK = st.floats(0.0, 0.05)
_POINTS = 5


@st.composite
def _box(draw, half: str) -> dict:
    """A descriptor box of ``half``: passive or custom BB84 (graining on or off), or active BB84 at ``eta = 1``."""
    if half == "active":  # one dark range shared by both detectors
        return {"setup": "active-bb84", "eta_range": [1.0, 1.0], "dark_range": [0.0, draw(_DARK)]}
    if half == "passive":
        k, box = 4, {"setup": "passive-bb84"}
    else:
        k = draw(st.integers(1, 4))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        shape = (k, draw(st.integers(1, k)))
        isometry = np.linalg.qr(rng.normal(size=shape) + 1j * draw(st.booleans()) * rng.normal(size=shape))[0]
        # an entry with imaginary part 0 is read as real, so a real draw gives a real map
        box = {"setup": "custom", "k": k, "mode_map": [[[z.real, z.imag] for z in row] for row in isometry.tolist()]}
    box["eta_range"] = [sorted(draw(st.lists(st.floats(0.3, 1.0), min_size=2, max_size=2))) for _ in range(k)]
    box["dark_range"] = [[0.0, draw(_DARK)] for _ in range(k)]
    box["coarse_grain"] = draw(st.sampled_from(["none", "multiclick"] if k > 1 else ["none"]))
    return box


@pytest.mark.parametrize("half", [
    "passive",
    "custom",
    pytest.param("active", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 3: the box certifies at its top dark row, and an interior pair of "
                            "unequal rates fails the swap LP",
    )),
])
@settings(max_examples=60, deadline=None, derandomize=True, database=None, phases=[Phase.explicit, Phase.generate])
@given(data=st.data())
def test_every_point_of_a_certified_box_is_certified(half, data):
    box = data.draw(_box(half), label="box")
    desc = descriptor_from_dict(box)
    cert = run_analysis(desc)
    if not cert.all_passed:  # a downgraded box claims nothing
        return
    for _ in range(_POINTS):
        eta = [data.draw(st.floats(lo, hi)) for lo, hi in desc.eta_range]
        dark = [data.draw(st.floats(0.0, top)) for _, top in desc.dark_range]
        point = {**box, "eta_range": [[e, e] for e in eta], "dark_range": [[d, d] for d in dark],
                 "eta_star": cert.derived["eta_star"]}
        inside = run_analysis(descriptor_from_dict(point))
        assert inside.all_passed, (point, inside.failed_requirement)
        assert inside.derived["weight_out"] <= cert.derived["weight_out"], point
