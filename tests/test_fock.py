import numpy as np
import pytest
from helpers import SMALL_EVENTS, SMALL_LAYOUT, random_density, random_squashed_povm

from detcert import POVM, SpaceLayout
from detcert.detectors import build_threshold_povm, passive_bb84_setup


def test_direct_sum_identity_blocks():
    # the projector onto the direct sum of every block is the identity
    layout = SpaceLayout((("m=0", 1), ("m=1", 2)))
    assert layout.total_dim == 3
    np.testing.assert_array_equal(layout.projector(layout.labels), np.eye(3))


def test_direct_sum_flag_structure():
    # the target-measurement shape: preserved blocks plus the flag block
    layout = SpaceLayout((("m=0", 1), ("m=1", 2), ("flag", 4)))
    assert layout.labels == ("m=0", "m=1", "flag")
    assert layout.photon_labels == ("m=0", "m=1")
    assert layout.slice_of("flag") == slice(3, 7)
    np.testing.assert_array_equal(np.diag(layout.projector("flag")), [0, 0, 0, 1, 1, 1, 1])
    assert np.trace(layout.projector(("m=0", "m=1"))) == 3.0


def test_direct_sum_zero_blocks():
    # an element that is zero on every block has eigenvalues 0, and passes
    layout = SpaceLayout((("m=0", 1), ("m=1", 3)))
    povm = POVM(layout, [np.eye(4), np.zeros((4, 4)), np.zeros((4, 4))], SMALL_EVENTS)
    assert not povm.dense[1:].any()


def test_direct_sum_rejects_bad_parts():
    with pytest.raises(ValueError, match="invalid dimension"):
        SpaceLayout((("m=1", 0),))
    with pytest.raises(ValueError, match="duplicate"):
        SpaceLayout((("m=1", 2), ("m=1", 2)))
    with pytest.raises(ValueError, match="element stack has shape"):
        POVM(SpaceLayout((("m=1", 2),)), np.zeros((3, 2, 3)), SMALL_EVENTS)


def test_min_eigenvalue_of_direct_sum_is_min_of_parts():
    # the batched eigensolve of the dense stack sees the smallest eigenvalue
    # of every block
    rng = np.random.default_rng(11)
    layout = SpaceLayout((("m=1", 2), ("m=2", 3)))
    for _ in range(25):
        parts = []
        for d in (2, 3):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            parts.append(0.1 * (g + g.conj().T) / 2)
        expected = min(np.linalg.eigvalsh(part)[0] for part in parts)
        el = np.zeros((5, 5), dtype=complex)
        el[:2, :2], el[2:, 2:] = parts
        if expected >= -1e-10:
            continue
        message = rf"element 'a' is not PSD \(eigenvalue {expected:.3e}\)"
        with pytest.raises(ValueError, match=message):
            POVM(layout, [2 * np.eye(5), el, -np.eye(5) - el], SMALL_EVENTS)


def test_min_eigenvalue_multiclick_compression_vanishes():
    # Multi-click elements of passive BB84 carry nothing below two photons,
    # verified here by a brute-force eigensolve of the compressed blocks.
    povm = build_threshold_povm(passive_bb84_setup(1.0), 1)
    multis = list(povm.events.multi_indices)
    for lab in ("m=0", "m=1"):
        for block in povm.block(lab)[multis]:
            vals = np.linalg.eigvalsh((block + block.conj().T) / 2)
            assert np.abs(vals).max() == pytest.approx(0.0, abs=1e-14)
    assert np.abs(np.linalg.eigvalsh(povm.dense[multis])).max() == pytest.approx(0.0, abs=1e-14)


def test_psd_check_basic():
    # POVM accepts PSD elements and rejects an eigenvalue of -1e-6, naming the event
    layout = SpaceLayout((("m=1", 2),))
    events = SMALL_EVENTS
    dense = np.zeros((3, 2, 2))
    dense[0] = np.diag([1.0, 0.0])
    dense[1] = np.diag([0.0, 1.0])
    POVM(layout, dense, events)
    dense[1] = np.diag([1e-6, 1.0])
    dense[2] = np.diag([-1e-6, 0.0])
    with pytest.raises(ValueError, match="element 'b' is not PSD"):
        POVM(layout, dense, events)


def test_block_roundtrip():
    rng = np.random.default_rng(5)
    povm = random_squashed_povm(rng)
    for lab in SMALL_LAYOUT.labels:
        s = SMALL_LAYOUT.slice_of(lab)
        assert povm.block(lab).shape == (3, s.stop - s.start, s.stop - s.start)
        np.testing.assert_array_equal(povm.block(lab), povm.dense[:, s, s])
    np.testing.assert_array_equal(povm.block("flag"), np.eye(3)[:, None, :] * np.eye(3)[:, :, None])


def test_hermiticity_enforced():
    layout = SpaceLayout((("m=1", 2),))
    dense = np.zeros((3, 2, 2))
    dense[0] = np.eye(2)
    dense[1, 0, 1] = 1.0  # upper triangle only: eigvalsh alone would miss it
    with pytest.raises(ValueError, match="element 'a' is not Hermitian"):
        POVM(layout, dense, SMALL_EVENTS)


def test_off_block_entries_rejected():
    rng = np.random.default_rng(8)
    dense = np.array(random_squashed_povm(rng).dense)
    dense[2, 0, 1] = dense[2, 1, 0] = 1e-3  # Hermitian, but couples m=0 and m=1
    with pytest.raises(ValueError, match="element 'b' is not zero off its blocks"):
        POVM(SMALL_LAYOUT, dense, SMALL_EVENTS)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_entry_rejected(value):
    rng = np.random.default_rng(9)
    dense = np.array(random_squashed_povm(rng).dense)
    dense[1, 1, 1] = value
    with pytest.raises(ValueError, match="element 'a' has a non-finite entry"):
        POVM(SMALL_LAYOUT, dense, SMALL_EVENTS)


def test_stack_shape_checked():
    with pytest.raises(ValueError, match="element stack has shape"):
        POVM(SMALL_LAYOUT, np.zeros((3, 5, 5)), SMALL_EVENTS)
    with pytest.raises(ValueError, match="element stack has shape"):
        POVM(SMALL_LAYOUT, np.zeros((2, 6, 6)), SMALL_EVENTS)


def test_dense_is_read_only_copy():
    rng = np.random.default_rng(4)
    source = np.array(random_squashed_povm(rng).dense)
    povm = POVM(SMALL_LAYOUT, source, SMALL_EVENTS)
    source[0, 0, 0] = 7.0  # the caller's array stays writable and unshared
    assert povm.dense[0, 0, 0] != 7.0
    with pytest.raises(ValueError, match="read-only"):
        povm.dense[0, 0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        povm.block("m=1")[0] = 0.0


def test_random_density_is_valid_state():
    rng = np.random.default_rng(17)
    layout = SpaceLayout((("m=0", 1), ("m=1", 2), ("flag", 4)))
    for _ in range(5):
        rho = random_density(layout, rng)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rho - rho.conj().T).max() <= 1e-15
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12
        off = np.ones_like(rho, dtype=bool)
        for lab in layout.labels:
            s = layout.slice_of(lab)
            off[s, s] = False
        assert not rho[off].any()


def test_layout_validation():
    with pytest.raises(ValueError, match="vacuum"):
        SpaceLayout((("m=0", 2),))
    with pytest.raises(ValueError):
        SpaceLayout((("m=1", 2), ("m=1", 2)))
    with pytest.raises(ValueError):
        SpaceLayout((("bogus", 2),))
