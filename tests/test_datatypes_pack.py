"""Unit tests for the reference pack/unpack data plane."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ExperimentConfig
from repro.datatypes import (
    DOUBLE,
    DataLayout,
    Indexed,
    Vector,
    as_byte_view,
    pack_bytes,
    unpack_bytes,
)


def _buffer(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, n, dtype=np.uint8)


def test_pack_gathers_expected_bytes():
    lay = DataLayout([2, 10], [3, 2])
    src = np.arange(20, dtype=np.uint8)
    packed = pack_bytes(src, lay)
    assert list(packed) == [2, 3, 4, 10, 11]


def test_unpack_inverts_pack():
    lay = Vector(5, 3, 7, DOUBLE).flatten()
    src = _buffer(lay.span + 32)
    packed = pack_bytes(src, lay)
    dst = np.zeros_like(src)
    unpack_bytes(packed, lay, dst)
    idx = lay.gather_index()
    assert np.array_equal(dst[idx], src[idx])
    # Bytes outside the layout untouched (still zero).
    mask = np.ones(len(dst), dtype=bool)
    mask[idx] = False
    assert not dst[mask].any()


def test_pack_into_preallocated_buffer():
    lay = DataLayout([0, 8], [4, 4])
    src = np.arange(16, dtype=np.uint8)
    out = np.zeros(32, dtype=np.uint8)
    ret = pack_bytes(src, lay, out)
    assert ret is out
    assert list(out[:8]) == [0, 1, 2, 3, 8, 9, 10, 11]


def test_pack_base_offset():
    lay = DataLayout([0], [4])
    src = np.arange(16, dtype=np.uint8)
    assert list(pack_bytes(src, lay, base_offset=8)) == [8, 9, 10, 11]


def test_unpack_base_offset():
    lay = DataLayout([0], [4])
    dst = np.zeros(16, dtype=np.uint8)
    unpack_bytes(np.array([9, 9, 9, 9], dtype=np.uint8), lay, dst, base_offset=12)
    assert list(dst[12:]) == [9, 9, 9, 9]


def test_pack_bounds_checked():
    lay = DataLayout([0], [32])
    with pytest.raises(IndexError):
        pack_bytes(np.zeros(16, dtype=np.uint8), lay)
    with pytest.raises(IndexError):
        pack_bytes(np.zeros(64, dtype=np.uint8), lay, base_offset=40)


def test_pack_output_too_small():
    lay = DataLayout([0], [16])
    with pytest.raises(IndexError):
        pack_bytes(np.zeros(32, dtype=np.uint8), lay, np.zeros(8, dtype=np.uint8))


def test_unpack_short_packed_rejected():
    lay = DataLayout([0], [16])
    with pytest.raises(IndexError):
        unpack_bytes(np.zeros(8, dtype=np.uint8), lay, np.zeros(32, dtype=np.uint8))


def test_type_checks():
    lay = DataLayout([0], [4])
    with pytest.raises(TypeError):
        pack_bytes(np.zeros(8, dtype=np.float32), lay)
    with pytest.raises(TypeError):
        unpack_bytes(np.zeros(8, dtype=np.uint8), lay, np.zeros(8, dtype=np.int32))
    with pytest.raises(TypeError):
        pack_bytes(np.zeros(8, dtype=np.uint8), lay, np.zeros(8, dtype=np.int16))


def test_as_byte_view():
    arr = np.arange(4, dtype=np.float64)
    view = as_byte_view(arr)
    assert view.dtype == np.uint8 and len(view) == 32
    view[0] = 0xFF  # shared memory
    assert arr[0] != 0.0


def test_as_byte_view_requires_contiguous():
    arr = np.zeros((4, 4))[:, ::2]
    with pytest.raises(ValueError):
        as_byte_view(arr)


def test_indexed_roundtrip_typed_data():
    """Pack floats through an indexed type and read them back typed."""
    t = Indexed([2, 2, 2], [0, 10, 20], DOUBLE).commit()
    field = np.zeros(30, dtype=np.float64)
    field[[0, 1, 10, 11, 20, 21]] = [1.5, 2.5, 3.5, 4.5, 5.5, 6.5]
    lay = t.flatten()
    packed = pack_bytes(as_byte_view(field), lay)
    assert np.array_equal(
        packed.view(np.float64), [1.5, 2.5, 3.5, 4.5, 5.5, 6.5]
    )
    out = np.zeros_like(field)
    unpack_bytes(packed, lay, as_byte_view(out))
    assert np.array_equal(out, field)


# -- incremental Packer (MPI position semantics) ---------------------------------


def test_packer_appends_sequentially():
    from repro.datatypes import Packer, DataLayout

    staging = np.zeros(16, dtype=np.uint8)
    a = DataLayout([0], [4])
    b = DataLayout([2, 8], [2, 2])
    src = np.arange(16, dtype=np.uint8)
    p = Packer(staging)
    assert p.pack(src, a) == 4
    assert p.pack(src, b) == 8
    assert list(staging[:8]) == [0, 1, 2, 3, 2, 3, 8, 9]


def test_packer_unpack_roundtrip():
    from repro.datatypes import Packer, DataLayout

    a = DataLayout([0, 10], [4, 4])
    b = DataLayout([4], [8])
    src = _buffer(32, seed=5)
    staging = np.zeros(64, dtype=np.uint8)
    w = Packer(staging)
    w.pack(src, a)
    w.pack(src, b)
    total = w.position
    out = np.zeros_like(src)
    r = Packer(staging)
    r.unpack(a, out)
    r.unpack(b, out)
    assert r.position == total
    for lay in (a, b):
        idx = lay.gather_index()
        assert np.array_equal(out[idx], src[idx])


def test_packer_overflow_rejected():
    from repro.datatypes import Packer, DataLayout

    p = Packer(np.zeros(4, dtype=np.uint8))
    with pytest.raises(IndexError):
        p.pack(np.zeros(16, dtype=np.uint8), DataLayout([0], [8]))
    with pytest.raises(IndexError):
        p.unpack(DataLayout([0], [8]), np.zeros(16, dtype=np.uint8))


def test_packer_validation():
    from repro.datatypes import Packer

    with pytest.raises(TypeError):
        Packer(np.zeros(4, dtype=np.float32))
    with pytest.raises(ValueError):
        Packer(np.zeros(4, dtype=np.uint8), position=5)


def test_packer_resume_at_position():
    from repro.datatypes import Packer, DataLayout

    staging = np.zeros(16, dtype=np.uint8)
    src = np.arange(16, dtype=np.uint8)
    Packer(staging, position=8).pack(src, DataLayout([0], [4]))
    assert list(staging[8:12]) == [0, 1, 2, 3]
    assert not staging[:8].any()


# -- pack plans: row form vs irregular gather ------------------------------------


def _reference_index(lay, base_offset):
    """Per-block loop expansion of the layout's payload byte positions."""
    parts = [np.arange(o, o + n) for o, n in zip(lay.offsets.tolist(), lay.lengths.tolist())]
    return np.concatenate(parts).astype(np.int64) + base_offset


@st.composite
def _layouts(draw):
    """Row-form layouts (uniform block and stride, one block, adjacent
    uncoalesced blocks) and irregular ones, some with negative offsets."""
    kind = draw(st.sampled_from(["rows", "one", "adjacent", "irregular"]))
    first = draw(st.integers(-64, 64))
    if kind == "irregular":
        raw = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 24)),
                            min_size=2, max_size=12))
        offsets, lengths, cursor = [], [], first
        for gap, length in raw:
            offsets.append(cursor + gap)
            lengths.append(length)
            cursor += gap + length
        return DataLayout(offsets, lengths)
    block = draw(st.integers(1, 32))
    if kind == "one":
        return DataLayout([first], [block])
    count = draw(st.integers(2, 12))
    stride = block if kind == "adjacent" else block + draw(st.integers(1, 40))
    offsets = [first + i * stride for i in range(count)]
    return DataLayout(offsets, [block] * count, coalesce=kind != "adjacent")


@settings(max_examples=200, deadline=None)
@given(_layouts(), st.integers(0, 96), st.integers(0, 2**31))
def test_plans_match_the_gather_index_reference(lay, pad, seed):
    base = pad - int(lay.offsets[0])
    ref = _reference_index(lay, base)
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 256, int(ref[-1]) + 1 + pad, dtype=np.uint8)
    assert np.array_equal(lay.gather_index(base), ref)
    packed = pack_bytes(src, lay, base_offset=base)
    assert np.array_equal(packed, src[ref])
    out = np.full(lay.size + 5, 7, dtype=np.uint8)
    assert pack_bytes(src, lay, out, base_offset=base) is out
    assert np.array_equal(out[: lay.size], src[ref]) and (out[lay.size :] == 7).all()
    # unpack writes the payload and leaves every other byte untouched
    dst = rng.integers(0, 256, len(src), dtype=np.uint8)
    expect = dst.copy()
    expect[ref] = packed
    assert unpack_bytes(packed, lay, dst, base_offset=base) is dst
    assert np.array_equal(dst, expect)


@settings(max_examples=60, deadline=None)
@given(_layouts())
def test_pack_never_aliases_its_source(lay):
    base = -int(lay.offsets[0])
    src = np.arange(int(_reference_index(lay, base)[-1]) + 1, dtype=np.uint8)
    before = src.copy()
    packed = pack_bytes(src, lay, base_offset=base)
    packed ^= 0xFF
    assert np.array_equal(src, before)


def test_one_block_pack_is_a_fresh_array():
    lay = DataLayout([4], [8])
    assert lay.row_form == (4, 8, 8, 1)
    src = np.arange(16, dtype=np.uint8)
    packed = pack_bytes(src, lay)
    assert not np.shares_memory(packed, src)


def test_row_form_shapes():
    assert DataLayout([3, 10, 17], [4, 4, 4]).row_form == (3, 4, 7, 3)
    assert DataLayout([0, 4, 8], [4, 4, 4], coalesce=False).row_form == (0, 4, 4, 3)
    assert DataLayout([0, 10, 30], [4, 4, 4]).row_form is None  # uneven stride
    assert DataLayout([0, 10, 20], [4, 2, 4]).row_form is None  # uneven block
    assert DataLayout([], []).row_form is None


def test_row_view_is_bounds_checked_and_writable():
    lay = DataLayout([2, 7], [3, 3])
    buf = np.zeros(12, dtype=np.uint8)
    view = lay.row_view(buf, base_offset=2)
    assert view.shape == (2, 3)
    view[:] = 1
    assert list(np.flatnonzero(buf)) == [4, 5, 6, 9, 10, 11]
    with pytest.raises(IndexError):
        lay.row_view(buf, base_offset=3)
    with pytest.raises(IndexError):
        lay.row_view(buf, base_offset=-3)
    with pytest.raises(ValueError):
        DataLayout([0, 10, 30], [4, 4, 4]).row_view(np.zeros(64, dtype=np.uint8))


@pytest.mark.parametrize("workload, regular", [
    ("MILC", True), ("NAS_MG", True), ("specfem3D_cm", False), ("specfem3D_oc", False),
])
def test_workload_row_form_is_computed_once(workload, regular, monkeypatch):
    spec = ExperimentConfig.default().with_overrides({"workload.name": workload}).workload.resolve()
    lay = spec.datatype.flatten().replicate(spec.count)
    calls = []
    real = DataLayout._compute_row_form
    monkeypatch.setattr(DataLayout, "_compute_row_form",
                        lambda self: calls.append(1) or real(self))
    row = lay.row_form
    assert lay.row_form == row and len(calls) == 1
    if regular:
        assert len(row) == 4 and row[3] == lay.num_blocks and row[1] * row[3] == lay.size
    else:
        assert row is None
