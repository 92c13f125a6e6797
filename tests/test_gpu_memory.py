"""Unit tests for simulated device memory."""

import numpy as np
import pytest

from repro.gpu import DeviceMemory, GPUBuffer, OutOfMemoryError, host_alloc


def test_alloc_tracks_usage():
    mem = DeviceMemory(1024)
    buf = mem.alloc(256)
    assert mem.allocated == 256
    assert mem.available == 768
    assert buf.nbytes == 256
    assert buf.on_device


def test_alloc_zeroed_by_default():
    mem = DeviceMemory(1024)
    assert not mem.alloc(64).data.any()


def test_alloc_with_fill():
    mem = DeviceMemory(1024)
    buf = mem.alloc(16, fill=0xAB)
    assert (buf.data == 0xAB).all()


def test_oom_raised():
    mem = DeviceMemory(100)
    mem.alloc(80)
    with pytest.raises(OutOfMemoryError):
        mem.alloc(21)


def test_free_returns_capacity():
    mem = DeviceMemory(100)
    buf = mem.alloc(80)
    buf.free()
    assert mem.allocated == 0
    mem.alloc(100)  # fits again


def test_double_free_harmless():
    mem = DeviceMemory(100)
    buf = mem.alloc(10)
    buf.free()
    buf.free()
    assert mem.allocated == 0


def test_free_drops_backing_store():
    mem = DeviceMemory(100)
    buf = mem.alloc(10, fill=7)
    assert buf.data.sum() == 70
    buf.free()
    assert buf._data is None
    buf.free()  # second call does nothing
    assert mem.allocated == 0


def test_peak_tracking():
    mem = DeviceMemory(100)
    a = mem.alloc(60)
    a.free()
    mem.alloc(30)
    assert mem.peak == 60
    assert mem.allocation_count == 2


def test_typed_view_shares_bytes():
    buf = GPUBuffer(32)
    view = buf.view(np.float64)
    view[0] = 3.25
    assert buf.data[:8].any()


def test_host_alloc():
    buf = host_alloc(64)
    assert not buf.on_device
    assert buf.space == "host"


def test_invalid_sizes():
    with pytest.raises(ValueError):
        DeviceMemory(0)
    with pytest.raises(ValueError):
        GPUBuffer(-1)


def test_buffer_ids_unique():
    a, b = GPUBuffer(1), GPUBuffer(1)
    assert a.buffer_id != b.buffer_id


# -- BufferPool -----------------------------------------------------------------


def test_pool_bucket_rounding():
    from repro.gpu import BufferPool

    pool = BufferPool(DeviceMemory(1 << 20))
    buf = pool.acquire(100)
    assert buf.nbytes == 128
    assert pool.misses == 1


def test_pool_reuse_hits():
    from repro.gpu import BufferPool

    pool = BufferPool(DeviceMemory(1 << 20))
    a = pool.acquire(1000)
    pool.release(a)
    b = pool.acquire(900)  # same 1024 bucket
    assert b is a
    assert pool.hits == 1 and pool.misses == 1
    assert pool.hit_rate == pytest.approx(0.5)


def test_pool_reused_buffer_zeroed():
    from repro.gpu import BufferPool

    pool = BufferPool(DeviceMemory(1 << 20))
    a = pool.acquire(64)
    a.data[:] = 9
    pool.release(a)
    b = pool.acquire(64)
    assert not b.data.any()


def test_pool_dry_mode_skips_zeroing_and_marks_buffers():
    from repro.gpu import BufferPool

    pool = BufferPool(DeviceMemory(1 << 20), functional=False)
    a = pool.acquire(64)
    assert a.functional is False


def test_pool_cap_frees_extras():
    from repro.gpu import BufferPool

    mem = DeviceMemory(1 << 20)
    pool = BufferPool(mem, max_cached_per_bucket=1)
    a, b = pool.acquire(64), pool.acquire(64)
    pool.release(a)
    allocated = mem.allocated
    pool.release(b)  # bucket full: freed outright
    assert mem.allocated == allocated - 64


def test_pool_trim():
    from repro.gpu import BufferPool

    mem = DeviceMemory(1 << 20)
    pool = BufferPool(mem)
    pool.release(pool.acquire(64))
    pool.release(pool.acquire(256))
    assert pool.cached_bytes == 64 + 256
    assert pool.trim() == 2
    assert pool.cached_bytes == 0
    assert mem.allocated == 0


def test_pool_rejects_foreign_buffer():
    from repro.gpu import BufferPool

    pool = BufferPool(DeviceMemory(1 << 20))
    with pytest.raises(ValueError):
        pool.release(GPUBuffer(100))  # not a power-of-two bucket
    with pytest.raises(ValueError):
        pool.acquire(0)


def test_pool_host_mode():
    from repro.gpu import BufferPool

    pool = BufferPool(None)
    buf = pool.acquire(64)
    assert not buf.on_device
