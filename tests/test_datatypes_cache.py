"""Unit tests for the datatype layout cache."""

import pytest

from repro.datatypes import DOUBLE, FLOAT, Indexed, LayoutCache, Struct, Vector


def test_miss_then_hit():
    cache = LayoutCache()
    t = Vector(4, 2, 5, DOUBLE)
    lay1 = cache.get_or_flatten(t)
    lay2 = cache.get_or_flatten(Vector(4, 2, 5, DOUBLE))
    assert lay1 is lay2
    assert cache.stats.misses == 1 and cache.stats.hits == 1
    assert cache.stats.hit_rate == pytest.approx(0.5)


def test_different_types_different_entries():
    cache = LayoutCache()
    cache.get_or_flatten(Vector(4, 2, 5, DOUBLE))
    cache.get_or_flatten(Vector(4, 2, 6, DOUBLE))
    assert len(cache) == 2


def test_lru_eviction():
    cache = LayoutCache(capacity=2)
    a, b, c = (Vector(i, 1, 2, DOUBLE) for i in (1, 2, 3))
    cache.get_or_flatten(a)
    cache.get_or_flatten(b)
    cache.get_or_flatten(a)  # refresh a: b becomes LRU
    cache.get_or_flatten(c)  # evicts b
    assert a.signature() in cache
    assert b.signature() not in cache
    assert c.signature() in cache
    assert cache.stats.evictions == 1


def test_insert_refresh_existing():
    cache = LayoutCache(capacity=2)
    t = Vector(2, 1, 2, DOUBLE)
    lay = t.flatten()
    cache.insert(t.signature(), lay)
    cache.insert(t.signature(), lay)
    assert len(cache) == 1
    assert cache.stats.insertions == 1


def test_lookup_miss_returns_none():
    cache = LayoutCache()
    assert cache.lookup(("nope",)) is None
    assert cache.stats.misses == 1


def test_clear_keeps_stats():
    cache = LayoutCache()
    cache.get_or_flatten(Vector(2, 1, 2, DOUBLE))
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.insertions == 1


def test_commit_populates_cache():
    cache = LayoutCache()
    t = Vector(4, 2, 5, DOUBLE)
    t.commit(cache)
    assert t.signature() in cache


def test_keys_in_lru_order():
    cache = LayoutCache()
    a, b = Vector(1, 1, 2, DOUBLE), Vector(2, 1, 2, DOUBLE)
    cache.get_or_flatten(a)
    cache.get_or_flatten(b)
    cache.get_or_flatten(a)  # a now MRU
    assert cache.keys() == (b.signature(), a.signature())


def test_capacity_validation():
    with pytest.raises(ValueError):
        LayoutCache(capacity=0)


def test_unused_cache_hit_rate_zero():
    assert LayoutCache().stats.hit_rate == 0.0


# -- the stored signature ----------------------------------------------------------


def _indexed():
    return Indexed([2, 1, 3], [0, 7, 12], FLOAT)


def _struct():
    return Struct([1, 2], [0, 64], [_indexed(), DOUBLE])


def test_signature_is_computed_once_per_object(monkeypatch):
    calls = []
    original = Indexed._signature

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Indexed, "_signature", counting)
    t, twin = _indexed(), _indexed()
    cache = LayoutCache()
    for _ in range(3):
        t.signature()
        hash(t)
        assert t == twin
        cache.get_or_flatten(t)
    assert calls == [t, twin]
    # a struct composes its children's stored signatures
    s = Struct([1], [0], [t])
    s.signature()
    assert calls == [t, twin]


@pytest.mark.parametrize("build", [_indexed, _struct], ids=["Indexed", "Struct"])
def test_structural_twins_share_one_cache_entry(build):
    a, b = build(), build()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a.signature() is not b.signature()  # stored per object
    cache = LayoutCache()
    lay = cache.get_or_flatten(a)
    assert cache.get_or_flatten(b) is lay
    assert len(cache) == 1
    assert cache.stats.misses == 1 and cache.stats.hits == 1


def test_different_displacements_stay_distinct():
    a = Indexed([1, 1], [0, 2], FLOAT)
    b = Indexed([1, 1], [0, 3], FLOAT)
    assert a != b
    cache = LayoutCache()
    cache.get_or_flatten(a)
    cache.get_or_flatten(b)
    assert len(cache) == 2
