"""Tests for the ASCII timeline renderer."""

import pytest

from repro.obs import Recorder
from repro.sim import Category, Trace, render_timeline


def _trace():
    t = Trace()
    t.charge(Category.LAUNCH, 0.0, 10e-6)
    t.charge(Category.PACK, 10e-6, 30e-6)
    t.charge(Category.COMM, 30e-6, 100e-6)
    return t


def test_empty_trace():
    assert render_timeline(Trace()) == "(empty trace)"


def test_rows_per_present_category():
    text = render_timeline(_trace(), width=50)
    lines = text.splitlines()
    assert len(lines) == 4  # header + 3 categories
    assert lines[1].startswith("pack") or "pack" in text
    assert "launch" in text and "comm" in text
    assert "sync" not in text  # absent category omitted


def test_glyph_placement_proportional():
    text = render_timeline(_trace(), width=100)
    comm_row = next(ln for ln in text.splitlines() if ln.startswith("comm"))
    body = comm_row.split("|")[1]
    # COMM covers [30us, 100us] of a 100us window: ~70% of the width,
    # starting around cell 30.
    assert body[:25].strip() == ""
    assert body.count("=") >= 60


def test_tiny_span_still_visible():
    t = Trace()
    t.charge(Category.SYNC, 0.0, 1e-9)
    t.charge(Category.COMM, 0.0, 1e-3)
    text = render_timeline(t, width=40)
    sync_row = next(ln for ln in text.splitlines() if ln.startswith("sync"))
    assert "y" in sync_row


def test_explicit_window_and_categories():
    text = render_timeline(
        _trace(), width=40, start=0.0, end=200e-6, categories=[Category.PACK]
    )
    assert "pack" in text and "comm" not in text


def test_width_validation():
    with pytest.raises(ValueError):
        render_timeline(_trace(), width=4)


def test_header_shows_bounds():
    text = render_timeline(_trace(), width=40)
    header = text.splitlines()[0]
    assert "0.0us" in header and "100.0us" in header


# -- Chrome trace export (through the obs recorder) ---------------------------


def _recorded(*tracks):
    rec = Recorder()
    for track in tracks:
        rec.absorb_trace(track, _trace())
    return rec


def test_chrome_trace_events_structure():
    events = _recorded("rank0", "rank1").chrome_trace_events()
    # one process row per track, one thread row per charged category
    procs = [e for e in events if e["name"] == "process_name"]
    assert [(e["pid"], e["args"]["name"]) for e in procs] == [(0, "rank0"), (1, "rank1")]
    threads = {(e["pid"], e["args"]["name"]) for e in events if e["name"] == "thread_name"}
    assert threads == {(pid, cat) for pid in (0, 1) for cat in ("launch", "pack", "comm")}
    # span times are microseconds
    launch = next(e for e in events if e.get("cat") == "launch" and e["pid"] == 0)
    assert launch["ts"] == pytest.approx(0.0)
    assert launch["dur"] == pytest.approx(10.0)
    comm = next(e for e in events if e.get("cat") == "comm" and e["pid"] == 0)
    assert comm["ts"] == pytest.approx(30.0)
    assert comm["dur"] == pytest.approx(70.0)


def test_export_chrome_trace_file(tmp_path):
    import json

    path = tmp_path / "t.json"
    count = _recorded("rank0").export_chrome_trace(str(path))
    assert count == 3
    loaded = json.loads(path.read_text())
    assert len([e for e in loaded["traceEvents"] if e.get("ph") == "X"]) == 3


def test_export_multiple_ranks(tmp_path):
    count = _recorded("r0", "r1").export_chrome_trace(str(tmp_path / "two.json"))
    assert count == 6
