"""Emulated wire behaviour and TAP error paths."""

import os
import threading
import time

import pytest

from netstack import errors
from netstack.link import ImpairmentProfile, create_wire_pair, open_tap


def _frame(i, size=60):
    body = i.to_bytes(4, "big")
    return body + bytes(size - len(body))


def test_lossless_wire_is_identity():
    a, b = create_wire_pair()
    a.write_frame(_frame(1))
    assert b.read_frame(timeout=1.0) == _frame(1)
    b.write_frame(_frame(2))
    assert a.read_frame(timeout=1.0) == _frame(2)


def test_read_frames_takes_the_frames_already_due_without_a_timeout():
    a, b = create_wire_pair()
    for i in range(5):
        a.write_frame(_frame(i))
    assert b.read_frames(3, timeout=1.0) == [_frame(0), _frame(1), _frame(2)]
    assert b.read_frames(3, timeout=1.0) == [_frame(3), _frame(4)]  # nothing more due
    with pytest.raises(errors.Timeout):
        b.read_frames(3, timeout=0.05)  # only the wait for the first frame times out


def test_read_frames_leaves_a_frame_that_is_not_yet_due():
    a, b = create_wire_pair(ImpairmentProfile(delay=0.2))
    a.write_frame(_frame(1))
    time.sleep(0.25)
    a.write_frame(_frame(2))  # due 0.2 s from now
    assert b.read_frames(4, timeout=1.0) == [_frame(1)]
    assert b.read_frames(4, timeout=1.0) == [_frame(2)]


def test_full_loss_delivers_nothing():
    a, b = create_wire_pair(ImpairmentProfile(loss_rate=1.0))
    for i in range(20):
        a.write_frame(_frame(i))
    with pytest.raises(errors.Timeout):
        b.read_frame(timeout=0.1)
    assert a.drop_log == list(range(20))


def test_drop_log_is_deterministic_across_runs():
    logs = []
    for _ in range(2):
        a, b = create_wire_pair(ImpairmentProfile(loss_rate=0.05, seed=99))
        for i in range(500):
            a.write_frame(_frame(i))
        logs.append(a.drop_log)
    assert logs[0] == logs[1]
    assert 5 < len(logs[0]) < 60


def test_ordered_delivery_without_impairment():
    a, b = create_wire_pair()
    n = 1000
    for i in range(n):
        a.write_frame(_frame(i))
    got = [int.from_bytes(b.read_frame(timeout=1.0)[:4], "big") for i in range(n)]
    assert got == list(range(n))


def test_reordering_swaps_adjacent_frames():
    a, b = create_wire_pair(ImpairmentProfile(reorder_rate=0.3, seed=5))
    n = 400
    for i in range(n):
        a.write_frame(_frame(i))
    a.close()
    got = []
    while True:
        try:
            got.append(int.from_bytes(b.read_frame(timeout=0.2)[:4], "big"))
        except (errors.Timeout, errors.Closed):
            break
    assert sorted(got) == list(range(n))
    assert got != list(range(n))
    # a swapped frame lands at most one slot late
    for pos, val in enumerate(got):
        assert abs(pos - val) <= 2


def test_delay_is_applied():
    a, b = create_wire_pair(ImpairmentProfile(delay=0.1))
    start = time.monotonic()
    a.write_frame(_frame(0))
    b.read_frame(timeout=1.0)
    assert time.monotonic() - start >= 0.09


def test_oversize_and_undersize_writes():
    a, _b = create_wire_pair(mtu=1500)
    with pytest.raises(errors.FrameTooLarge):
        a.write_frame(bytes(1515))
    a.write_frame(bytes(1514))
    with pytest.raises(errors.LengthError):
        a.write_frame(bytes(13))


def test_close_unblocks_reader():
    a, b = create_wire_pair()
    caught = []

    def reader():
        try:
            b.read_frame()
        except errors.Closed:
            caught.append(True)

    t = threading.Thread(target=reader, daemon=True)
    t.start()
    time.sleep(0.05)
    b.close()
    t.join(1.0)
    assert caught == [True]


def test_write_to_closed_peer_is_silently_dropped():
    a, b = create_wire_pair()
    b.close()
    a.write_frame(_frame(1))  # nothing to assert: it must simply not raise
    with pytest.raises(errors.Closed):
        b.write_frame(_frame(2))


def test_concurrent_writers_never_interleave():
    a, b = create_wire_pair()
    n_writers, n_each = 10, 50

    def writer(wid):
        for i in range(n_each):
            a.write_frame(_frame(wid * 1000 + i, size=200))

    threads = [threading.Thread(target=writer, args=(w,), daemon=True)
               for w in range(n_writers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(2.0)
    frames = [b.read_frame(timeout=1.0) for _ in range(n_writers * n_each)]
    assert all(len(f) == 200 for f in frames)
    ids = sorted(int.from_bytes(f[:4], "big") for f in frames)
    assert ids == sorted(w * 1000 + i for w in range(n_writers) for i in range(n_each))


def test_open_tap_missing_device():
    if os.geteuid() == 0 and os.path.exists("/dev/net/tun"):
        # as root the failure mode is a bad interface name
        with pytest.raises(errors.DeviceUnavailable):
            open_tap("no/such%name", b"\x02\x00\x00\x00\x00\x01")
    else:
        with pytest.raises(errors.DeviceUnavailable):
            open_tap("tap-test0", b"\x02\x00\x00\x00\x00\x01")
