"""Queue, registry, and dealer-loop behaviour."""

import threading
import time

import pytest

from netstack import errors
from netstack.csp import BindingRegistry, Counters, MessageQueue, TaskSet


def test_send_then_receive():
    q = MessageQueue(4)
    q.send("item")
    assert q.recv() == "item"


def test_zero_capacity_rejected():
    with pytest.raises(errors.ConfigError):
        MessageQueue(0)


def test_full_queue_blocks_sender_until_receive():
    q = MessageQueue(1)
    q.send(1)
    done = threading.Event()

    def second_send():
        q.send(2)
        done.set()

    t = threading.Thread(target=second_send, daemon=True)
    t.start()
    time.sleep(0.05)
    assert not done.is_set()
    assert q.recv() == 1
    t.join(1.0)
    assert done.is_set()
    assert q.recv() == 2


def test_recv_blocks_until_send():
    q = MessageQueue(1)
    got = []

    def receiver():
        got.append(q.recv())

    t = threading.Thread(target=receiver, daemon=True)
    t.start()
    time.sleep(0.05)
    q.send("late")
    t.join(1.0)
    assert got == ["late"]


def test_close_wakes_blocked_receivers():
    q = MessageQueue(1)
    outcomes = []

    def receiver():
        try:
            q.recv()
        except errors.Closed:
            outcomes.append("closed")

    threads = [threading.Thread(target=receiver, daemon=True) for _ in range(3)]
    for t in threads:
        t.start()
    time.sleep(0.05)
    q.close()
    for t in threads:
        t.join(1.0)
    assert outcomes == ["closed"] * 3


def test_close_drains_queued_items_first():
    q = MessageQueue(4)
    q.send(1)
    q.send(2)
    q.close()
    assert q.recv() == 1
    assert q.recv() == 2
    with pytest.raises(errors.Closed):
        q.recv()
    with pytest.raises(errors.Closed):
        q.send(3)


def test_iteration_receives_until_closed_and_drained():
    q = MessageQueue(2)
    got = []
    reader = threading.Thread(target=lambda: got.extend(q), daemon=True)
    reader.start()
    for i in range(5):
        q.send(i, timeout=1.0)
    q.close()
    reader.join(1.0)
    assert not reader.is_alive()
    assert got == list(range(5))


def test_recv_timeout():
    q = MessageQueue(1)
    start = time.monotonic()
    with pytest.raises(errors.Timeout):
        q.recv(timeout=0.1)
    assert 0.05 < time.monotonic() - start < 1.0


def test_send_nowait_on_full_queue():
    q = MessageQueue(1)
    assert q.send_nowait(1)
    assert not q.send_nowait(2)


def test_many_producers_preserve_per_producer_order():
    q = MessageQueue(8)
    n_producers, n_items = 8, 200

    def producer(pid):
        for i in range(n_items):
            q.send((pid, i))

    threads = [threading.Thread(target=producer, args=(p,), daemon=True)
               for p in range(n_producers)]
    for t in threads:
        t.start()
    seen = {p: [] for p in range(n_producers)}
    for _ in range(n_producers * n_items):
        pid, i = q.recv(timeout=5.0)
        seen[pid].append(i)
    for t in threads:
        t.join(1.0)
    for p in range(n_producers):
        assert seen[p] == list(range(n_items))


def test_registry_bind_dispatch_unbind():
    counters = Counters()
    reg = BindingRegistry("eth", counters)
    q = MessageQueue(4)
    reg.bind(2048, q)
    assert reg.dispatch(2048, "pkt")
    assert q.recv() == "pkt"
    with pytest.raises(errors.AlreadyBound):
        reg.bind(2048, MessageQueue(1))
    reg.unbind(2048)
    with pytest.raises(errors.NotBound):
        reg.unbind(2048)


def test_registry_close_closes_every_bound_queue():
    reg = BindingRegistry("ip", Counters())
    queues = [MessageQueue(1) for _ in range(3)]
    for proto, q in zip((1, 6, 17), queues):
        reg.bind(proto, q)
    reg.dispatch(6, "last")
    reg.close()
    assert list(queues[1]) == ["last"]  # queued items still drain
    for q in queues:
        with pytest.raises(errors.Closed):
            q.recv()


def test_dispatch_unbound_counts_drop():
    counters = Counters()
    reg = BindingRegistry("eth", counters)
    assert not reg.dispatch(0x86DD, "pkt")
    assert counters.get("eth.drop.unbound") == 1


def test_dealer_forwards_by_key():
    counters = Counters()
    reg = BindingRegistry("ip", counters)
    queues = {proto: MessageQueue(2000) for proto in (1, 6, 17)}
    for proto, q in queues.items():
        reg.bind(proto, q)

    import random
    rng = random.Random(3)
    sent = {1: 0, 6: 0, 17: 0}
    for _ in range(3000):
        proto = rng.choice((1, 6, 17))
        assert reg.dispatch(proto, (proto, sent[proto]))
        sent[proto] += 1
    for proto, q in queues.items():
        got = [q.recv(timeout=0.1) for _ in range(len(q))]
        assert [m[1] for m in got] == list(range(sent[proto]))


def test_taskset_census_and_prefix():
    tasks = TaskSet()
    gate = threading.Event()

    def spawn_late():  # as a TCP dealer draining at teardown spawns a connection
        gate.wait()
        time.sleep(0.05)
        tasks.spawn("tcp-conn-late", time.sleep, 0.2)

    tasks.spawn("tcp-conn-in", gate.wait)
    tasks.spawn("tcp-conn-send", gate.wait)
    tasks.spawn("tcp-dealer", spawn_late)
    assert tasks.census() == 3
    assert tasks.census("tcp-conn") == 2
    gate.set()
    assert tasks.join_all(2.0) == 0  # the late task too, spawned mid-join
    assert tasks.census() == 0, tasks.names()
