"""Queue, registry, and dealer-loop behaviour."""

import sys
import threading
import time

import pytest

from netstack import errors
from netstack.csp import BindingRegistry, Condition, Counters, MessageQueue, TaskSet


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
    empty, full = MessageQueue(1), MessageQueue(1)
    full.send("occupant")
    outcomes = []

    def blocked(call):
        try:
            call()
        except errors.Closed:
            outcomes.append("closed")

    threads = [threading.Thread(target=blocked, args=(empty.recv,), daemon=True)
               for _ in range(3)]
    threads.append(threading.Thread(target=blocked, args=(lambda: full.send("late"),),
                                    daemon=True))
    for t in threads:
        t.start()
    time.sleep(0.05)
    empty.close()
    full.close()
    for t in threads:
        t.join(1.0)
    assert outcomes == ["closed"] * 4


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
    q.send("occupant")
    start = time.monotonic()
    with pytest.raises(errors.Timeout):
        q.send("late", timeout=0.1)
    assert 0.05 < time.monotonic() - start < 1.0
    assert len(q) == 1  # the timed-out item was not queued


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


def test_one_slot_queue_loses_no_wakeup():
    q = MessageQueue(1)
    n_items = 500
    got = [[] for _ in range(4)]
    closing, ended_before_close = threading.Event(), []

    def producer(pid):
        for i in range(n_items):
            q.send((pid, i))

    def consumer(c):
        got[c].extend(q)
        if not closing.is_set():
            ended_before_close.append(c)

    producers = [threading.Thread(target=producer, args=(p,), daemon=True)
                 for p in range(4)]
    consumers = [threading.Thread(target=consumer, args=(c,), daemon=True)
                 for c in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside every hand-off
    try:
        for t in producers + consumers:
            t.start()
        deadline = time.monotonic() + 10.0
        for t in producers:
            t.join(max(0.0, deadline - time.monotonic()))
        senders_done = not any(t.is_alive() for t in producers)
    finally:
        sys.setswitchinterval(interval)
        closing.set()
        q.close()
    assert senders_done, "a sender was never woken"
    for t in consumers:
        t.join(max(0.0, deadline - time.monotonic()))
    assert not any(t.is_alive() for t in consumers), "a receiver was never woken"
    assert ended_before_close == [], "a receiver got Closed from an open queue"
    items = [item for taken in got for item in taken]
    assert sorted(items) == [(p, i) for p in range(4) for i in range(n_items)]


def test_condition_notifies_only_a_parked_task(monkeypatch):
    calls = []
    stdlib_notify = threading.Condition.notify

    def counted_notify(self, n=1):
        if self is cond:  # threading.Event and Thread.start notify too
            calls.append(n)
        stdlib_notify(self, n)

    monkeypatch.setattr(threading.Condition, "notify", counted_notify)
    cond = Condition(threading.Lock())
    with cond:
        cond.notify()
        cond.notify_all()
    assert calls == []  # no task parked: the stdlib's notify never ran
    for wake in (cond.notify, cond.notify_all):
        parked, woke = threading.Event(), []

        def waiter():
            with cond:
                parked.set()
                woke.append(cond.wait(5.0))  # releases the lock only once parked

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        parked.wait(1.0)
        with cond:  # acquired only after the waiter has parked
            wake()
        t.join(1.0)
        assert woke == [True]
    assert calls == [1, 1]


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
