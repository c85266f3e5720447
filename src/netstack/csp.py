"""The message-passing scaffolding every layer is built from.

Tasks are plain threads that share nothing and talk over MessageQueue
instances.  A BindingRegistry maps a demux key (an ethertype or an IP
protocol number) to a queue.  The transports demux on their own: UDP
keeps its sockets by port in ``_ports``, and TCP keeps its connections
by (local port, remote address, remote port) in ``_connections``.

A stack stops the way a CSP pipeline does: a task loops ``for msg in
queue:`` until its input is closed and drained, then closes the queues
it feeds (through ``BindingRegistry.close`` when it feeds a registry).
Closing the device therefore ends every layer in turn.

A hand-off costs what it must and no more.  A queue call that finds room
or data takes the queue's lock once and parks no one, and ``notify``
(``csp.Condition``) does nothing unless a task is parked, so only a task
that had to wait is woken.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from netstack.errors import AlreadyBound, Closed, ConfigError, Timeout


class Condition(threading.Condition):
    """A threading.Condition whose notify costs nothing when no task waits.

    Notify with the lock held, as the stdlib requires: a waiter joins the
    stdlib's ``_waiters`` only under that lock, so reading the list is
    race-free (with no task parked, the stdlib's ownership check is
    skipped too).  The stdlib's notify removes each waiter it wakes, so a
    notify already delivered is not paid for again.
    """

    def notify(self, n: int = 1) -> None:
        if self._waiters:
            super().notify(n)

    def notify_all(self) -> None:
        if self._waiters:
            super().notify_all()


class MessageQueue:
    """Bounded FIFO channel between tasks.

    send blocks while the queue is full, recv blocks while it is empty.
    A call that finds room or data takes the lock once and parks no one,
    and only a parked task is notified.  close wakes every blocked task;
    receivers drain whatever is already queued and then get Closed,
    senders get Closed immediately.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items = deque()
        self._lock = threading.Lock()
        self._not_full = Condition(self._lock)
        self._not_empty = Condition(self._lock)
        self._closed = False

    def send(self, item, timeout: float = None) -> None:
        with self._lock:
            if len(self._items) >= self.capacity and not self._not_full.wait_for(
                    lambda: self._closed or len(self._items) < self.capacity, timeout):
                raise Timeout("send timed out on a full queue")
            if self._closed:
                raise Closed("queue is closed")
            self._items.append(item)
            self._not_empty.notify()

    def send_nowait(self, item) -> bool:
        """Non-blocking send; returns False instead of waiting on a full queue."""
        with self._lock:
            if self._closed:
                raise Closed("queue is closed")
            if len(self._items) >= self.capacity:
                return False
            self._items.append(item)
            self._not_empty.notify()
            return True

    def recv(self, timeout: float = None):
        with self._lock:
            if not self._items and not self._not_empty.wait_for(
                    lambda: self._closed or self._items, timeout):
                raise Timeout("recv timed out on an empty queue")
            if self._items:
                item = self._items.popleft()
                self._not_full.notify()
                return item
            raise Closed("queue is closed")

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        """Receive until the queue is closed and drained."""
        while True:
            try:
                yield self.recv()
            except Closed:
                return


class Counters:
    """Named event counters, safe to bump from any task."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts = {}

    def incr(self, key: str, n: int = 1) -> None:
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + n

    def get(self, key: str) -> int:
        with self._lock:
            return self._counts.get(key, 0)

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self._counts)


class BindingRegistry:
    """Synchronized demux-key -> queue map with drop accounting."""

    def __init__(self, name: str, counters: Counters):
        self.name = name
        self._counters = counters
        self._lock = threading.Lock()
        self._map = {}

    def bind(self, key, queue: MessageQueue) -> None:
        with self._lock:
            if key in self._map:
                raise AlreadyBound(f"{self.name}: key {key!r} already bound")
            self._map[key] = queue

    def close(self) -> None:
        """Close every bound queue; the task that fed them has ended."""
        with self._lock:
            queues = list(self._map.values())
        for queue in queues:
            queue.close()

    def dispatch(self, key, msg) -> bool:
        """Forward msg to the queue bound for key; unbound keys count a drop."""
        with self._lock:
            queue = self._map.get(key)
        if queue is None:
            self._counters.incr(f"{self.name}.drop.unbound")
            return False
        try:
            queue.send(msg)
        except Closed:
            self._counters.incr(f"{self.name}.drop.closed")
            return False
        return True


class TaskSet:
    """Census of the stack's running tasks; every spawned thread is tracked."""

    def __init__(self):
        self._lock = threading.Lock()
        self._tasks = {}

    def spawn(self, name: str, fn, *args) -> threading.Thread:
        def run():
            try:
                fn(*args)
            finally:
                with self._lock:
                    self._tasks.pop(thread, None)

        thread = threading.Thread(target=run, name=name, daemon=True)
        with self._lock:  # join_all must never list a thread not yet started
            self._tasks[thread] = name
            thread.start()
        return thread

    def census(self, prefix: str = "") -> int:
        with self._lock:
            return sum(1 for n in self._tasks.values() if n.startswith(prefix))

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._tasks.values())

    def cpu_seconds(self) -> dict[str, float]:
        """CPU seconds used by each running task, summed over tasks that share a name.

        The clocks are read under the lock: a task leaves ``_tasks`` under
        it before its thread ends, and an ended thread's clock is undefined.
        """
        out = {}
        with self._lock:
            for thread, name in self._tasks.items():
                clock = time.pthread_getcpuclockid(thread.ident)
                out[name] = out.get(name, 0.0) + time.clock_gettime(clock)
        return out

    def join_all(self, timeout: float = 10.0) -> int:
        """Join every tracked task, also any spawned meanwhile; returns how many are left."""
        deadline = threading.TIMEOUT_MAX if timeout is None else timeout
        stop_at = time.monotonic() + deadline
        while True:
            with self._lock:
                threads = [t for t in self._tasks if t is not threading.current_thread()]
            if not threads or time.monotonic() >= stop_at:
                return self.census()
            for t in threads:
                t.join(max(0.0, stop_at - time.monotonic()))

