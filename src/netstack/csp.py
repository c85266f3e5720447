"""The message-passing scaffolding every layer is built from.

Tasks are plain threads that share nothing and talk over MessageQueue
instances.  A BindingRegistry maps demux keys (ethertype, IP protocol,
port, connection 4-tuple) to queues.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from netstack.errors import AlreadyBound, Closed, ConfigError, NotBound, Timeout


class MessageQueue:
    """Bounded FIFO channel between tasks.

    send blocks while the queue is full, recv blocks while it is empty.
    close wakes every blocked task; receivers drain whatever is already
    queued and then get Closed, senders get Closed immediately.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    def send(self, item, timeout: float = None) -> None:
        with self._not_full:
            if not self._not_full.wait_for(
                    lambda: self._closed or len(self._items) < self.capacity, timeout):
                raise Timeout("send timed out on a full queue")
            if self._closed:
                raise Closed("queue is closed")
            self._items.append(item)
            self._not_empty.notify()

    def send_nowait(self, item) -> bool:
        """Non-blocking send; returns False instead of waiting on a full queue."""
        with self._not_full:
            if self._closed:
                raise Closed("queue is closed")
            if len(self._items) >= self.capacity:
                return False
            self._items.append(item)
            self._not_empty.notify()
            return True

    def recv(self, timeout: float = None):
        with self._not_empty:
            if not self._not_empty.wait_for(
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

    def unbind(self, key) -> None:
        with self._lock:
            if key not in self._map:
                raise NotBound(f"{self.name}: key {key!r} not bound")
            del self._map[key]

    def lookup(self, key) -> MessageQueue | None:
        with self._lock:
            return self._map.get(key)

    def dispatch(self, key, msg, block: bool = True) -> bool:
        """Forward msg to the queue bound for key; unbound keys count a drop."""
        queue = self.lookup(key)
        if queue is None:
            self._counters.incr(f"{self.name}.drop.unbound")
            return False
        try:
            if block:
                queue.send(msg)
            elif not queue.send_nowait(msg):
                self._counters.incr(f"{self.name}.drop.full")
                return False
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
        with self._lock:
            self._tasks[thread] = name
        thread.start()
        return thread

    def census(self, prefix: str = "") -> int:
        with self._lock:
            return sum(1 for n in self._tasks.values() if n.startswith(prefix))

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._tasks.values())

    def join_all(self, timeout: float = 10.0) -> int:
        """Join every tracked task; returns how many were still alive after."""
        deadline = threading.TIMEOUT_MAX if timeout is None else timeout
        stop_at = time.monotonic() + deadline
        with self._lock:
            threads = list(self._tasks)
        for t in threads:
            if t is threading.current_thread():
                continue
            t.join(max(0.0, stop_at - time.monotonic()))
        return self.census()

