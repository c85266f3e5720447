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

On the receive path the unit of a hand-off is a *burst*: a list of every
frame, packet or segment one wake of the sending task found, in arrival
order, as in Linux's list-based receive (``netif_receive_skb_list``).  A
queue counts a burst of n as n toward its capacity and its ``len``, so a
queue's bound is still a bound on frames, and the send, receive, lock
and wake are paid once per burst instead of once per frame.  A task that
handles one unit at a time reads through ``queue.units()``.
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


def weight(item) -> int:
    """What an item counts toward a queue's capacity: a burst (a list) its
    length, anything else one.  An empty burst counts one too, so a queue
    holds at most ``capacity`` items of any kind."""
    return (len(item) or 1) if type(item) is list else 1


class MessageQueue:
    """Bounded FIFO channel between tasks.

    ``capacity`` bounds the units held (see ``weight``), and ``len`` counts
    them.  send blocks until the item fits; a burst larger than the whole
    capacity goes in slices that do.  recv blocks while the queue is empty
    and returns one item, a whole burst.  A call that finds room or data
    takes the lock once and parks no one, and only a parked task is
    notified.  close wakes every blocked task; receivers drain whatever
    is already queued and then get Closed, senders get Closed
    immediately.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items = deque()
        self._count = 0  # units held
        self._lock = threading.Lock()
        self._not_full = Condition(self._lock)
        self._not_empty = Condition(self._lock)
        self._closed = False

    def send(self, item, timeout: float = None) -> None:
        n = weight(item)
        if n > self.capacity:  # it could never fit whole
            for i in range(0, n, self.capacity):
                self.send(item[i:i + self.capacity], timeout)
            return
        room = self.capacity - n
        with self._lock:
            if self._count > room and not self._not_full.wait_for(
                    lambda: self._closed or self._count <= room, timeout):
                raise Timeout("send timed out on a full queue")
            if self._closed:
                raise Closed("queue is closed")
            self._items.append(item)
            self._count += n
            self._not_empty.notify()

    def send_nowait(self, item) -> bool:
        """Non-blocking send; returns False instead of waiting for room."""
        n = weight(item)
        with self._lock:
            if self._closed:
                raise Closed("queue is closed")
            if self._count + n > self.capacity:
                return False
            self._items.append(item)
            self._count += n
            self._not_empty.notify()
            return True

    def recv(self, timeout: float = None):
        with self._lock:
            if not self._items and not self._not_empty.wait_for(
                    lambda: self._closed or self._items, timeout):
                raise Timeout("recv timed out on an empty queue")
            if self._items:
                item = self._items.popleft()
                self._count -= weight(item)
                self._not_full.notify()
                return item
            raise Closed("queue is closed")

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        """Receive until the queue is closed and drained."""
        while True:
            try:
                yield self.recv()
            except Closed:
                return

    def units(self) -> "Units":
        """A reader that takes this queue's bursts one unit at a time."""
        return Units(self)


class Units:
    """One reader's view of a queue that carries bursts: each unit of a
    burst in order, and any item that is not a burst as it is.

    ``recv`` takes the next burst only when the last one is used up, so a
    reader sees what it would see if every unit had come on its own, and
    the queue still pays one receive per burst.  Iterating ends when the
    queue is closed and drained, as iterating the queue does.
    """

    def __init__(self, queue: MessageQueue):
        self.queue = queue
        self._held = deque()

    def recv(self, timeout: float = None):
        while not self._held:
            item = self.queue.recv(timeout)
            if type(item) is not list:
                return item
            self._held.extend(item)
        return self._held.popleft()

    def __iter__(self):
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
        """Forward msg, usually a burst, to the queue bound for key.

        An unbound key or a closed queue counts a drop for each unit of msg.
        """
        with self._lock:
            queue = self._map.get(key)
        if queue is None:
            self._counters.incr(f"{self.name}.drop.unbound", weight(msg))
            return False
        try:
            queue.send(msg)
        except Closed:
            self._counters.incr(f"{self.name}.drop.closed", weight(msg))
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

