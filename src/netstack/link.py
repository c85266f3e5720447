"""Frame-level endpoints: a host TAP device and an emulated wire.

The emulated wire is two independent directions, each a delay queue
with its own deterministic random stream, so loss and reordering can
be replayed exactly from a seed.
"""

from __future__ import annotations

import fcntl
import os
import random
import select
import struct
import threading
import time
from dataclasses import dataclass

from netstack.csp import Condition
from netstack.errors import Closed, DeviceUnavailable, FrameTooLarge, LengthError, Timeout

ETH_HEADER = 14

# TUNSETIFF ioctl and the flag bits for a tap device without packet info
_TUNSETIFF = 0x400454CA
_IFF_TAP = 0x0002
_IFF_NO_PI = 0x1000


@dataclass
class ImpairmentProfile:
    loss_rate: float = 0.0
    reorder_rate: float = 0.0
    delay: float = 0.0  # seconds added to every frame
    seed: int = 0

    def validate(self) -> "ImpairmentProfile":
        if not 0.0 <= self.loss_rate <= 1.0 or not 0.0 <= self.reorder_rate <= 1.0:
            raise ValueError("rates must be within [0, 1]")
        return self


class _Direction:
    """One direction of the emulated wire: a seeded delay queue.

    Each written frame draws loss first, then reorder.  A frame drawn
    for reordering is held and enqueued after the next surviving frame,
    which is the swap-with-next scheme.
    """

    def __init__(self, profile: ImpairmentProfile, seed: int):
        self.profile = profile
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._cond = Condition(self._lock)
        self._frames = []  # (deliver_at, frame), append-ordered
        self._held = None
        self.closed = False
        self.write_count = 0
        self.drop_log = []  # indices of frames the profile discarded

    def put(self, frame: bytes) -> None:
        with self._cond:
            if self.closed:
                return  # peer is gone; the frame just falls off the wire
            index = self.write_count
            self.write_count += 1
            if self.profile.loss_rate and self._rng.random() < self.profile.loss_rate:
                self.drop_log.append(index)
                return
            deliver_at = time.monotonic() + self.profile.delay
            if self._held is not None:
                self._frames.append((deliver_at, frame))
                self._frames.append((deliver_at, self._held))
                self._held = None
            elif self.profile.reorder_rate and self._rng.random() < self.profile.reorder_rate:
                self._held = frame
                return
            else:
                self._frames.append((deliver_at, frame))
            self._cond.notify_all()

    def get(self, timeout: float = None):
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                now = time.monotonic()
                if self._frames and self._frames[0][0] <= now:
                    return self._frames.pop(0)[1]
                if not self._frames and self.closed:
                    raise Closed("wire end is closed")
                if self._frames:
                    wait = self._frames[0][0] - now
                    if deadline is not None:
                        wait = min(wait, deadline - now)
                else:
                    wait = None if deadline is None else deadline - now
                if wait is not None and wait <= 0:
                    raise Timeout("no frame within timeout")
                self._cond.wait(wait)

    def close(self) -> None:
        with self._cond:
            if self._held is not None:  # flush so a lossless wire never eats a frame
                self._frames.append((time.monotonic(), self._held))
                self._held = None
            self.closed = True
            self._cond.notify_all()


class EmulatedEnd:
    """One endpoint of an in-memory wire pair."""

    kind = "emulated"

    def __init__(self, mac: bytes, mtu: int, inbound: _Direction, outbound: _Direction):
        self.mac = mac
        self.mtu = mtu
        self._in = inbound
        self._out = outbound
        self._closed = False

    def read_frame(self, timeout: float = None) -> bytes:
        if self._closed:
            raise Closed("device is closed")
        return self._in.get(timeout)

    def write_frame(self, frame: bytes) -> None:
        if len(frame) > self.mtu + ETH_HEADER:
            raise FrameTooLarge(f"{len(frame)} bytes exceeds mtu+14 = {self.mtu + ETH_HEADER}")
        if len(frame) < ETH_HEADER:
            raise LengthError(f"{len(frame)} bytes is below the 14-byte Ethernet header")
        if self._closed:
            raise Closed("device is closed")
        self._out.put(bytes(frame))

    def close(self) -> None:
        self._closed = True
        self._in.close()

    @property
    def drop_log(self) -> list:
        """Indices of frames this end wrote that the wire dropped."""
        return list(self._out.drop_log)


def create_wire_pair(profile: ImpairmentProfile = None, mtu: int = 1500):
    """Two linked frame endpoints; directions draw from seed and seed+1."""
    profile = (profile or ImpairmentProfile()).validate()
    a_to_b = _Direction(profile, profile.seed)
    b_to_a = _Direction(profile, profile.seed + 1)
    end_a = EmulatedEnd(b"\x02\x00\x00\x00\x00\x01", mtu, inbound=b_to_a, outbound=a_to_b)
    end_b = EmulatedEnd(b"\x02\x00\x00\x00\x00\x02", mtu, inbound=a_to_b, outbound=b_to_a)
    return end_a, end_b


class TapDevice:
    """Raw Ethernet frames via the host's tap driver."""

    kind = "tap"

    def __init__(self, name: str, mac: bytes, mtu: int = 1500):
        self.mac = mac
        self.mtu = mtu
        self.name = name
        try:
            self._fd = os.open("/dev/net/tun", os.O_RDWR)
        except OSError as e:
            raise DeviceUnavailable(f"/dev/net/tun: {e}") from None
        try:
            ifreq = struct.pack("16sH22x", name.encode(), _IFF_TAP | _IFF_NO_PI)
            fcntl.ioctl(self._fd, _TUNSETIFF, ifreq)
        except OSError as e:
            os.close(self._fd)
            raise DeviceUnavailable(f"tap {name!r}: {e}") from None
        # the pipe lets close() unblock a reader stuck in select
        self._wake_r, self._wake_w = os.pipe()
        self._write_lock = threading.Lock()
        self._closed = False

    def read_frame(self, timeout: float = None) -> bytes:
        while True:
            if self._closed:
                raise Closed("tap device is closed")
            ready, _, _ = select.select([self._fd, self._wake_r], [], [], timeout)
            if not ready:
                raise Timeout("no frame within timeout")
            if self._wake_r in ready:
                raise Closed("tap device is closed")
            try:
                frame = os.read(self._fd, self.mtu + ETH_HEADER + 64)
            except OSError as e:
                raise Closed(f"tap read failed: {e}") from None
            if len(frame) >= ETH_HEADER:
                return frame

    def write_frame(self, frame: bytes) -> None:
        if len(frame) > self.mtu + ETH_HEADER:
            raise FrameTooLarge(f"{len(frame)} bytes exceeds mtu+14 = {self.mtu + ETH_HEADER}")
        if len(frame) < ETH_HEADER:
            raise LengthError(f"{len(frame)} bytes is below the 14-byte Ethernet header")
        if self._closed:
            raise Closed("tap device is closed")
        with self._write_lock:
            os.write(self._fd, frame)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        os.write(self._wake_w, b"x")
        os.close(self._fd)


def open_tap(name: str, mac: bytes, mtu: int = 1500) -> TapDevice:
    return TapDevice(name, mac, mtu)
