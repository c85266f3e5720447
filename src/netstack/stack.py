"""Stack assembly and lifecycle.

stack_up wires the layers together bottom-to-top and spawns their
tasks; stack_down closes the device and waits for the task census to
reach zero.  Closing follows the data path: each task stops when its
input closes and closes the queues it feeds, so the link reader ends
the Ethernet dealer, which ends ARP and IPv4, and so on up to UDP, which
closes its sockets, and TCP, which aborts its connections.
"""

from __future__ import annotations

import threading

from netstack import addr, link
from netstack.arp import ArpLayer
from netstack.config import StackConfig
from netstack.csp import Counters, TaskSet
from netstack.errors import DeviceUnavailable, NotRunning
from netstack.ethernet import EthernetLayer
from netstack.icmp import IcmpPing
from netstack.ipv4 import Ipv4Layer
from netstack.tcp import TcpLayer
from netstack.udp import UdpLayer


class Stack:
    def __init__(self, config: StackConfig, device=None):
        config.validate()
        self.config = config
        if device is None:
            if config.device == "emulated":
                raise DeviceUnavailable(
                    "an emulated stack needs one end of create_wire_pair()")
            device = link.open_tap(config.device, config.mac_bytes, config.mtu)
        self.device = device
        self.counters = Counters()
        self.tasks = TaskSet()
        self.eth = EthernetLayer(device, config.mac_bytes, self.counters,
                                 self.tasks, config.queue_capacity)
        self.arp = ArpLayer(self.eth, config.ip_bytes, self.counters, self.tasks,
                            config.queue_capacity, timeout_ms=config.arp_timeout_ms,
                            cache_ttl_ms=config.arp_cache_ttl_ms)
        self.ipv4 = Ipv4Layer(self.eth, self.arp, config, self.counters, self.tasks)
        self.icmp = IcmpPing(self.ipv4, config, self.counters, self.tasks)
        self.udp = UdpLayer(self.ipv4, config, self.counters, self.tasks)
        self.tcp = TcpLayer(self.ipv4, config, self.counters, self.tasks)
        self._running = False
        self._lock = threading.Lock()

    # --- lifecycle ---

    def up(self) -> "Stack":
        with self._lock:
            if self._running:
                return self
            self.eth.start()
            self.arp.start()
            self.ipv4.start()
            self.icmp.start()
            self.udp.start()
            self.tcp.start()
            self._running = True
        return self

    def down(self, timeout: float = 10.0) -> None:
        with self._lock:
            if not self._running:
                raise NotRunning("stack is not up")
            self._running = False
        self.device.close()  # every layer stops in turn as its input closes
        self.tasks.join_all(timeout)

    @property
    def running(self) -> bool:
        return self._running

    # --- conveniences ---

    @property
    def ip(self) -> bytes:
        return self.config.ip_bytes

    def ping(self, dst, count: int = 4, interval: float = 1.0, size: int = 56,
             timeout: float = 1.0):
        return self.icmp.ping(addr.as_ip(dst), count=count, interval=interval,
                              size=size, timeout=timeout)


def stack_up(config: StackConfig, device=None) -> Stack:
    return Stack(config, device).up()


def stack_down(stack: Stack, timeout: float = 10.0) -> None:
    stack.down(timeout)


def linked_stacks(profile: link.ImpairmentProfile = None,
                  config_a: StackConfig = None,
                  config_b: StackConfig = None) -> tuple[Stack, Stack]:
    """Two stacks on the ends of one emulated wire; the usual test rig."""
    config_a = config_a or StackConfig(ip="10.0.0.1", mac="02:00:00:00:00:01")
    config_b = config_b or StackConfig(ip="10.0.0.2", mac="02:00:00:00:00:02")
    mtu = min(config_a.mtu, config_b.mtu)
    dev_a, dev_b = link.create_wire_pair(profile, mtu=mtu)
    return stack_up(config_a, dev_a), stack_up(config_b, dev_b)
