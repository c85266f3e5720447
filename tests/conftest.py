"""Shared rigs: linked stack pairs with short timers, a scripted peer, and a
TCB on a stub layer that tests drive without threads."""

import time
from types import SimpleNamespace

import pytest

from netstack import addr, errors, link, stack, wire
from netstack.config import StackConfig
from netstack.csp import Counters
from netstack.tcp import Tcb, TcbState

A_IP, B_IP = "10.0.0.1", "10.0.0.2"


def fast_config(ip: str, mac: str, **overrides) -> StackConfig:
    """Stack settings with timers cut down to test scale."""
    values = dict(
        ip=ip, mac=mac,
        arp_timeout_ms=200,
        reassembly_timeout_ms=800,
        tcp_rto_ms=200,
        tcp_time_wait_ms=300,
        tcp_handshake_timeout_ms=1500,
        isn_seed=7,
    )
    values.update(overrides)
    return StackConfig(**values)


@pytest.fixture
def rig():
    """Factory for linked stack pairs; tears every stack down afterwards."""
    built = []

    def build(loss=0.0, reorder=0.0, delay=0.0, seed=1, a_over=None, b_over=None):
        profile = link.ImpairmentProfile(loss_rate=loss, reorder_rate=reorder,
                                         delay=delay, seed=seed)
        cfg_a = fast_config(A_IP, "02:00:00:00:00:01", **(a_over or {}))
        cfg_b = fast_config(B_IP, "02:00:00:00:00:02", **(b_over or {}))
        pair = stack.linked_stacks(profile, cfg_a, cfg_b)
        built.extend(pair)
        return pair

    yield build
    for s in reversed(built):
        try:
            s.down()
        except errors.NotRunning:
            pass
    assert_no_tasks_left(built)


@pytest.fixture
def solo():
    """One full stack on a bare wire; the far end stays in the test's hands."""
    built = []

    def build(**overrides):
        end_a, end_b = link.create_wire_pair(link.ImpairmentProfile())
        cfg = fast_config(A_IP, "02:00:00:00:00:01", **overrides)
        s = stack.Stack(cfg, device=end_a)
        s.up()
        built.append((s, end_b))
        return s, end_b

    yield build
    for s, end in built:
        end.close()
        try:
            s.down()
        except errors.NotRunning:
            pass
    assert_no_tasks_left([s for s, _end in built])


def assert_no_tasks_left(stacks) -> None:
    """Every fixture teardown is a leak check: down() must end every task."""
    left = {s.config.ip: s.tasks.names() for s in stacks if s.tasks.census()}
    assert not left, f"tasks still running after down(): {left}"


def tcp_task_names(st) -> list[str]:
    """Live tasks of one stack's TCP layer; tcp-dealer alone when idle."""
    return [name for name in st.tasks.names() if name.startswith("tcp-")]


def wait_until(predicate, timeout: float = 2.0, interval: float = 0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def send_paced(sender, receiver, receiver_sock, payloads) -> None:
    """Send each datagram only once the receiver has queued or dropped the last.

    A back-to-back burst would overflow the receiver's NIC ring
    (link.drop.overflow) before UDP ever saw it; pacing keeps every
    datagram's fate in the UDP layer's hands.
    """
    for sent, payload in enumerate(payloads, 1):
        sender.send_to(receiver.ip, receiver_sock.port, payload)
        assert wait_until(lambda: len(receiver_sock.queue)
                          + receiver.counters.get("udp.drop.full") == sent), \
            f"datagram {sent} was neither queued nor counted as udp.drop.full"


class ScriptedPeer:
    """Hand-driven endpoint on a bare wire end.

    Lets tests speak raw segments against a full stack while answering
    the stack's ARP requests so its sends keep flowing.
    """

    def __init__(self, device, ip: bytes, mac: bytes = b"\x02\x00\x00\x00\x00\x02"):
        self.device = device
        self.ip = ip
        self.mac = mac

    def announce(self, target_ip: bytes) -> None:
        """Gratuitous-style ARP so the stack learns us without asking."""
        pkt = wire.ArpPacket(opcode=wire.ARP_REPLY, sender_mac=self.mac,
                             sender_ip=self.ip, target_mac=b"\xff" * 6,
                             target_ip=target_ip)
        frame = wire.EthernetFrame(dst_mac=b"\xff" * 6, src_mac=self.mac,
                                   ethertype=wire.ETHERTYPE_ARP, payload=pkt.encode())
        self.device.write_frame(frame.encode())

    def _answer_arp(self, frame: wire.EthernetFrame) -> None:
        pkt = wire.decode("arp", frame.payload)
        if pkt.opcode == wire.ARP_REQUEST and pkt.target_ip == self.ip:
            reply = wire.ArpPacket(opcode=wire.ARP_REPLY, sender_mac=self.mac,
                                   sender_ip=self.ip, target_mac=pkt.sender_mac,
                                   target_ip=pkt.sender_ip)
            out = wire.EthernetFrame(dst_mac=pkt.sender_mac, src_mac=self.mac,
                                     ethertype=wire.ETHERTYPE_ARP,
                                     payload=reply.encode())
            self.device.write_frame(out.encode())

    def expect_tcp(self, pred=None, timeout: float = 3.0) -> wire.TcpSegment:
        """Next TCP segment from the stack matching pred; ARP answered en route."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise AssertionError("expected tcp segment never arrived")
            frame = wire.decode("ethernet", self.device.read_frame(timeout=remaining))
            if frame.ethertype == wire.ETHERTYPE_ARP:
                self._answer_arp(frame)
                continue
            if frame.ethertype != wire.ETHERTYPE_IPV4:
                continue
            packet = wire.decode("ipv4", frame.payload)
            if packet.protocol != wire.PROTO_TCP:
                continue
            seg = wire.decode("tcp", packet.payload,
                              src_ip=packet.src_ip, dst_ip=packet.dst_ip)
            if pred is None or pred(seg):
                return seg

    def send_tcp(self, dst_ip: bytes, dst_mac: bytes, **fields) -> None:
        seg = wire.TcpSegment(**fields)
        packet = wire.Ipv4Packet(src_ip=self.ip, dst_ip=dst_ip,
                                 protocol=wire.PROTO_TCP,
                                 payload=seg.encode(self.ip, dst_ip))
        frame = wire.EthernetFrame(dst_mac=dst_mac, src_mac=self.mac,
                                   ethertype=wire.ETHERTYPE_IPV4,
                                   payload=packet.encode())
        self.device.write_frame(frame.encode())

    def handshake(self, dst_ip: bytes, dst_mac: bytes, src_port: int, dst_port: int,
                  seq: int, complete: bool = True) -> int:
        """Send a SYN from seq and await the SYN-ACK; ACK it if complete.

        Returns the stack's next sequence number, the ack the peer sends."""
        self.send_tcp(dst_ip, dst_mac, src_port=src_port, dst_port=dst_port,
                      seq=seq, ack=0, flag_syn=True)
        synack = self.expect_tcp(lambda g: g.flag_syn and g.flag_ack)
        their_next = (synack.seq + 1) % 2**32
        if complete:
            self.send_tcp(dst_ip, dst_mac, src_port=src_port, dst_port=dst_port,
                          seq=(seq + 1) % 2**32, ack=their_next, flag_ack=True)
        return their_next


def stub_tcb(iss: int = 1000, irs: int = 5000, mss: int = 1460, window_segments: int = 32,
             rto_s: float = 1.0, time_wait_s: float = 10.0) -> Tcb:
    """An ESTABLISHED TCB with nothing in flight, on a stub layer.

    The layer holds only what the state machine reads: counters, the MSS,
    the window and the timer settings.  It has no TaskSet and no wire, so
    the test drives ``Tcb._turn(inbox, now)`` itself and reads what it
    returns.  ``snd_una`` and ``snd_nxt`` start at iss, ``rcv_nxt`` at irs.
    """
    layer = SimpleNamespace(counters=Counters(), mss=mss, window_segments=window_segments,
                            rto_s=rto_s, time_wait_s=time_wait_s)
    tcb = Tcb(layer, local=(addr.parse_ip(A_IP), 7000), remote=(addr.parse_ip(B_IP), 6000))
    tcb.state = TcbState.ESTABLISHED
    tcb.history = [tcb.state]
    tcb.snd_una = tcb.snd_nxt = iss
    tcb.rcv_nxt = irs
    return tcb


def peer_segment(tcb: Tcb, seq: int, payload: bytes = b"", ack: int = None,
                 **flags) -> wire.TcpSegment:
    """A segment from tcb's peer; it acknowledges ``snd_nxt`` unless told otherwise."""
    return wire.TcpSegment(src_port=tcb.remote[1], dst_port=tcb.local[1], seq=seq,
                           ack=tcb.snd_nxt if ack is None else ack, flag_ack=True,
                           payload=payload, **flags)
