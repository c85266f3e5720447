"""Stack configuration and the key=value config file format."""

from __future__ import annotations

from dataclasses import dataclass

from netstack import addr
from netstack.errors import ConfigError


@dataclass
class StackConfig:
    device: str = "emulated"  # TAP interface name, or "emulated" for an in-memory wire
    ip: str = "10.0.0.1"
    netmask: str = "255.255.255.0"
    gateway: str = ""  # empty means no off-subnet route
    mac: str = "02:00:00:00:00:01"
    mtu: int = 1500
    queue_capacity: int = 256
    arp_timeout_ms: int = 1000
    arp_cache_ttl_ms: int = 60000
    reassembly_timeout_ms: int = 30000
    tcp_rto_ms: int = 1000
    tcp_window_segments: int = 32
    tcp_time_wait_ms: int = 10000
    tcp_handshake_timeout_ms: int = 5000
    isn_seed: int | None = None  # fixed value makes connection setup reproducible

    def validate(self) -> "StackConfig":
        if self.mtu < 576:
            raise ConfigError(f"mtu {self.mtu} below the 576-byte minimum")
        for name in ("queue_capacity", "tcp_window_segments"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("arp_timeout_ms", "reassembly_timeout_ms", "tcp_rto_ms",
                     "tcp_time_wait_ms", "tcp_handshake_timeout_ms"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        ip = addr.parse_ip(self.ip)
        mask = addr.parse_ip(self.netmask)
        addr.parse_mac(self.mac)
        if self.gateway:
            gw = addr.parse_ip(self.gateway)
            if not addr.same_subnet(ip, gw, mask):
                raise ConfigError(f"gateway {self.gateway} is outside {self.ip}/{self.netmask}")
        return self

    # parsed shortcuts used throughout the stack
    @property
    def ip_bytes(self) -> bytes:
        return addr.parse_ip(self.ip)

    @property
    def netmask_bytes(self) -> bytes:
        return addr.parse_ip(self.netmask)

    @property
    def gateway_bytes(self) -> bytes | None:
        return addr.parse_ip(self.gateway) if self.gateway else None

    @property
    def mac_bytes(self) -> bytes:
        return addr.parse_mac(self.mac)


_FILE_KEYS = {
    "device": str,
    "ip": str,
    "netmask": str,
    "gateway": str,
    "mac": str,
    "mtu": int,
    "queue_capacity": int,
    "arp_timeout_ms": int,
    "reassembly_timeout_ms": int,
    "tcp_rto_ms": int,
    "tcp_window_segments": int,
    "tcp_time_wait_ms": int,
}


def load_config(path: str) -> StackConfig:
    """Parse a line-oriented key=value file into a StackConfig."""
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    values = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _FILE_KEYS[key](raw)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {raw!r}") from None
    return StackConfig(**values).validate()
