"""IPv4, MAC and port address helpers.

Addresses travel through the stack as raw bytes (4 for IPv4, 6 for MAC);
these helpers convert to and from the usual text forms.
"""

from netstack.errors import ConfigError, PortsExhausted

BROADCAST_MAC = b"\xff\xff\xff\xff\xff\xff"
BROADCAST_IP = b"\xff\xff\xff\xff"
EPHEMERAL_FIRST = 49152
EPHEMERAL_LAST = 65535


def parse_ip(text: str) -> bytes:
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise ConfigError(f"bad IPv4 address: {text!r}")
    try:
        octets = [int(p) for p in parts]
    except ValueError:
        raise ConfigError(f"bad IPv4 address: {text!r}") from None
    if any(o < 0 or o > 255 for o in octets):
        raise ConfigError(f"bad IPv4 address: {text!r}")
    return bytes(octets)


def format_ip(ip: bytes) -> str:
    return ".".join(str(b) for b in ip)


def as_ip(value) -> bytes:
    """Accept either a dotted string or 4 raw bytes."""
    if isinstance(value, str):
        return parse_ip(value)
    value = bytes(value)
    if len(value) != 4:
        raise ConfigError(f"bad IPv4 address: {value!r}")
    return value


def as_port(value) -> int:
    """A TCP or UDP port number, 0 to 65535."""
    if not isinstance(value, int) or not 0 <= value <= 65535:
        raise ConfigError(f"bad port: {value!r}")
    return value


def parse_mac(text: str) -> bytes:
    parts = text.strip().replace("-", ":").split(":")
    if len(parts) != 6:
        raise ConfigError(f"bad MAC address: {text!r}")
    try:
        octets = [int(p, 16) for p in parts]
    except ValueError:
        raise ConfigError(f"bad MAC address: {text!r}") from None
    if any(o < 0 or o > 255 for o in octets):
        raise ConfigError(f"bad MAC address: {text!r}")
    return bytes(octets)


def format_mac(mac: bytes) -> str:
    return ":".join(f"{b:02x}" for b in mac)


def ip_to_int(ip: bytes) -> int:
    return int.from_bytes(ip, "big")


def same_subnet(a: bytes, b: bytes, netmask: bytes) -> bool:
    m = ip_to_int(netmask)
    return (ip_to_int(a) & m) == (ip_to_int(b) & m)


def subnet_broadcast(ip: bytes, netmask: bytes) -> bytes:
    m = ip_to_int(netmask)
    return ((ip_to_int(ip) & m) | (~m & 0xFFFFFFFF)).to_bytes(4, "big")


def pick_ephemeral(start: int, taken, protocol: str) -> int:
    """The first ephemeral port from start on, wrapping, for which taken is false."""
    span = EPHEMERAL_LAST - EPHEMERAL_FIRST + 1
    for i in range(span):
        port = EPHEMERAL_FIRST + (start - EPHEMERAL_FIRST + i) % span
        if not taken(port):
            return port
    raise PortsExhausted(f"no ephemeral {protocol} ports left")
