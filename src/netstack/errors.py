"""Exception hierarchy shared by all layers."""


class NetstackError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigError(NetstackError):
    """Invalid configuration value or config file."""


# --- codec errors -----------------------------------------------------------

class WireError(NetstackError):
    """Base for decode/encode failures."""


class TruncatedFrame(WireError):
    """Input shorter than the header (or stated length) requires."""


class ChecksumMismatch(WireError):
    """Stored checksum does not verify against the message bytes."""


class Unsupported(WireError):
    """Field value outside what this stack implements (version, ihl, ...)."""


class LengthError(WireError):
    """Payload exceeds what the format's length fields can carry."""


# --- device / queue errors --------------------------------------------------

class DeviceUnavailable(NetstackError):
    """TAP device missing or not accessible to this process."""


class FrameTooLarge(NetstackError):
    """Frame exceeds the device MTU plus the Ethernet header."""


class Closed(NetstackError):
    """Operation on a closed queue, device, socket, or stack."""


class Timeout(NetstackError):
    """Blocking operation did not complete within its deadline."""


# --- registry / lifecycle errors --------------------------------------------

class AlreadyBound(NetstackError):
    """Key (ethertype, protocol, port, 4-tuple) already has a binding."""


class NotRunning(NetstackError):
    """Stack operation on a handle that is already shut down."""


# --- protocol errors --------------------------------------------------------

class ResolutionTimeout(NetstackError):
    """ARP went unanswered through all retries, or a no-wait caller found no entry."""


class NoRoute(NetstackError):
    """Destination is off-subnet and no gateway is configured."""


class PortsExhausted(NetstackError):
    """No free port left in the ephemeral range."""


class ConnectionRefused(NetstackError):
    """Peer answered the connection attempt with a reset."""


class ConnectionReset(NetstackError):
    """Established connection torn down by a reset."""


class ConnectionClosed(NetstackError):
    """Operation on a connection that is closed or closing."""
