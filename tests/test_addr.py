import pytest

from netstack import addr, errors


def test_ip_round_trip():
    assert addr.format_ip(addr.parse_ip("10.0.0.2")) == "10.0.0.2"
    assert addr.parse_ip("255.255.255.0") == b"\xff\xff\xff\x00"


@pytest.mark.parametrize("bad", ["10.0.0", "10.0.0.256", "a.b.c.d", "1.2.3.4.5", ""])
def test_bad_ip_rejected(bad):
    with pytest.raises(errors.ConfigError):
        addr.parse_ip(bad)


def test_mac_round_trip():
    mac = addr.parse_mac("02:00:5E:10:00:01")
    assert addr.format_mac(mac) == "02:00:5e:10:00:01"
    assert addr.parse_mac("02-00-5e-10-00-01") == mac


def test_subnet_membership():
    mask = addr.parse_ip("255.255.255.0")
    assert addr.same_subnet(addr.parse_ip("10.0.0.1"), addr.parse_ip("10.0.0.200"), mask)
    assert not addr.same_subnet(addr.parse_ip("10.0.0.1"), addr.parse_ip("10.0.1.1"), mask)
    assert addr.subnet_broadcast(addr.parse_ip("10.0.0.1"), mask) == addr.parse_ip("10.0.0.255")


def test_ephemeral_pick_skips_taken_ports_and_wraps():
    assert addr.pick_ephemeral(50000, {50000, 50001}.__contains__, "udp") == 50002
    assert addr.pick_ephemeral(65535, {65535}.__contains__, "udp") == 49152
    assert addr.pick_ephemeral(65536, lambda port: False, "tcp") == 49152


def test_ephemeral_pick_raises_when_every_port_is_taken():
    with pytest.raises(errors.PortsExhausted, match="no ephemeral tcp ports left"):
        addr.pick_ephemeral(49152, lambda port: True, "tcp")


def test_port_range():
    assert addr.as_port(0) == 0
    assert addr.as_port(65535) == 65535


@pytest.mark.parametrize("bad", [-1, 65536, 70000, "80", 80.0, None])
def test_bad_port_rejected(bad):
    with pytest.raises(errors.ConfigError):
        addr.as_port(bad)
