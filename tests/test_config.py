import re
from pathlib import Path

import pytest

from netstack import config, errors
from netstack.config import StackConfig, load_config


def test_defaults_validate():
    cfg = StackConfig().validate()
    assert cfg.mtu == 1500
    assert cfg.queue_capacity == 256
    assert cfg.tcp_window_segments == 32


def test_load_config_file(tmp_path):
    p = tmp_path / "stack.conf"
    p.write_text(
        "# test rig\n"
        "device=tap0\n"
        "ip=192.168.7.2\n"
        "netmask=255.255.255.0\n"
        "gateway=192.168.7.1\n"
        "mac=02:aa:bb:cc:dd:ee\n"
        "mtu=1400\n"
        "tcp_rto_ms=250\n"
        "\n"
    )
    cfg = load_config(str(p))
    assert cfg.device == "tap0"
    assert cfg.ip == "192.168.7.2"
    assert cfg.mtu == 1400
    assert cfg.tcp_rto_ms == 250
    assert cfg.queue_capacity == 256  # untouched default


def test_missing_file():
    with pytest.raises(errors.ConfigError):
        load_config("/no/such/file.conf")


def test_unknown_key(tmp_path):
    p = tmp_path / "bad.conf"
    p.write_text("color=blue\n")
    with pytest.raises(errors.ConfigError):
        load_config(str(p))


def test_load_config_rejects_removed_ip_readers_key(tmp_path):
    p = tmp_path / "old.conf"
    p.write_text("ip_readers=4\n")
    with pytest.raises(errors.ConfigError, match="ip_readers"):
        load_config(str(p))


def test_readme_lists_exactly_the_config_file_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"Recognized config keys:(.*?)\.\s+Anything else", readme, re.S)
    assert sentence is not None, "README lost its config key sentence"
    assert re.findall(r"`(\w+)`", sentence.group(1)) == list(config._FILE_KEYS)


def test_bad_value(tmp_path):
    p = tmp_path / "bad.conf"
    p.write_text("mtu=fast\n")
    with pytest.raises(errors.ConfigError):
        load_config(str(p))


def test_gateway_outside_subnet():
    with pytest.raises(errors.ConfigError):
        StackConfig(ip="10.0.0.1", netmask="255.255.255.0", gateway="10.9.0.1").validate()


def test_small_mtu_rejected():
    with pytest.raises(errors.ConfigError):
        StackConfig(mtu=400).validate()
