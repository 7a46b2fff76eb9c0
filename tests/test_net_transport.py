"""The TCP loopback transport, for real."""

import dataclasses
import threading

import pytest

from repro.harness.runner import run_congos_scenario
from repro.harness.scenarios import steady_scenario
from repro.net.coordinator import NetOptions
from repro.net.transport import TcpConnection, TcpListener, TransportClosed


def _serve(listener, frames_out, frames_in, count):
    connection = listener.accept()
    try:
        for _ in range(count):
            frames_in.append(connection.recv())
        for frame in frames_out:
            connection.send(frame)
    finally:
        connection.close()


def test_tcp_round_trip_both_directions():
    listener = TcpListener(timeout=10.0)
    assert listener.address[0] == "tcp"
    replies = [b"ack-1", b"ack-2"]
    received = []
    server = threading.Thread(
        target=_serve, args=(listener, replies, received, 2)
    )
    server.start()
    connection = TcpConnection.connect(listener.address, timeout=10.0)
    try:
        connection.send(b"frame-1")
        connection.send(b"\x00" * 100)  # binary-safe, embedded NULs
        assert connection.recv() == b"ack-1"
        assert connection.recv() == b"ack-2"
    finally:
        connection.close()
        server.join(5.0)
        listener.close()
    assert received == [b"frame-1", b"\x00" * 100]


def test_tcp_large_frame():
    listener = TcpListener(timeout=30.0)
    big = bytes(range(256)) * 4096  # 1 MiB, exercises chunked recv
    received = []
    server = threading.Thread(target=_serve, args=(listener, [], received, 1))
    server.start()
    connection = TcpConnection.connect(listener.address, timeout=30.0)
    try:
        connection.send(big)
    finally:
        connection.close()
        server.join(10.0)
        listener.close()
    assert received == [big]


def test_tcp_peer_close_raises_transport_closed():
    listener = TcpListener(timeout=5.0)
    accepted = []
    server = threading.Thread(
        target=lambda: accepted.append(listener.accept())
    )
    server.start()
    connection = TcpConnection.connect(listener.address, timeout=5.0)
    server.join(5.0)
    accepted[0].close()
    with pytest.raises(TransportClosed):
        connection.recv()
    connection.close()
    listener.close()


def test_tcp_rejects_foreign_address():
    with pytest.raises(ValueError, match="tcp transport got address"):
        TcpConnection.connect(("udp", "127.0.0.1", 1))


def test_net_options_accept_tcp_and_refuse_any_other_transport(monkeypatch):
    options = NetOptions({"workers": 2, "transport": "tcp"})
    assert (options.workers, options.transport) == (2, "tcp")
    assert NetOptions(None).transport == "tcp"

    # The refusal comes while the options resolve, before any worker spawns.
    def no_spawn(*args, **kwargs):
        raise AssertionError("a worker was started")

    monkeypatch.setattr("multiprocessing.context.SpawnProcess.start", no_spawn)
    scenario = steady_scenario(n=8, rounds=4, seed=0, deadline=64)
    with pytest.raises(ValueError, match="unknown transport 'carrier-pigeon'"):
        run_congos_scenario(
            dataclasses.replace(
                scenario,
                backend="sharded",
                net={"workers": 2, "transport": "carrier-pigeon"},
            )
        )
