"""The TCP loopback transport, for real."""

import threading

import pytest

from repro.net.transport import TransportClosed, get_transport


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
    transport = get_transport("tcp", timeout=10.0)
    listener = transport.listen()
    assert listener.address[0] == "tcp"
    replies = [b"ack-1", b"ack-2"]
    received = []
    server = threading.Thread(
        target=_serve, args=(listener, replies, received, 2)
    )
    server.start()
    connection = transport.connect(listener.address)
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
    transport = get_transport("tcp", timeout=30.0)
    listener = transport.listen()
    big = bytes(range(256)) * 4096  # 1 MiB, exercises chunked recv
    received = []
    server = threading.Thread(target=_serve, args=(listener, [], received, 1))
    server.start()
    connection = transport.connect(listener.address)
    try:
        connection.send(big)
    finally:
        connection.close()
        server.join(10.0)
        listener.close()
    assert received == [big]


def test_tcp_peer_close_raises_transport_closed():
    transport = get_transport("tcp", timeout=5.0)
    listener = transport.listen()
    accepted = []
    server = threading.Thread(
        target=lambda: accepted.append(listener.accept())
    )
    server.start()
    connection = transport.connect(listener.address)
    server.join(5.0)
    accepted[0].close()
    with pytest.raises(TransportClosed):
        connection.recv()
    connection.close()
    listener.close()


def test_tcp_rejects_foreign_address():
    transport = get_transport("tcp")
    with pytest.raises(ValueError, match="tcp transport got address"):
        transport.connect(("udp", "127.0.0.1", 1))


def test_unknown_transport_name():
    with pytest.raises(ValueError, match="unknown transport"):
        get_transport("carrier-pigeon")
