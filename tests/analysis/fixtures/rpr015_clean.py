"""RPR015 clean fixture: every acquisition is released or handed off."""

import socket


def with_statement(path):
    with open(path) as fh:
        return fh.read()


def try_finally(path):
    fh = open(path)
    try:
        return fh.read()
    finally:
        fh.close()


def ownership_returned(path):
    return open(path)


def ownership_stored(obj, path):
    obj.fh = open(path)


def ownership_passed(path, sink):
    fh = open(path)
    sink(fh)


class Holder:
    def __init__(self):
        self._sock = socket.socket()

    def close(self):
        self._sock.close()


def socket_released(address):
    sock = socket.socket()
    try:
        sock.connect(address)
        return sock.recv(1)
    finally:
        sock.close()
