"""RPR015 fixture: resources not released on all paths."""

import socket


def never_closed(path):
    fh = open(path)
    return fh.read()


def success_path_only(path):
    fh = open(path)
    data = fh.read()
    fh.close()
    return data


def socket_never_closed(address):
    sock = socket.socket()
    sock.connect(address)
    return sock.recv(1)


def discarded_handle(path):
    open(path, "a")


def waived(path):
    fh = open(path)  # repro: noqa[RPR015] -- fixture
    return fh.read()
