#!/usr/bin/env python3
"""A canond client that stops reading.

It shrinks its receive buffer, sends Hello and a 2000-seed spmm sweep
at m=k=n=16, and then sleeps without reading a byte until it is killed
(or a minute passes). The daemon's one worker blocks sending it Result
frames, so a SIGTERM drain has to get past a send that never
completes: canond must exit 1 ("leaked jobs at shutdown") within its
--drain-wait-ms deadline plus a small margin.

usage: python3 scripts/stalled_client.py SOCKET
"""

import socket
import struct
import sys
import time

HELLO, SUBMIT = 1, 2


def frame(msg_type, payload):
    """One canon-rpc-1 frame: u32 little-endian length, type byte."""
    data = payload.encode()
    return struct.pack("<IB", len(data), msg_type) + data


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[-1])

    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.connect(sys.argv[1])
    sock.sendall(frame(HELLO, "proto=canon-rpc-1\n"))
    seeds = ",".join(str(s) for s in range(1, 2001))
    sock.sendall(frame(SUBMIT,
                       "client=stalled\npriority=0\n"
                       "opt.workload=spmm\nopt.m=16\nopt.k=16\nopt.n=16\n"
                       "sweep.seed=" + seeds + "\n"))
    time.sleep(60)


if __name__ == "__main__":
    main()
