"""Known-bad RP006 fixture: the push path drops the seq token."""

import numpy as np


class Server:
    """handle_push without a seq parameter cannot deduplicate."""

    def __init__(self) -> None:
        self._rows: dict = {}

    def handle_push(self, name: str, row: int, values: np.ndarray) -> None:  # expect: RP006
        stored = self._rows.get((name, row))
        if stored is None:
            self._rows[(name, row)] = values.copy()
        else:
            stored += values


class ForgetfulServer:
    """Accepts seq but never reads it: duplicates still double-count."""

    def __init__(self) -> None:
        self._rows: dict = {}

    def handle_push(self, name, row, values, seq=None):  # expect: RP006
        self._rows[(name, row)] = values


class SketchServer:
    """handle_push_sketch without seq: a re-pushed sketch merges twice."""

    def __init__(self) -> None:
        self._sketches: dict = {}

    def handle_push_sketch(self, name, partition_id, payloads) -> None:  # expect: RP006
        for feature, payload in payloads:
            self._sketches[(name, feature)] = payload


class WindowServer:
    """handle_push_window without seq: a replayed window merges twice."""

    def __init__(self) -> None:
        self._rows: dict = {}

    def handle_push_window(self, name, entries) -> None:  # expect: RP006
        for row, slab in entries:
            self._rows[(name, row)] = slab


class AnyServer(Server, SketchServer, WindowServer):
    """Every handler on one receiver, so the call graph can pair each of
    Group's pushers with the handler it calls."""


class Group:
    def __init__(self, server: AnyServer) -> None:
        self.server = server

    def push_row(self, name: str, row: int, values: np.ndarray) -> None:  # expect: RP006
        self.server.handle_push(name, row, values)  # expect: RP006

    def push_sketch(self, name: str, sketches: dict) -> None:  # expect: RP006
        payloads = sorted(sketches.items())
        self.server.handle_push_sketch(name, 0, payloads)  # expect: RP006

    def push_window(self, name: str, entries: list) -> None:  # expect: RP006
        self.server.handle_push_window(name, entries)  # expect: RP006

    def push_window_rows(self, name: str, entries: list) -> None:  # expect: RP006
        for row, _partition, piece, _nbytes in entries:
            self.server.handle_push(name, row, piece)  # expect: RP006
