"""Reading and writing edge-list graph files.

Native format: optional header ``p <n> <m>``, then one ``u v`` pair per
line (0-based labels), ``#`` comments ignored.  DIMACS-style files
(``c`` comments, ``p edge <n> <m>``, ``e u v`` with 1-based labels) are
detected automatically.  The writer always emits the native format with
a header and sorted pairs so output is deterministic and round-trips
bit for bit.
"""

from __future__ import annotations

import io

from .errors import ParseError
from .multigraph import MultiGraph, from_edge_list


def parse_graph(text: str) -> MultiGraph:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if any(line.split()[0] == "e" for line in lines) or any(
        line.startswith("p edge") or line.startswith("p col") for line in lines
    ):
        return _parse_dimacs(lines)
    return _parse_native(lines)


def _parse_native(lines: list[str]) -> MultiGraph:
    n_hint = 0
    edges: list[tuple[int, int]] = []
    for line in lines:
        parts = line.split()
        if parts[0] == "p":
            if len(parts) < 3:
                raise ParseError(f"bad header: {line!r}")
            try:
                n_hint = int(parts[1])
            except ValueError as exc:
                raise ParseError(f"bad header: {line!r}") from exc
            continue
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"non-integer labels in {line!r}") from exc
        edges.append((u, v))
    return from_edge_list(edges, n_hint=n_hint)


def _parse_dimacs(lines: list[str]) -> MultiGraph:
    n_hint = 0
    edges: list[tuple[int, int]] = []
    for line in lines:
        parts = line.split()
        tag = parts[0]
        if tag == "c":
            continue
        if tag == "p":
            if len(parts) < 4:
                raise ParseError(f"bad DIMACS header: {line!r}")
            try:
                n_hint = int(parts[2])
            except ValueError as exc:
                raise ParseError(f"bad DIMACS header: {line!r}") from exc
            continue
        if tag == "e":
            if len(parts) != 3:
                raise ParseError(f"bad DIMACS edge line: {line!r}")
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError as exc:
                raise ParseError(f"non-integer labels in {line!r}") from exc
            if u < 0 or v < 0:
                raise ParseError(f"DIMACS labels are 1-based: {line!r}")
            edges.append((u, v))
            continue
        raise ParseError(f"unrecognized DIMACS line: {line!r}")
    return from_edge_list(edges, n_hint=n_hint)


def read_graph(path: str) -> MultiGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def write_graph_text(g: MultiGraph) -> str:
    """Serialize a simple graph deterministically (header + sorted pairs)."""
    buf = io.StringIO()
    pairs = sorted((u, v) for u, v, _ in g.iter_edges())
    buf.write(f"p {g.n} {len(pairs)}\n")
    for u, v in pairs:
        buf.write(f"{u} {v}\n")
    return buf.getvalue()


def write_graph(g: MultiGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_graph_text(g))


def read_vertex_set(path: str) -> set[int]:
    """One vertex id per line; '#' comments ignored."""
    out: set[int] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                out.add(int(line))
            except ValueError as exc:
                raise ParseError(f"bad vertex id line: {raw!r}") from exc
    return out
