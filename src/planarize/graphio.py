"""Reading and writing edge-list graph files.

Native format: optional header ``p <n> <m>``, then one ``u v`` pair per
line (0-based labels), ``#`` comments ignored.  DIMACS-style files
(``c`` comments, ``p edge <n> <m>``, ``e u v`` with 1-based labels) are
detected automatically.  A file has at most one header, which holds
exactly its two counts and must agree with the body: the number of edge
lines must equal its m (a duplicated line counts, then collapses) and
the vertex count may not exceed its n.  The writer always emits the
native format with a header and sorted pairs so output is deterministic
and round-trips bit for bit.
"""

from __future__ import annotations

import io

from .errors import ParseError
from .multigraph import MultiGraph, from_edge_list


def parse_graph(text: str) -> MultiGraph:
    lines: list[tuple[str, list[str]]] = []
    dimacs = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            parts = line.split()
            tag = parts[0]
            if tag == "e" or (tag == "p" and line.startswith(("p edge", "p col"))):
                dimacs = True
            lines.append((line, parts))
    return _parse_dimacs(lines) if dimacs else _parse_native(lines)


def _parse_native(lines: list[tuple[str, list[str]]]) -> MultiGraph:
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for line, parts in lines:
        if parts[0] == "p":
            if header is not None:
                raise ParseError(f"second header: {line!r}")
            header = _header_counts(parts[1:], f"bad header: {line!r}")
            continue
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ParseError(f"non-integer labels in {line!r}") from exc
    return _build(edges, header)


def _parse_dimacs(lines: list[tuple[str, list[str]]]) -> MultiGraph:
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for line, parts in lines:
        tag = parts[0]
        if tag == "c":
            continue
        if tag == "p":
            if header is not None:
                raise ParseError(f"second DIMACS header: {line!r}")
            header = _header_counts(parts[2:], f"bad DIMACS header: {line!r}")
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
    return _build(edges, header)


def _header_counts(fields: list[str], error: str) -> tuple[int, int]:
    """The header's n and m, its only two ``fields``; neither may be
    negative."""
    try:
        n, m = map(int, fields)
    except ValueError as exc:
        raise ParseError(error) from exc
    if n < 0 or m < 0:
        raise ParseError(error)
    return n, m


def _build(edges: list[tuple[int, int]], header: tuple[int, int] | None) -> MultiGraph:
    """The graph on the edge lines, checked against the header if any."""
    if header is None:
        return from_edge_list(edges)
    n, m = header
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges, file has {len(edges)} edge lines")
    g = from_edge_list(edges, n_hint=n)
    if g.n > n:
        raise ParseError(f"header declares {n} vertices, file has {g.n}")
    return g


def _read_text(path: str) -> str:
    """The file's text; a file that is not UTF-8 is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def read_graph(path: str) -> MultiGraph:
    return parse_graph(_read_text(path))


def write_graph_text(g: MultiGraph) -> str:
    """Serialize a simple graph deterministically (header + sorted pairs);
    ``iter_edges`` already yields the pairs sorted."""
    lines = [f"{u} {v}\n" for u, v, _ in g.iter_edges()]
    return f"p {g.n} {len(lines)}\n" + "".join(lines)


def read_vertex_set(path: str) -> set[int]:
    """One vertex id per line; '#' comments ignored."""
    out: set[int] = set()
    for raw in io.StringIO(_read_text(path)):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.add(int(line))
        except ValueError as exc:
            raise ParseError(f"bad vertex id line: {raw!r}") from exc
    return out
