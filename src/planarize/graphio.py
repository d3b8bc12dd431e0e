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
    """The graph in an edge-list text, native or DIMACS.

    Each line is split into fields once; ``#`` comments are cut off only
    when the text holds a ``#``, and a line's own text is read again only
    for an error message.  A DIMACS line needs an ``e`` or a ``p col`` in
    the text, so a native file whose comments hold neither is told apart
    without a scan."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    rows = [line.split() for line in lines]
    if ("e" in text or "p col" in text) and _is_dimacs(lines, rows):
        return _parse_dimacs(lines, rows)
    return _parse_native(lines, rows)


def _is_dimacs(lines: list[str], rows: list[list[str]]) -> bool:
    """Whether a line is a DIMACS edge, or a ``p edge`` or ``p col`` header."""
    for line, parts in zip(lines, rows):
        if parts and (parts[0] == "e"
                      or (parts[0] == "p" and line.strip().startswith(("p edge", "p col")))):
            return True
    return False


def _parse_native(lines: list[str], rows: list[list[str]]) -> MultiGraph:
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    append = edges.append
    for line, parts in zip(lines, rows):
        if len(parts) == 2 and parts[0] != "p":
            try:
                append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise ParseError(f"non-integer labels in {line.strip()!r}") from exc
        elif parts:
            if parts[0] != "p":
                raise ParseError(f"expected 'u v', got {line.strip()!r}")
            if header is not None:
                raise ParseError(f"second header: {line.strip()!r}")
            header = _header_counts(parts[1:], f"bad header: {line.strip()!r}")
    return _build(edges, header)


def _parse_dimacs(lines: list[str], rows: list[list[str]]) -> MultiGraph:
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for line, parts in zip(lines, rows):
        if not parts:
            continue
        tag = parts[0]
        if tag == "c":
            continue
        if tag == "p":
            if header is not None:
                raise ParseError(f"second DIMACS header: {line.strip()!r}")
            header = _header_counts(parts[2:], f"bad DIMACS header: {line.strip()!r}")
            continue
        if tag == "e":
            if len(parts) != 3:
                raise ParseError(f"bad DIMACS edge line: {line.strip()!r}")
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError as exc:
                raise ParseError(f"non-integer labels in {line.strip()!r}") from exc
            if u < 0 or v < 0:
                raise ParseError(f"DIMACS labels are 1-based: {line.strip()!r}")
            edges.append((u, v))
            continue
        raise ParseError(f"unrecognized DIMACS line: {line.strip()!r}")
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
