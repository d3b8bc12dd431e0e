import pytest

from planarize import generators as gen
from planarize.errors import GraphError, LoopInInput, ParseError
from planarize.graphio import parse_graph, read_graph, read_vertex_set, write_graph_text


def test_parse_native_with_header_and_comments():
    text = "# a comment\np 4 2\n0 1\n2 3  # trailing\n"
    g = parse_graph(text)
    assert (g.n, g.m) == (4, 2)
    assert g.multiplicity(0, 1) == 1


def test_parse_native_without_header():
    g = parse_graph("0 1\n1 2\n")
    assert (g.n, g.m) == (3, 2)


def test_parse_dimacs():
    text = "c comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
    g = parse_graph(text)
    assert (g.n, g.m) == (4, 3)
    assert g.multiplicity(0, 1) == 1 and g.multiplicity(2, 3) == 1


def test_parse_dimacs_bad_header_number():
    with pytest.raises(ParseError, match="p edge x 3"):
        parse_graph("p edge x 3\ne 1 2\n")


def test_parse_dimacs_bad_edge_label():
    with pytest.raises(ParseError, match="e 1 b"):
        parse_graph("p edge 3 1\ne 1 b\n")


@pytest.mark.parametrize(
    "text, why",
    [
        ("p 4 99\n0 1\n", "declares 99 edges"),
        ("p 4 0\n0 1\n", "declares 0 edges"),
        ("p 2 1\n0 5\n", "declares 2 vertices"),
        ("p 2 x\n0 1\n", "bad header"),
        ("p edge 2 1\ne 1 7\n", "declares 2 vertices"),
        ("p edge 3 2\ne 1 2\n", "declares 2 edges"),
        ("p -3 0\n", "bad header"),
        ("p 3 -1\n", "bad header"),
        ("p edge -3 0\n", "bad DIMACS header"),
        ("p 3 2\np 4 2\n0 1\n1 2\n", "second header: 'p 4 2'"),
        ("p edge 3 2\np edge 4 2\ne 1 2\ne 2 3\n", "second DIMACS header: 'p edge 4 2'"),
        ("p 3 2 9\n0 1\n1 2\n", "bad header: 'p 3 2 9'"),
        ("p edge 3 2 9\ne 1 2\ne 2 3\n", "bad DIMACS header: 'p edge 3 2 9'"),
    ],
)
def test_parse_rejects_header_mismatch(text, why):
    with pytest.raises(ParseError, match=why):
        parse_graph(text)


# Every message the parser raises, whole: the line a message quotes is
# the line without its comment and without surrounding blanks.
MESSAGES = [
    ("p 3 2\n\tp 4  2 # again\n0 1\n1 2\n", "second header: 'p 4  2'"),
    ("p 3 x\n0 1\n", "bad header: 'p 3 x'"),
    ("p 3 -1\n", "bad header: 'p 3 -1'"),
    ("0 1\n  0 1 2 3 # four\n", "expected 'u v', got '0 1 2 3'"),
    ("0 1\nx\n", "expected 'u v', got 'x'"),
    ("0 1\n 0\tx #y\n", "non-integer labels in '0\\tx'"),
    ("p 4 2\n0 1\n", "header declares 2 edges, file has 1 edge lines"),
    ("p 2 1\n0 5\n", "header declares 2 vertices, file has 3"),
    ("c hi\np edge 3 2\np edge 4 2 # dup\n", "second DIMACS header: 'p edge 4 2'"),
    ("p edge 3 x\n", "bad DIMACS header: 'p edge 3 x'"),
    ("p col 3\n", "bad DIMACS header: 'p col 3'"),
    ("p edge 3 1\ne 1 2 3\n", "bad DIMACS edge line: 'e 1 2 3'"),
    ("p edge 3 1\n e 1 b # label\n", "non-integer labels in 'e 1 b'"),
    ("p edge 3 1\ne 0 1\n", "DIMACS labels are 1-based: 'e 0 1'"),
    ("p edge 3 1\n0 1\n", "unrecognized DIMACS line: '0 1'"),
    ("0 1\ne 1 2\n", "unrecognized DIMACS line: '0 1'"),
    ("p edge 3 2\ne 1 2\n", "header declares 2 edges, file has 1 edge lines"),
    ("p edge 2 1\ne 1 7\n", "header declares 2 vertices, file has 3"),
]


@pytest.mark.parametrize("text, message", MESSAGES)
def test_parse_error_messages_read_exactly(text, message):
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert str(info.value) == message


def test_parse_rejects_negative_labels():
    with pytest.raises(GraphError, match=r"^negative vertex label in edge \(-1,2\)$"):
        parse_graph("-1 2\n")


def test_header_counts_duplicate_lines_which_then_collapse():
    g = parse_graph("p 3 2\n0 1\n0 1\n")
    assert (g.n, g.m) == (3, 1)
    g = parse_graph("p edge 3 2\ne 1 2\ne 2 1\n")
    assert (g.n, g.m) == (3, 1)


def test_header_may_declare_isolated_vertices():
    g = parse_graph("p 6 1\n0 1\n")
    assert (g.n, g.m) == (6, 1)


def test_parse_rejects_loop():
    with pytest.raises(LoopInInput, match="^self loop at vertex 3$"):
        parse_graph("3 3\n")


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_graph("0 1 2 3\n")


def test_write_is_deterministic_and_round_trips():
    g = gen.petersen()
    text = write_graph_text(g)
    again = write_graph_text(parse_graph(text))
    assert text == again
    assert text.splitlines()[0] == "p 10 15"


def test_round_trip_preserves_isolated_vertices():
    g = gen.empty(5)
    text = write_graph_text(g)
    h = parse_graph(text)
    assert h.n == 5 and h.m == 0
    assert write_graph_text(h) == text


def test_read_vertex_set(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("1\n3\n# comment\n5\n")
    assert read_vertex_set(str(p)) == {1, 3, 5}
    p.write_text("1\n3 4 # two\n")
    with pytest.raises(ParseError) as info:
        read_vertex_set(str(p))
    assert str(info.value) == "bad vertex id line: '3 4 # two\\n'"


def test_non_utf8_files_raise_parse_error(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"\xff\xfe\x00bad")
    for read in (read_graph, read_vertex_set):
        with pytest.raises(ParseError, match="not UTF-8"):
            read(str(p))
