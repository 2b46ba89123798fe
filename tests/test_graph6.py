import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idstab import errors
from idstab.auditor import enumerate_labeled_graphs
from idstab.codec import (
    decode_graph6,
    emit_edgelist,
    encode_graph6,
    graph6_edge_mask,
    parse_edgelist,
)
from idstab.core import build_graph, edge_mask, mask_graph, upper_triangle_pairs
from idstab.families import book, complete, empty, friendship, path, petersen, star

from conftest import all_graphs, random_graph


class TestGraph6:
    def test_known_encodings(self):
        assert encode_graph6(empty(0)) == "?"
        assert encode_graph6(path(2)) == "A_"
        assert encode_graph6(path(3)) == "Bg"

    def test_known_decodings(self):
        assert decode_graph6("?") == empty(0)
        assert decode_graph6("A_") == path(2)
        assert decode_graph6("Bg") == path(3)

    def test_roundtrip_exhaustive_order_5(self):
        for g in all_graphs(5):
            assert decode_graph6(encode_graph6(g)) == g

    def test_roundtrip_families(self):
        for g in (petersen(), book(6), friendship(10), star(20), complete(12)):
            assert decode_graph6(encode_graph6(g)) == g

    def test_length_formula(self):
        for n in range(0, 63):
            g = empty(n)
            assert len(encode_graph6(g)) == 1 + -(-(n * (n - 1) // 2) // 6)

    def test_multibyte_orders(self):
        for g in (empty(63), empty(64), star(63), complete(63)):
            text = encode_graph6(g)
            assert text.startswith("~")
            assert decode_graph6(text) == g

    def test_header_tolerated(self):
        assert decode_graph6(">>graph6<<Bg") == path(3)

    def test_malformed(self):
        with pytest.raises(errors.MalformedGraph6):
            decode_graph6("")
        with pytest.raises(errors.MalformedGraph6):
            decode_graph6("B")  # truncated payload
        with pytest.raises(errors.MalformedGraph6):
            decode_graph6("Bgg")  # payload too long
        with pytest.raises(errors.MalformedGraph6):
            decode_graph6("B!g")  # character below the alphabet
        with pytest.raises(errors.MalformedGraph6):
            decode_graph6("Bi")  # nonzero padding bits
        with pytest.raises(errors.MalformedGraph6):
            decode_graph6("~?")  # truncated order prefix

    def test_order_too_large(self):
        # order 66 in the multi-byte form
        with pytest.raises(errors.OrderTooLarge):
            decode_graph6("~?@B")
        with pytest.raises(errors.OrderTooLarge):
            decode_graph6("~~?")

    @given(st.integers(0, 16), st.data())
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_random(self, n, data):
        pairs = list(upper_triangle_pairs(n))
        edges = [p for p in pairs if data.draw(st.booleans())]
        g = build_graph(n, edges)
        assert decode_graph6(encode_graph6(g)) == g


def _decode_by_edges(text):
    """``decode_graph6`` as it ended before: the payload bits as an edge list
    through ``build_graph``.  Valid input only."""
    if text[0] == "~":
        n = ((ord(text[1]) - 63) << 12) | ((ord(text[2]) - 63) << 6) | (ord(text[3]) - 63)
        body = text[4:]
    else:
        n = ord(text[0]) - 63
        body = text[1:]
    need = len(body)
    bits = 0
    for ch in body:
        bits = (bits << 6) | (ord(ch) - 63)
    edges = []
    for idx, (i, j) in enumerate(upper_triangle_pairs(n)):
        if (bits >> (need * 6 - 1 - idx)) & 1:
            edges.append((i, j))
    return build_graph(n, edges)


def _encode_by_pairs(g):
    """``encode_graph6`` as it ended before: the pairs of
    ``upper_triangle_pairs`` walked one by one and packed six bits at a
    time, most significant bit first."""
    n = g.order
    if n <= 62:
        out = [chr(63 + n)]
    else:
        out = ["~", chr(63 + (n >> 12 & 63)), chr(63 + (n >> 6 & 63)), chr(63 + (n & 63))]
    buf = 0
    nbits = 0
    for i, j in upper_triangle_pairs(n):
        buf = (buf << 1) | (g.adj[j] >> i & 1)
        nbits += 1
        if nbits == 6:
            out.append(chr(63 + buf))
            buf = 0
            nbits = 0
    if nbits:
        out.append(chr(63 + (buf << (6 - nbits))))
    return "".join(out)


def _seeded_graphs(seed):
    """Seeded graphs of order 7..64, orders 62, 63 and 64 among them."""
    rng = random.Random(seed)
    graphs = [random_graph(rng, n, p) for n in (62, 63, 64) for p in (0.05, 0.5, 0.95)]
    graphs += [random_graph(rng, rng.randint(7, 64)) for _ in range(40)]
    return graphs + [empty(64), complete(64), complete(62), star(63)]


class TestEncodeByMask:
    def test_every_graph_of_order_6(self):
        for g in [empty(0)] + list(all_graphs(6)):
            assert encode_graph6(g) == _encode_by_pairs(g)

    def test_seeded_orders_7_to_64(self):
        for g in _seeded_graphs(0xE6):
            assert encode_graph6(g) == _encode_by_pairs(g)


class TestDirectDecode:
    def test_every_graph_of_order_6(self):
        for g in [empty(0)] + list(all_graphs(6)):
            text = encode_graph6(g)
            assert decode_graph6(text) == _decode_by_edges(text) == g

    def test_multibyte_and_random_orders(self):
        rng = random.Random(0x96)
        graphs = [random_graph(rng, n, p) for n in (63, 64) for p in (0.05, 0.5, 0.95)]
        graphs += [random_graph(rng, rng.randint(7, 62)) for _ in range(30)]
        for g in graphs:
            text = encode_graph6(g)
            assert decode_graph6(text) == _decode_by_edges(text) == g


def _rows_mask(g):
    """The edge mask of *g* read off its rows: pair p of
    ``upper_triangle_pairs`` is bit p."""
    pairs = upper_triangle_pairs(g.order)
    return sum(1 << p for p, (i, j) in enumerate(pairs) if g.adj[j] >> i & 1)


class TestEdgeMask:
    def test_core_mapping_matches_the_rows(self):
        for g in [empty(0)] + list(all_graphs(6)) + _seeded_graphs(0xA5):
            mask = _rows_mask(g)
            assert edge_mask(g) == mask
            assert mask_graph(g.order, mask) == g

    def test_mask_past_the_last_pair_refused(self):
        assert mask_graph(3, 0b111) == complete(3)
        for n, mask in ((3, 0b1000), (1, 1), (0, 1), (4, -1)):
            with pytest.raises(ValueError, match="bits beyond"):
                mask_graph(n, mask)

    def test_every_graph_of_order_6(self):
        for n in range(1, 7):
            for mask, g in enumerate(enumerate_labeled_graphs(n)):
                assert graph6_edge_mask(encode_graph6(g)) == (n, mask)

    def test_headers_and_other_orders(self):
        rng = random.Random(0x6D)
        graphs = [empty(0), empty(1), complete(8), star(63), complete(64)]
        graphs += [random_graph(rng, rng.randint(7, 64)) for _ in range(30)]
        for g in graphs:
            text = encode_graph6(g)
            assert graph6_edge_mask(text) == (g.order, _rows_mask(g))
            assert graph6_edge_mask(f" >>graph6<<{text}\n") == (g.order, _rows_mask(g))


# one line per check of the shared validation
_MALFORMED = [
    ("", errors.MalformedGraph6),  # empty
    (">>graph6<<", errors.MalformedGraph6),  # empty after the header
    ("B!g", errors.MalformedGraph6),  # stray character below the alphabet
    ("Bg\x7f", errors.MalformedGraph6),  # stray character above it
    ("B", errors.MalformedGraph6),  # payload too short
    ("Bgg", errors.MalformedGraph6),  # payload too long
    ("Bi", errors.MalformedGraph6),  # nonzero padding bits
    ("~~?", errors.OrderTooLarge),  # the 8-byte order prefix
    ("~?", errors.MalformedGraph6),  # truncated 4-byte order prefix
    ("~?@B", errors.OrderTooLarge),  # order 66
    (None, errors.MalformedGraph6),  # not a string
    (b"A_", errors.MalformedGraph6),  # bytes, not a string
]


@pytest.mark.parametrize("text,error", _MALFORMED)
def test_both_readers_reject_alike(text, error):
    caught = []
    for reader in (decode_graph6, graph6_edge_mask):
        with pytest.raises(error) as info:
            reader(text)
        caught.append((type(info.value), str(info.value)))
    assert caught[0] == caught[1]


class TestEdgeList:
    def test_parse_p3(self):
        assert parse_edgelist("3 2\n0 1\n1 2\n") == path(3)

    def test_parse_k1(self):
        assert parse_edgelist("1 0\n") == empty(1)

    def test_blank_edge_line_skipped(self):
        assert parse_edgelist("2 1\n\n0 1\n") == path(2)

    def test_loop_rejected_with_line(self):
        with pytest.raises(errors.LoopEdge) as err:
            parse_edgelist("2 1\n0 0\n")
        assert "line 2" in str(err.value)

    def test_vertex_out_of_range(self):
        with pytest.raises(errors.VertexOutOfRange):
            parse_edgelist("2 1\n0 5\n")

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(errors.ParseError):
            parse_edgelist("")
        with pytest.raises(errors.ParseError):
            parse_edgelist("3\n")
        with pytest.raises(errors.ParseError, match="^line 1: header values must be integers$"):
            parse_edgelist("a b")
        with pytest.raises(errors.ParseError, match="^line 1: header values must be non-negative$"):
            parse_edgelist("-1 0")
        with pytest.raises(errors.ParseError) as err:
            parse_edgelist("3 2\n0 1\n")
        assert "expected 2 edges" in str(err.value)
        with pytest.raises(errors.ParseError) as err:
            parse_edgelist("3 1\n0 1 2\n")
        assert "line 2" in str(err.value)
        with pytest.raises(errors.ParseError):
            parse_edgelist("3 1\n0 x\n")
        with pytest.raises(errors.ParseError):
            parse_edgelist("3 1\n0 1\n1 2\n")

    @pytest.mark.parametrize("text", [None, b"1 0\n", 3])
    def test_non_string_rejected(self, text):
        with pytest.raises(errors.ParseError, match="an edge list is a string"):
            parse_edgelist(text)

    def test_roundtrip(self):
        for g in (path(5), petersen(), empty(3), book(3)):
            assert parse_edgelist(emit_edgelist(g)) == g

    def test_emit_sorts_edges(self):
        g = build_graph(3, [(2, 1), (1, 0)])
        assert emit_edgelist(g) == "3 2\n0 1\n1 2\n"
