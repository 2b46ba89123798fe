"""graph6 and plain edge-list codecs.

graph6 is the compact printable encoding used by small-graph corpora: an
order prefix followed by the upper adjacency triangle in column-major order,
packed six bits per character with a +63 offset.  Orders 63 and 64 use the
standard four-character order prefix.  Decoding is strict: stray characters,
wrong payload length, and nonzero padding bits are all rejected, by one check,
``graph6_payload``.  ``graph6_edge_mask`` reads a line's edge mask under that
same check without building the graph; audits key isomorphism classes by it.
"""

from __future__ import annotations

from .core import MAX_ORDER, Graph, build_graph, upper_triangle_pairs
from .errors import LoopEdge, MalformedGraph6, OrderTooLarge, ParseError, VertexOutOfRange

_HEADER = ">>graph6<<"
_ALPHABET = "".join(map(chr, range(63, 127)))
# each six-bit payload value with its bits in reverse order
_REVERSED = tuple(int(f"{v:06b}"[::-1], 2) for v in range(64))


def encode_graph6(g: Graph) -> str:
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


def graph6_payload(text: str) -> tuple[int, str]:
    """The order and the payload characters of a graph6 line, after every
    check of the line: an optional ``>>graph6<<`` header, the alphabet, the
    order prefix and cap, the payload length and zero padding bits.  The one
    validation of ``decode_graph6`` and ``graph6_edge_mask``."""
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise MalformedGraph6("empty graph6 string")
    stray = s.lstrip(_ALPHABET)  # from the first character outside it on
    if stray:
        raise MalformedGraph6(f"character {stray[0]!r} outside the graph6 alphabet")
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise OrderTooLarge("order needs the 8-byte prefix, far beyond the 64-vertex cap")
        if len(s) < 4:
            raise MalformedGraph6("truncated multi-byte order prefix")
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if n > MAX_ORDER:
        raise OrderTooLarge(f"decoded order {n} exceeds the {MAX_ORDER}-vertex cap")
    nbits = n * (n - 1) // 2
    need = -(-nbits // 6)
    if len(body) != need:
        raise MalformedGraph6(f"expected {need} payload characters for order {n}, got {len(body)}")
    pad = need * 6 - nbits  # the low bits of the last character
    if pad and (ord(body[-1]) - 63) & ((1 << pad) - 1):
        raise MalformedGraph6("nonzero padding bits")
    return n, body


def decode_graph6(text: str) -> Graph:
    n, body = graph6_payload(text)
    bits = 0
    for ch in body:
        bits = (bits << 6) | (ord(ch) - 63)
    rows = [0] * n
    pos = len(body) * 6  # pair (i, j) is bit pos - 1 as the loops reach it
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if bits >> pos & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def graph6_edge_mask(text: str) -> tuple[int, int]:
    """The order and edge mask of a graph6 line, checked as ``decode_graph6``
    checks it, without building the graph.  Bit p of the mask is pair p of
    ``upper_triangle_pairs``, the pair graph6 writes p-th, most significant
    bit first: the mask is the payload bits reversed."""
    n, body = graph6_payload(text)
    mask = shift = 0
    for ch in body:
        mask |= _REVERSED[ord(ch) - 63] << shift
        shift += 6
    return n, mask


def parse_edgelist(text: str) -> Graph:
    """Parse ``n m`` followed by m lines ``u v`` (0-based labels)."""
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise ParseError("line 1: expected header 'n m'")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("line 1: expected header 'n m'")
    try:
        order, count = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("line 1: header values must be integers") from None
    if order < 0 or count < 0:
        raise ParseError("line 1: header values must be non-negative")
    edges = []
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        toks = raw.split()
        if not toks:
            continue
        if len(edges) == count:
            raise ParseError(f"line {lineno}: more than {count} edge lines")
        if len(toks) != 2:
            raise ParseError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise ParseError(f"line {lineno}: vertex labels must be integers") from None
        if u == v:
            raise LoopEdge(f"line {lineno}: loop edge {u} {v}")
        if not (0 <= u < order and 0 <= v < order):
            raise VertexOutOfRange(f"line {lineno}: edge ({u}, {v}) outside 0..{order - 1}")
        edges.append((u, v))
    if len(edges) != count:
        raise ParseError(f"line {lineno}: expected {count} edges, found {len(edges)}")
    return build_graph(order, edges)


def emit_edgelist(g: Graph) -> str:
    lines = [f"{g.order} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in sorted(g.edges())]
    return "\n".join(lines) + "\n"
