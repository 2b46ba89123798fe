"""graph6 and plain edge-list codecs.

graph6 is the compact printable encoding used by small-graph corpora: an
order prefix followed by the upper adjacency triangle in column-major order,
packed six bits per character with a +63 offset.  Orders 63 and 64 use the
standard four-character order prefix.  Decoding is strict: stray characters,
wrong payload length, and nonzero padding bits are all rejected, by one
function, ``graph6_edge_mask``.  The payload is the graph's
``core.edge_mask``, the one bit-order mapping, in groups of six bits, each
group reversed (graph6 writes pair p-th, most significant bit first), so
``graph6_edge_mask`` reads a line's mask without building the graph; audits
key isomorphism classes by it, and ``decode_graph6`` builds the graph from it.
"""

from __future__ import annotations

from .core import MAX_ORDER, Graph, build_graph, edge_mask, mask_graph
from .errors import (
    BadCorpusSource,
    LoopEdge,
    MalformedGraph6,
    OrderTooLarge,
    ParseError,
    VertexOutOfRange,
)

_HEADER = ">>graph6<<"
_ALPHABET = "".join(map(chr, range(63, 127)))
# each six-bit payload value with its bits in reverse order
_REVERSED = tuple(int(f"{v:06b}"[::-1], 2) for v in range(64))
_CHARS = tuple(_ALPHABET[v] for v in _REVERSED)  # the payload character of six mask bits


def encode_graph6(g: Graph) -> str:
    n = g.order
    head = chr(63 + n) if n <= 62 else "~" + "".join(_ALPHABET[n >> s & 63] for s in (12, 6, 0))
    mask = edge_mask(g)
    return head + "".join([_CHARS[mask >> s & 63] for s in range(0, n * (n - 1) // 2, 6)])


def decode_graph6(text: str) -> Graph:
    return mask_graph(*graph6_edge_mask(text))


def graph6_edge_mask(text: str) -> tuple[int, int]:
    """The order and ``core.edge_mask`` of a graph6 line, without building
    the graph, after every check of the line: an optional ``>>graph6<<``
    header, the alphabet, the order prefix and cap, the payload length and
    zero padding bits.  The one validation of a graph6 line."""
    if not isinstance(text, str):
        raise MalformedGraph6(f"a graph6 line is a string, got {text!r}")
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
    mask = shift = 0
    for ch in body:
        mask |= _REVERSED[ord(ch) - 63] << shift
        shift += 6
    return n, mask


def graph6_lines(text: str, source: str) -> tuple[str, ...]:
    """The stripped, non-blank lines of the graph6 file *source*, read as
    *text*; ``BadCorpusSource`` if there are none."""
    lines = tuple(ln.strip() for ln in text.splitlines() if ln.strip())
    if not lines:
        raise BadCorpusSource(f"{source} holds no graphs")
    return lines


def parse_edgelist(text: str) -> Graph:
    """Parse ``n m`` followed by m lines ``u v`` (0-based labels)."""
    if not isinstance(text, str):
        raise ParseError(f"an edge list is a string, got {text!r}")
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
