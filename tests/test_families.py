import inspect
import itertools

import pytest

from idstab import FamilySpec, errors, families, generate, parse_family_spec
from idstab.core import iter_bits
from idstab.families import (
    book,
    complete,
    complete_bipartite,
    cycle,
    double_star,
    friendship,
    gen_friendship,
    path,
    petersen,
    star,
)


def test_friendship_one_triangle_is_c3():
    assert friendship(1) == cycle(3)


def test_friendship_equals_gen_friendship_q3():
    for n in range(1, 8):
        assert friendship(n) == gen_friendship(3, n)


def test_book_2():
    b = book(2)
    assert b.order == 6 and b.edge_count == 7
    # two quadrilateral pages sharing the spine edge 0-1
    assert sorted(b.edges()) == [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (4, 5)]


def test_gen_friendship_order():
    g = gen_friendship(4, 2)
    assert g.order == 7
    for q in range(3, 9):
        for n in range(1, 5):
            assert gen_friendship(q, n).order == n * (q - 1) + 1


def test_gen_friendship_petals_share_only_hub():
    g = gen_friendship(5, 3)
    assert g.degree(0) == 6  # two hub edges per petal
    for v in range(1, g.order):
        assert g.degree(v) == 2


def test_double_star():
    g = double_star(2, 3)
    assert g.order == 7
    non_leaves = [v for v in range(g.order) if g.degree(v) > 1]
    assert non_leaves == [0, 1]
    assert (g.adj[0] >> 1) & 1  # the two centers are adjacent


def test_order_and_size_formulas():
    for n in range(1, 12):
        assert path(n).order == n and path(n).edge_count == n - 1
    for n in range(3, 12):
        assert cycle(n).edge_count == n
    for m in range(1, 12):
        assert star(m).order == m + 1 and star(m).edge_count == m
    for a in range(1, 6):
        for b in range(1, 6):
            g = double_star(a, b)
            assert g.order == a + b + 2 and g.edge_count == a + b + 1
    for m in range(1, 6):
        for n in range(1, 6):
            g = complete_bipartite(m, n)
            assert g.order == m + n and g.edge_count == m * n
    for n in range(1, 10):
        g = friendship(n)
        assert g.order == 2 * n + 1 and g.edge_count == 3 * n
    for q in range(3, 8):
        for n in range(1, 4):
            assert gen_friendship(q, n).edge_count == q * n
    for n in range(2, 10):
        g = book(n)
        assert g.order == 2 * n + 2 and g.edge_count == 3 * n + 1


def test_book_minus_spine_is_perfect_matching():
    from idstab import VertexSet, delete_vertices

    for n in range(2, 8):
        b = book(n)
        prof = [b.degree(v) for v in range(b.order)]
        spine = [v for v in range(b.order) if prof[v] == n + 1]
        assert spine == [0, 1]
        rest, _ = delete_vertices(b, VertexSet.of(spine))
        assert rest.order == 2 * n
        assert all(rest.degree(v) == 1 for v in range(rest.order))


def test_petersen_fixture():
    g = petersen()
    assert g.order == 10 and g.edge_count == 15
    assert all(g.degree(v) == 3 for v in range(10))


def test_star_center_labeling():
    g = star(5)
    assert g.degree(0) == 5


def test_parse_and_text_roundtrip():
    for text in ["path:7", "book:3", "gfriend:4,2", "dstar:2,3", "kbip:3,2", "petersen", "cycle:5"]:
        spec = parse_family_spec(text)
        assert spec.to_text() == text
        generate(spec)
    assert parse_family_spec("double_star:2,3") == parse_family_spec("dstar:2,3")


def test_spec_validation():
    for bad in ["cycle:2", "book:1", "gfriend:2,1", "star:0", "path:0", "dstar:0,1", "kbip:0,2"]:
        with pytest.raises(errors.SpecInvalid):
            parse_family_spec(bad)
    with pytest.raises(errors.SpecInvalid):
        parse_family_spec("wheel:5")
    with pytest.raises(errors.SpecInvalid):
        parse_family_spec("path:x")
    with pytest.raises(errors.SpecInvalid):
        FamilySpec("path", (1, 2))
    for params in ((2.5,), ("3",), (True,)):  # only ints: generate would fail on these
        with pytest.raises(errors.SpecInvalid, match="must be integers"):
            FamilySpec("path", params)


def test_spec_of_the_wrong_types():
    for kind, params in ((["path"], (1,)), ("path", 7), ("path", None)):
        with pytest.raises(errors.SpecInvalid, match="a kind name and a tuple"):
            FamilySpec(kind, params)
    assert FamilySpec("path", [3]) == FamilySpec("path", (3,))


def test_parse_rejects_what_is_not_text():
    with pytest.raises(errors.SpecInvalid, match="line of text, got None"):
        parse_family_spec(None)


def test_order_cap():
    parse_family_spec("path:64")
    with pytest.raises(errors.OrderTooLarge):
        parse_family_spec("path:65")
    with pytest.raises(errors.OrderTooLarge):
        parse_family_spec("friend:32")
    with pytest.raises(errors.OrderTooLarge):
        parse_family_spec("book:32")


def test_complete_and_empty():
    assert complete(0).order == 0
    assert complete(4).edge_count == 6
    assert generate(FamilySpec("empty", (5,))).edge_count == 0


# (kind, short name, least parameters, the message for a parameter below them)
KIND_CASES = [
    ("empty", "empty", (0,), "order must be >= 0"),
    ("complete", "complete", (0,), "order must be >= 0"),
    ("path", "path", (1,), "path needs n >= 1"),
    ("cycle", "cycle", (3,), "cycle needs n >= 3"),
    ("star", "star", (1,), "star needs at least one leaf"),
    ("double_star", "dstar", (1, 1), "double star needs a, b >= 1"),
    ("complete_bipartite", "kbip", (1, 1), "complete bipartite needs m, n >= 1"),
    ("friendship", "friend", (1,), "friendship needs n >= 1"),
    ("gen_friendship", "gfriend", (3, 1), "generalized friendship needs q >= 3 and n >= 1"),
    ("book", "book", (2,), "book needs n >= 2"),
    ("petersen", "petersen", (), None),
]


def _text(name, params):
    return f"{name}:{','.join(str(x) for x in params)}" if params else name


def _raises(error, message, make):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("kind, short, least, need", KIND_CASES, ids=[c[0] for c in KIND_CASES])
def test_every_registered_kind(kind, short, least, need):
    build = getattr(families, kind)
    for params in itertools.product(*(range(low, low + 3) for low in least)):
        spec = FamilySpec(kind, params)
        assert spec.to_text() == _text(short, params)
        for name in (kind, short):
            again = parse_family_spec(_text(name, params))
            assert again == spec and again.to_text() == spec.to_text()
        g = generate(spec)
        assert spec.order() == g.order == families.family_order(kind, params)
        assert build(*params) == g
    for i in range(len(least)):
        low = least[:i] + (least[i] - 1,) + least[i + 1 :]
        message = f"{_text(short, low)}: {need}"
        _raises(errors.SpecInvalid, message, lambda: parse_family_spec(_text(kind, low)))
        _raises(errors.SpecInvalid, message, lambda: FamilySpec(short, low))
        _raises(errors.SpecInvalid, message, lambda: build(*low))
    for wrong in (least + (5,), least[:-1]) if least else ((5,),):
        message = f"{kind} takes {len(least)} parameter(s), got {len(wrong)}"
        _raises(errors.SpecInvalid, message, lambda: FamilySpec(kind, wrong))
        _raises(errors.SpecInvalid, message, lambda: parse_family_spec(_text(short, wrong)))


def test_constructors_keep_their_names_and_checks():
    assert list(inspect.signature(star).parameters) == ["leaves"]
    assert list(inspect.signature(gen_friendship).parameters) == ["q", "n"]
    assert book.__name__ == "book" and petersen.__name__ == "petersen"
    assert double_star(a=2, b=3) == double_star(2, 3)
    _raises(errors.SpecInvalid, "path:0: path needs n >= 1", lambda: path(0))
    _raises(errors.OrderTooLarge, "book:32 has order 66 (cap 64)", lambda: book(32))
    _raises(errors.SpecInvalid, "unknown family kind 'wheel'", lambda: FamilySpec("wheel", (5,)))
    with pytest.raises(TypeError):
        path(3, 4)
