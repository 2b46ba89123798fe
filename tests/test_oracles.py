import ast
import random
from pathlib import Path

import pytest

from idstab import VertexSet, delete_vertices, errors, oracles
from idstab.auditor import enumerate_labeled_graphs
from idstab.families import complete, complete_bipartite, cycle, empty, friendship, gen_friendship
from idstab.ops import corona, disjoint_union, join
from idstab.oracles import _brute_max_star, _oracle_gamma, oracle_gamma_i, oracle_stability

from conftest import all_graphs, brute_gamma, brute_gamma_i, random_graph


def _reference_stability(g, memo):
    """The definition: build G - S for every removal S and filter its subsets.

    ``memo`` maps each built subgraph to its filtered gamma_i, so labeled
    subgraphs that recur are filtered once.
    """
    base = brute_gamma_i(g)
    st = {"any": None, "down": None, "up": None}
    for mask in range(1, 1 << g.order):
        sub, _ = delete_vertices(g, VertexSet(mask))
        if sub not in memo:
            memo[sub] = brute_gamma_i(sub)
        val = memo[sub]
        k = mask.bit_count()
        for key, changed in (("any", val != base), ("down", val < base), ("up", val > base)):
            if changed and (st[key] is None or k < st[key]):
                st[key] = k
    return st["any"], st["down"], st["up"]


def _six_k2():
    g = complete(2)
    for _ in range(5):
        g = disjoint_union(g, complete(2))
    return g


EDGE_GRAPHS = {
    "empty(12)": empty(12),
    "6K2": _six_k2(),
    "K12": complete(12),
    "K1,11": complete_bipartite(1, 11),
    "corona(K3,K3)": corona(complete(3), complete(3)),
    "corona(3K1,K3)": corona(empty(3), complete(3)),
    "K6,6": complete_bipartite(6, 6),
}


def _guard_graphs():
    """Coronas, friendship graphs and a cycle at or next to the order-20
    guard, each with 64 to 1,024 maximal independent sets."""
    rng = random.Random(0x20C0)
    return {
        "corona(G10,K1)": corona(random_graph(rng, 10), complete(1)),
        "corona(G5,K3)": corona(random_graph(rng, 5), complete(3)),
        "corona(5K1,K3)": corona(empty(5), complete(3)),
        "friendship(9)": friendship(9),
        "gen_friendship(4,6)": gen_friendship(4, 6),
        "C20": cycle(20),
    }


GUARD_GRAPHS = _guard_graphs()


class TestStabilityOracle:
    def test_exhaustive_order_5(self):
        memo = {}
        for g in all_graphs(5):
            assert oracle_stability(g) == _reference_stability(g, memo)

    @pytest.mark.slow
    def test_seeded_orders_7_to_12(self):
        rng = random.Random(0x51E7E)
        for n in range(7, 13):
            for _ in range(5):
                g = random_graph(rng, n)
                assert oracle_stability(g) == _reference_stability(g, {})
        for n in range(9, 13):
            # G(n - 2, 0.2) and two top vertices joined to all others
            g = join(random_graph(rng, n - 2, 0.2), complete(2))
            assert oracle_stability(g) == _reference_stability(g, {})

    @pytest.mark.parametrize("name", sorted(EDGE_GRAPHS))
    def test_edge_graphs(self, name):
        g = EDGE_GRAPHS[name]
        assert g.order == 12
        assert oracle_stability(g) == _reference_stability(g, {})


class TestGammaIFilter:
    def test_exhaustive_order_5(self):
        for g in all_graphs(5):
            assert oracle_gamma_i(g) == brute_gamma_i(g)

    @pytest.mark.slow
    def test_exhaustive_order_6(self):
        for g in enumerate_labeled_graphs(6):
            assert oracle_gamma_i(g) == brute_gamma_i(g)

    def test_seeded_orders_7_to_14(self):
        rng = random.Random(0x6A11)
        for n in range(7, 15):
            for _ in range(3):
                g = random_graph(rng, n)
                assert oracle_gamma_i(g) == brute_gamma_i(g)

    def test_seeded_orders_15_to_20(self):
        # up to the order-20 guard
        rng = random.Random(0x6A12)
        for n in range(15, 21):
            for _ in range(3):
                g = random_graph(rng, n)
                assert oracle_gamma_i(g) == brute_gamma_i(g)

    @pytest.mark.parametrize("name", sorted(EDGE_GRAPHS))
    def test_edge_graphs(self, name):
        g = EDGE_GRAPHS[name]
        assert oracle_gamma_i(g) == brute_gamma_i(g)

    @pytest.mark.parametrize(
        "name",
        [
            # gamma_i = 10: the filter tries every smaller subset of 20 first
            pytest.param(name, marks=pytest.mark.slow) if name == "corona(G10,K1)" else name
            for name in sorted(GUARD_GRAPHS)
        ],
    )
    def test_guard_graphs(self, name):
        g = GUARD_GRAPHS[name]
        assert oracle_gamma_i(g) == brute_gamma_i(g)


class TestGammaFilter:
    def test_exhaustive_order_5(self):
        for g in all_graphs(5):
            assert _oracle_gamma(g) == brute_gamma(g)

    @pytest.mark.slow
    def test_exhaustive_order_6(self):
        for g in enumerate_labeled_graphs(6):
            assert _oracle_gamma(g) == brute_gamma(g)

    def test_seeded_orders_7_to_20(self):
        rng = random.Random(0x6A13)
        for n in range(7, 21):
            for _ in range(3):
                g = random_graph(rng, n)
                assert _oracle_gamma(g) == brute_gamma(g)

    @pytest.mark.parametrize("name", sorted(EDGE_GRAPHS))
    def test_edge_graphs(self, name):
        g = EDGE_GRAPHS[name]
        assert _oracle_gamma(g) == brute_gamma(g)

    @pytest.mark.parametrize("name", sorted(GUARD_GRAPHS))
    def test_guard_graphs(self, name):
        g = GUARD_GRAPHS[name]
        assert _oracle_gamma(g) == brute_gamma(g)


@pytest.mark.parametrize("oracle", [_oracle_gamma, _brute_max_star])
def test_null_graph_rejected_like_the_solvers(oracle):
    with pytest.raises(errors.EmptyGraph):
        oracle(empty(0))


def _package_imports(source):
    """The idstab modules a source imports, by name ("" for the package itself)."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                names = [node.module]
            elif node.module:
                names = ["idstab." + node.module]
            else:
                names = ["idstab." + alias.name for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "idstab":
                imported.add(parts[1] if len(parts) > 1 else "")
    return imported


def test_imports_only_core_and_errors():
    assert _package_imports(Path(oracles.__file__).read_text()) <= {"core", "errors"}


def test_import_parser_catches_solver_code():
    for line in (
        "from .solver import gamma_i",
        "from . import stability",
        "from idstab.solver import gamma_i",
        "import idstab.stability",
        "import idstab",
    ):
        assert not _package_imports(line) <= {"core", "errors"}, line
    assert _package_imports("from .core import Graph\nimport itertools") == {"core"}
