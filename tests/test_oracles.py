import ast
import random
from pathlib import Path

import pytest

from idstab import VertexSet, delete_vertices, errors, oracles
from idstab.auditor import enumerate_labeled_graphs
from idstab.families import complete, complete_bipartite, empty
from idstab.ops import corona, disjoint_union
from idstab.oracles import _brute_gamma, _brute_max_star, oracle_gamma_i, oracle_stability

from conftest import all_graphs, brute_gamma_i, random_graph


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
}


class TestStabilitySieve:
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


@pytest.mark.parametrize("oracle", [_brute_gamma, _brute_max_star])
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
