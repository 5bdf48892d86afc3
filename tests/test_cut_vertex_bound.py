"""The cut-vertex lower bound on Δ* and the lowlink pass behind it.

``split_counts`` replaced a per-vertex subgraph rebuild; the rebuild is
kept here as the reference definition, and the bound is pinned on every
instance the built-in campaign reports on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, NotConnectedError
from repro.graphs import Graph, articulation_points, connected_components, star
from repro.graphs.generators import make_family
from repro.graphs.properties import min_degree_lower_bound, split_counts
from repro.scenarios import builtin_campaign, scenario_names
from repro.sequential.bounds import degree_lower_bound


def reference_split(graph: Graph, v: int) -> int:
    """Components of G − v, by rebuilding G − v."""
    return len(connected_components(graph.subgraph(u for u in graph.nodes() if u != v)))


def reference_degree_lower_bound(graph: Graph) -> int:
    """The bound as first defined: rebuild G − v for every vertex v."""
    n = graph.n
    if n <= 1:
        return 0
    if n == 2:
        return 1
    lb = 2
    for v in graph.nodes():
        if graph.degree(v) > lb:
            lb = max(lb, reference_split(graph, v))
    return lb


# -- strategies ---------------------------------------------------------------

SHAPES = ("random", "star", "path", "complete")


@st.composite
def graphs(draw, connected=True):
    """Graphs on 1–14 nodes with non-contiguous ids. Connected ones hang
    every node off an earlier one first; the others may leave nodes
    isolated or in several pieces."""
    ids = draw(st.lists(st.integers(0, 999), min_size=1, max_size=14, unique=True))
    n = len(ids)
    shape = draw(st.sampled_from(SHAPES)) if connected else "random"
    pairs = [(ids[i], ids[j]) for j in range(n) for i in range(j)]
    if shape == "star":
        edges = {(ids[0], ids[j]) for j in range(1, n)}
    elif shape == "path":
        edges = {(ids[j - 1], ids[j]) for j in range(1, n)}
    elif shape == "complete":
        edges = set(pairs)
    else:
        edges = {p for p in pairs if draw(st.integers(0, 3)) == 0}
        if connected:
            edges |= {(ids[draw(st.integers(0, j - 1))], ids[j]) for j in range(1, n)}
    return Graph(nodes=ids, edges=sorted(edges))


# -- equivalence with the reference -------------------------------------------


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(graphs())
    def test_bound_equals_subgraph_rebuild(self, g):
        assert degree_lower_bound(g) == reference_degree_lower_bound(g)

    @settings(max_examples=300, deadline=None)
    @given(graphs(connected=False))
    def test_split_counts_equal_subgraph_rebuild(self, g):
        components, splits = split_counts(g)
        assert components == len(connected_components(g))
        assert splits == {v: reference_split(g, v) for v in g.nodes()}

    @settings(max_examples=300, deadline=None)
    @given(graphs(connected=False))
    def test_articulation_points_add_a_component(self, g):
        components = len(connected_components(g))
        expected = {v for v in g.nodes() if reference_split(g, v) > components}
        assert articulation_points(g) == expected


class TestOneDefinition:
    def test_report_bound_is_the_graph_bound(self):
        assert degree_lower_bound is min_degree_lower_bound

    def test_isolated_vertex_splits(self):
        g = Graph(nodes=[7, 3], edges=[(1, 2)])
        assert split_counts(g) == (3, {1: 3, 2: 3, 3: 2, 7: 2})
        assert articulation_points(g) == set()

    def test_empty_graph_has_no_pieces(self):
        assert split_counts(Graph()) == (0, {})


class TestNoSpanningTree:
    def test_empty_graph_raises(self):
        with pytest.raises(GraphError):
            degree_lower_bound(Graph())

    def test_star_with_isolated_nodes_raises(self):
        # a 3-leaf star plus 5 isolated nodes: the old loop answered 8
        g = star(4)
        for v in range(10, 15):
            g.add_node(v)
        with pytest.raises(NotConnectedError):
            degree_lower_bound(g)

    def test_two_edges_raise(self):
        with pytest.raises(NotConnectedError):
            degree_lower_bound(Graph(edges=[(0, 1), (2, 3)]))


# -- golden values --------------------------------------------------------------

#: degree_lower_bound on every unique (family, n, seed) instance of the
#: built-in campaign, recorded from the subgraph-rebuild definition
GOLDEN = {
    ("circulant", 16, 0): 2, ("circulant", 16, 1): 2, ("circulant", 16, 2): 2,
    ("complete", 12, 0): 2, ("complete", 12, 1): 2,
    ("complete", 16, 0): 2, ("complete", 16, 1): 2,
    ("complete", 20, 0): 2, ("complete", 20, 1): 2,
    ("complete", 24, 0): 2, ("complete", 24, 1): 2,
    ("geometric", 16, 0): 2, ("geometric", 16, 1): 2, ("geometric", 16, 2): 2,
    ("geometric", 24, 0): 2, ("geometric", 24, 1): 2, ("geometric", 24, 2): 2,
    ("geometric", 32, 0): 2, ("geometric", 32, 1): 2, ("geometric", 32, 2): 2,
    ("gnp_dense", 12, 0): 2, ("gnp_dense", 12, 1): 2,
    ("gnp_dense", 16, 0): 2, ("gnp_dense", 16, 1): 2,
    ("gnp_dense", 20, 0): 2, ("gnp_dense", 20, 1): 2,
    ("gnp_sparse", 16, 0): 3, ("gnp_sparse", 16, 1): 2, ("gnp_sparse", 16, 2): 3,
    ("gnp_sparse", 24, 0): 3, ("gnp_sparse", 24, 1): 2, ("gnp_sparse", 24, 2): 2,
    ("gnp_sparse", 32, 0): 3, ("gnp_sparse", 32, 1): 2, ("gnp_sparse", 32, 2): 4,
    ("pref_attach", 16, 0): 2, ("pref_attach", 16, 1): 2, ("pref_attach", 16, 2): 2,
    ("pref_attach", 24, 0): 2, ("pref_attach", 24, 1): 2, ("pref_attach", 24, 2): 2,
    ("pref_attach", 32, 0): 2, ("pref_attach", 32, 1): 2, ("pref_attach", 32, 2): 2,
    ("ring", 16, 0): 2, ("ring", 16, 1): 2, ("ring", 16, 2): 2,
}


class TestGolden:
    def test_covers_the_builtin_campaign(self):
        campaign = builtin_campaign(scenario_names())
        instances = {
            (cell.family, cell.n, cell.seed)
            for scenario in campaign.scenarios
            for cell in scenario.cells()
        }
        assert instances == GOLDEN.keys()

    @pytest.mark.parametrize("instance", sorted(GOLDEN), ids=lambda k: "-".join(map(str, k)))
    def test_pinned_value(self, instance):
        family, n, seed = instance
        assert degree_lower_bound(make_family(family, n, seed=seed)) == GOLDEN[instance]
