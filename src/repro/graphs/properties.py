"""Structural graph properties used by verification and the exact solver.

Includes cut-vertex detection (the pieces each vertex's removal leaves
give a cheap lower bound on the achievable spanning-tree degree) and
small-n Hamiltonian-path testing (Δ* = 2 iff a Hamiltonian path exists).
"""

from __future__ import annotations

from ..errors import GraphError, NotConnectedError
from .graph import Graph
from .traversal import is_connected

__all__ = [
    "articulation_points",
    "has_hamiltonian_path",
    "min_degree_lower_bound",
    "bridges",
    "split_counts",
]


def split_counts(graph: Graph) -> tuple[int, dict[int, int]]:
    """``(c(G), {v: c(G − v)})``: the number of connected components of
    G, and of G with each vertex removed, in one iterative Hopcroft–Tarjan
    lowlink pass, O(n + m).

    In v's DFS tree, every child c with ``low[c] >= disc[v]`` hangs off v
    alone, a non-root v also keeps the part above it, and the other
    components of G are untouched.
    """
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    split: dict[int, int] = {}
    components = 0
    for root in graph.nodes():
        if root in disc:
            continue
        components += 1
        disc[root] = low[root] = len(disc)
        split[root] = 0
        stack = [(root, None, iter(graph.neighbors(root)))]
        while stack:
            u, parent, it = stack[-1]
            for v in it:
                if v not in disc:
                    disc[v] = low[v] = len(disc)
                    split[v] = 1
                    stack.append((v, u, iter(graph.neighbors(v))))
                    break
                if v != parent and disc[v] < low[u]:
                    low[u] = disc[v]
            else:
                stack.pop()
                if parent is not None:
                    if low[u] < low[parent]:
                        low[parent] = low[u]
                    if low[u] >= disc[parent]:
                        split[parent] += 1
    return components, {v: c + components - 1 for v, c in split.items()}


def articulation_points(graph: Graph) -> set[int]:
    """Articulation points (cut vertices): removing one adds a component."""
    components, splits = split_counts(graph)
    return {v for v, c in splits.items() if c > components}


def bridges(graph: Graph) -> set[tuple[int, int]]:
    """Bridge edges (canonical form) via an edge-based lowlink walk."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    out: set[tuple[int, int]] = set()
    timer = 0
    for start in graph.nodes():
        if start in disc:
            continue
        parent[start] = None
        disc[start] = low[start] = timer
        timer += 1
        stack = [(start, iter(sorted(graph.neighbors(start))))]
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                if v not in disc:
                    parent[v] = u
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append((v, iter(sorted(graph.neighbors(v)))))
                    advanced = True
                    break
                elif v != parent[u]:
                    low[u] = min(low[u], disc[v])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] > disc[p]:
                        out.add((min(p, u), max(p, u)))
    return out


def has_hamiltonian_path(graph: Graph, node_limit: int = 20) -> bool:
    """Exact Hamiltonian-path test (Held–Karp bitmask DP, O(2^n · n^2)).

    Refuses graphs above *node_limit* nodes — use
    :mod:`repro.sequential.exact` heuristics beyond that.
    """
    n = graph.n
    if n > node_limit:
        raise GraphError(f"has_hamiltonian_path limited to {node_limit} nodes, got {n}")
    if n == 0:
        return False
    if n == 1:
        return True
    if not is_connected(graph):
        return False
    nodes = graph.nodes()
    index = {u: i for i, u in enumerate(nodes)}
    adj_mask = [0] * n
    for u in nodes:
        for v in graph.neighbors(u):
            adj_mask[index[u]] |= 1 << index[v]
    full = (1 << n) - 1
    # reach[mask] = bitmask of possible end vertices of a path visiting mask
    reach = [0] * (1 << n)
    for i in range(n):
        reach[1 << i] = 1 << i
    for mask in range(1, full + 1):
        ends = reach[mask]
        if not ends:
            continue
        if mask == full:
            return True
        rest = full & ~mask
        e = ends
        while e:
            i = (e & -e).bit_length() - 1
            e &= e - 1
            nxt = adj_mask[i] & rest
            w = nxt
            while w:
                j = (w & -w).bit_length() - 1
                w &= w - 1
                reach[mask | (1 << j)] |= 1 << j
    return bool(reach[full])


def min_degree_lower_bound(graph: Graph) -> int:
    """A cheap lower bound on Δ*, the minimum over spanning trees of the
    maximum degree, in O(n + m):

    * any tree on n >= 3 nodes has a vertex of degree >= 2;
    * if removing vertex v splits G into c components, every spanning
      tree must route all c of them through v, so deg_T(v) >= c (the
      singleton case of the Fürer–Raghavachari witness sets).
    """
    if graph.n == 0:
        raise GraphError("empty graph")
    components, splits = split_counts(graph)
    if components > 1:
        raise NotConnectedError("lower bound defined for connected graphs")
    return max(2 if graph.n >= 3 else 0, *splits.values())
