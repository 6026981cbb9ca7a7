"""Structural graph properties used by the paper.

The unison substrate and the SSME analysis rely on a handful of graph
parameters (Section 4.1):

* ``diam(g)`` — the diameter, used both in the clock size
  ``K = (2n-1)(diam(g)+1)+2`` and in the privileged predicate;
* ``hole(g)`` — the length of a longest *hole* (longest chordless cycle) if
  the graph contains a cycle, ``2`` otherwise; the unison of Boulinier et al.
  requires ``alpha >= hole(g) - 2``;
* ``cyclo(g)`` — the cyclomatic characteristic (length of the maximal cycle
  of a shortest maximal cycle basis) if the graph contains a cycle, ``2``
  otherwise; the unison requires ``K > cyclo(g)``;
* ``lcp(g)`` — the length of a longest elementary chordless path, which
  appears in the synchronous unison bound ``alpha + lcp(g) + diam(g)`` used
  in Case 3 of the Theorem 2 proof.

``hole`` and ``lcp`` are NP-hard in general; we compute them exactly by
bounded backtracking (fine for the experiment sizes, tens of vertices) and
fall back on the paper's own bound ``<= n`` when the search budget is
exhausted.  ``cyclo`` is approximated from above by the longest fundamental
cycle of a BFS-tree cycle basis, which is all the paper needs
(``cyclo(g) <= n`` justifies ``K > n``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..exceptions import GraphError
from ..types import VertexId
from .graph import Graph

__all__ = [
    "all_pairs_distances",
    "eccentricity",
    "diameter",
    "diameter_endpoints",
    "radius",
    "center",
    "girth",
    "is_tree",
    "is_ring",
    "has_cycle",
    "cyclomatic_number",
    "fundamental_cycles",
    "hole_length",
    "cyclomatic_characteristic_upper_bound",
    "longest_chordless_path_length",
    "GraphProfile",
    "profile",
]

#: Default number of backtracking node expansions allowed for the exact
#: (exponential) chordless-cycle / chordless-path searches before falling
#: back to the ``n`` upper bound.
DEFAULT_SEARCH_BUDGET = 200_000


def _require_connected(graph: Graph) -> None:
    if not graph.is_connected():
        raise GraphError("this property is only defined for connected graphs")


def all_pairs_distances(graph: Graph) -> Dict[VertexId, Dict[VertexId, int]]:
    """All-pairs shortest-path distances (BFS from every vertex)."""
    return {v: graph.bfs_distances(v) for v in graph.vertices}


def eccentricity(graph: Graph, v: VertexId) -> int:
    """Maximum distance from ``v`` to any other vertex."""
    _require_connected(graph)
    dist = graph.bfs_distances(v)
    return max(dist.values()) if dist else 0


def diameter(graph: Graph) -> int:
    """``diam(g)``: the maximum distance between two vertices."""
    _require_connected(graph)
    if graph.n == 0:
        return 0
    return max(eccentricity(graph, v) for v in graph.vertices)


def diameter_endpoints(graph: Graph) -> Tuple[VertexId, VertexId]:
    """A pair of vertices ``(u, v)`` with ``dist(u, v) = diam(g)``.

    The lower-bound construction of Theorem 4 starts from such a pair.
    """
    _require_connected(graph)
    if graph.n == 0:
        raise GraphError("empty graph has no diameter endpoints")
    best: Tuple[int, VertexId, VertexId] = (-1, graph.vertices[0], graph.vertices[0])
    for u in graph.vertices:
        dist = graph.bfs_distances(u)
        for v, d in dist.items():
            if d > best[0]:
                best = (d, u, v)
    return best[1], best[2]


def radius(graph: Graph) -> int:
    """Minimum eccentricity over the vertices."""
    _require_connected(graph)
    if graph.n == 0:
        return 0
    return min(eccentricity(graph, v) for v in graph.vertices)


def center(graph: Graph) -> List[VertexId]:
    """Vertices whose eccentricity equals the radius."""
    _require_connected(graph)
    if graph.n == 0:
        return []
    ecc = {v: eccentricity(graph, v) for v in graph.vertices}
    rad = min(ecc.values())
    return [v for v in graph.vertices if ecc[v] == rad]


def girth(graph: Graph) -> Optional[int]:
    """Length of a shortest cycle, or ``None`` if the graph is acyclic.

    Computed by BFS from every vertex, which is exact for unweighted graphs
    up to the standard plus-one ambiguity resolved by the edge-rooted BFS
    below.
    """
    best: Optional[int] = None
    for u, v in graph.edges:
        # Shortest cycle through edge (u, v): remove it, find dist(u, v).
        pruned = graph.without_edge(u, v)
        dist = pruned.bfs_distances(u)
        if v in dist:
            cycle_len = dist[v] + 1
            if best is None or cycle_len < best:
                best = cycle_len
    return best


def has_cycle(graph: Graph) -> bool:
    """Whether the graph contains at least one cycle."""
    components = graph.connected_components()
    # A forest has exactly n - (#components) edges.
    return graph.m > graph.n - len(components)


def is_tree(graph: Graph) -> bool:
    """Whether the graph is connected and acyclic."""
    return graph.is_connected() and graph.m == graph.n - 1


def is_ring(graph: Graph) -> bool:
    """Whether the graph is a simple cycle on all its vertices."""
    if graph.n < 3 or graph.m != graph.n:
        return False
    if not graph.is_connected():
        return False
    return all(graph.degree(v) == 2 for v in graph.vertices)


def cyclomatic_number(graph: Graph) -> int:
    """The cyclomatic number ``m - n + c`` (dimension of the cycle space)."""
    return graph.m - graph.n + len(graph.connected_components())


def fundamental_cycles(graph: Graph) -> List[List[VertexId]]:
    """Fundamental cycles induced by a BFS spanning forest.

    Each non-tree edge ``(u, v)`` yields the cycle formed by the tree paths
    from ``u`` and ``v`` to their lowest common ancestor plus the edge
    itself.  The multiset of their lengths upper-bounds the cyclomatic
    characteristic of Boulinier et al.
    """
    parent: Dict[VertexId, Optional[VertexId]] = {}
    depth: Dict[VertexId, int] = {}
    tree_edges = set()
    for root in graph.vertices:
        if root in parent:
            continue
        parent[root] = None
        depth[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                for y in graph.neighbors(x):
                    if y not in parent:
                        parent[y] = x
                        depth[y] = depth[x] + 1
                        tree_edges.add(frozenset((x, y)))
                        nxt.append(y)
            frontier = nxt

    cycles: List[List[VertexId]] = []
    for u, v in graph.edges:
        if frozenset((u, v)) in tree_edges:
            continue
        # Walk both endpoints up to their lowest common ancestor.
        pu: List[VertexId] = [u]
        pv: List[VertexId] = [v]
        a, b = u, v
        while depth[a] > depth[b]:
            a = parent[a]
            pu.append(a)
        while depth[b] > depth[a]:
            b = parent[b]
            pv.append(b)
        while a != b:
            a = parent[a]
            b = parent[b]
            pu.append(a)
            pv.append(b)
        cycle = pu + list(reversed(pv[:-1]))
        cycles.append(cycle)
    return cycles


def _longest_chordless_cycle(graph: Graph, budget: int) -> Tuple[Optional[int], bool]:
    """Exact longest chordless cycle length via backtracking.

    Returns ``(length, exact)`` where ``exact`` is False when the search
    budget was exhausted (the returned length is then only a lower bound).

    Each search grows chordless paths from a ``start`` vertex through
    vertices later in the repr order, and records a cycle whenever the new
    vertex closes back onto ``start``.  The depth-first search keeps an
    explicit stack of neighbour iterators (one per path vertex), so the
    path length — up to ``n`` on a ring — is not bounded by the
    interpreter's recursion limit.  ``touches[x]`` counts the path's
    *interior* vertices adjacent to ``x``, which makes the chordless test
    O(1).  Once the budget is exceeded no path is extended any further, but
    the candidates already on the stack are still examined (and may still
    close a longer cycle) before the search returns.
    """
    adjacency = {v: graph.neighbors(v) for v in graph.vertices}
    order = {v: idx for idx, v in enumerate(graph.sorted_vertices())}
    touches: Dict[VertexId, int] = dict.fromkeys(graph.vertices, 0)
    best: Optional[int] = None
    expansions = 0
    exact = True

    for start in graph.sorted_vertices():
        start_rank = order[start]
        closing = adjacency[start]
        for first in adjacency[start]:
            if order[first] <= start_rank:
                continue
            if expansions > budget:
                return best, False
            path = [start, first]
            on_path = {start, first}
            stack = [iter(adjacency[first])]
            while stack:
                for w in stack[-1]:
                    if order[w] <= start_rank or w in on_path:
                        continue
                    expansions += 1
                    # Chordless condition: w may only touch the path at its
                    # last vertex (and possibly at start, closing a cycle).
                    if touches[w]:
                        continue
                    if w in closing:
                        length = len(path) + 1
                        if best is None or length > best:
                            best = length
                        continue
                    if expansions > budget:
                        exact = False
                        continue
                    # Extend: the current last vertex becomes interior.
                    for x in adjacency[path[-1]]:
                        touches[x] += 1
                    path.append(w)
                    on_path.add(w)
                    stack.append(iter(adjacency[w]))
                    break
                else:
                    stack.pop()
                    on_path.discard(path.pop())
                    if len(path) >= 2:
                        for x in adjacency[path[-1]]:
                            touches[x] -= 1
            if not exact:
                return best, False
    return best, exact


def hole_length(graph: Graph, budget: int = DEFAULT_SEARCH_BUDGET) -> int:
    """``hole(g)``: length of a longest chordless cycle, or ``2`` if acyclic.

    When the exact search exceeds ``budget`` node expansions the paper's own
    bound ``hole(g) <= n`` is returned instead (which is always safe for
    choosing the unison parameter ``alpha = n``).
    """
    if not has_cycle(graph):
        return 2
    length, exact = _longest_chordless_cycle(graph, budget)
    if not exact:
        return max(length or 2, graph.n) if length is not None else graph.n
    # A graph with a cycle always has a chordless cycle.
    assert length is not None
    return length


def cyclomatic_characteristic_upper_bound(graph: Graph) -> int:
    """An upper bound on ``cyclo(g)``.

    ``cyclo(g)`` is the length of the longest cycle in a *shortest* maximal
    cycle basis; any particular maximal cycle basis therefore upper-bounds
    it.  We use the BFS fundamental-cycle basis, and clamp by ``n`` (the
    bound the paper itself uses to argue ``K > n >= cyclo(g)``).  For acyclic
    graphs the value is ``2`` by definition.
    """
    if not has_cycle(graph):
        return 2
    cycles = fundamental_cycles(graph)
    longest = max((len(c) for c in cycles), default=2)
    return min(longest, graph.n)


def longest_chordless_path_length(graph: Graph, budget: int = DEFAULT_SEARCH_BUDGET) -> int:
    """``lcp(g)``: number of edges of a longest elementary chordless path.

    Used by the synchronous unison bound ``alpha + lcp(g) + diam(g)`` quoted
    in Case 3 of the Theorem 2 proof.  Falls back to ``n`` when the search
    budget is exhausted.

    An explicit-stack depth-first search (no recursion limit on long paths):
    ``touches[w]`` counts the interior path vertices adjacent to ``w``, so
    the chordless test is O(1).  Every extension of a path counts as one
    node expansion; the search gives up, returning ``n``, as soon as the
    count exceeds ``budget``.
    """
    adjacency = {v: graph.neighbors(v) for v in graph.vertices}
    touches: Dict[VertexId, int] = dict.fromkeys(graph.vertices, 0)
    best = 0
    expansions = 0

    for start in graph.sorted_vertices():
        if expansions > budget:
            return graph.n
        path = [start]
        on_path = {start}
        stack = [iter(adjacency[start])]
        extended = [False]
        while stack:
            for w in stack[-1]:
                # Chordless condition: w may only touch the path at its
                # last vertex.
                if w in on_path or touches[w]:
                    continue
                expansions += 1
                if expansions > budget:
                    return graph.n
                extended[-1] = True
                # Extend: the current last vertex becomes interior.
                for x in adjacency[path[-1]]:
                    touches[x] += 1
                path.append(w)
                on_path.add(w)
                stack.append(iter(adjacency[w]))
                extended.append(False)
                break
            else:
                stack.pop()
                if not extended.pop():
                    best = max(best, len(path) - 1)
                on_path.discard(path.pop())
                if path:
                    for x in adjacency[path[-1]]:
                        touches[x] -= 1
    return best


class GraphProfile:
    """A bundle of the structural parameters the protocols care about.

    Computing ``hole``/``lcp`` can be expensive, so :func:`profile` lets the
    caller opt out of the exact searches.
    """

    __slots__ = (
        "n",
        "m",
        "diameter",
        "radius",
        "girth",
        "is_tree",
        "is_ring",
        "hole",
        "cyclo_upper_bound",
        "lcp",
    )

    def __init__(
        self,
        n: int,
        m: int,
        diameter_: int,
        radius_: int,
        girth_: Optional[int],
        is_tree_: bool,
        is_ring_: bool,
        hole: Optional[int],
        cyclo_upper_bound: Optional[int],
        lcp: Optional[int],
    ) -> None:
        self.n = n
        self.m = m
        self.diameter = diameter_
        self.radius = radius_
        self.girth = girth_
        self.is_tree = is_tree_
        self.is_ring = is_ring_
        self.hole = hole
        self.cyclo_upper_bound = cyclo_upper_bound
        self.lcp = lcp

    def as_dict(self) -> Dict[str, object]:
        """A plain-dict view, convenient for table rendering."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        fields = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"GraphProfile({fields})"


def profile(graph: Graph, exact_np_hard: bool = True) -> GraphProfile:
    """Compute a :class:`GraphProfile` for a connected graph."""
    _require_connected(graph)
    return GraphProfile(
        n=graph.n,
        m=graph.m,
        diameter_=diameter(graph),
        radius_=radius(graph),
        girth_=girth(graph),
        is_tree_=is_tree(graph),
        is_ring_=is_ring(graph),
        hole=hole_length(graph) if exact_np_hard else None,
        cyclo_upper_bound=cyclomatic_characteristic_upper_bound(graph),
        lcp=longest_chordless_path_length(graph) if exact_np_hard else None,
    )
