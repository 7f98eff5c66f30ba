"""Undirected graph instances used to build combinatorial cost functions.

A graph is its node count and its edge list of sorted 0-based pairs
`i < j` (no self-loops, no repeats); algorithms read one neighbour index
built from it, so memory is O(nodes + edges).  Node ids are 1-based in
the text and JSON interchange formats and 0-based everywhere else.
"""

from __future__ import annotations

import operator
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .errors import PreconditionError

__all__ = [
    "GraphInstance",
    "parse_graph_text",
    "parse_graph_json",
    "path_graph",
    "cycle_graph",
    "clique_graph",
    "star_graph",
    "empty_graph",
    "random_graph",
]


def _checked_edges(node_count: int, pairs, base: int) -> list[tuple[int, int]]:
    """Sorted 0-based edge list of `pairs`, whose ids start at `base`; refusals
    name the pair as given, so a file's 1-based ids stay 1-based."""
    if node_count < 1:  # checked before anything is stored per node
        raise PreconditionError("graph needs at least one node")
    seen = set()
    for i, j in pairs:
        i, j = operator.index(i), operator.index(j)
        if not (base <= i < node_count + base and base <= j < node_count + base):
            raise PreconditionError(f"edge ({i}, {j}) outside {base}..{node_count - 1 + base}")
        if i == j:
            raise PreconditionError(f"self-loop at node {i}")
        key = (min(i, j) - base, max(i, j) - base)
        if key in seen:
            raise PreconditionError(f"duplicate edge ({i}, {j})")
        seen.add(key)
    return sorted(seen)


@dataclass(eq=False)
class GraphInstance:
    """A simple undirected graph on ``node_count`` nodes; `edges` are given
    with ids from `base` on (1 from the parsers) and stored 0-based."""

    node_count: int
    edges: list[tuple[int, int]] = field(repr=False)
    base: InitVar[int] = 0

    def __post_init__(self, base):
        self.node_count = operator.index(self.node_count)
        self.edges = _checked_edges(self.node_count, self.edges, base)

    @classmethod
    def from_edges(cls, node_count: int, edges) -> "GraphInstance":
        """Build from an iterable of 0-based ``(i, j)`` pairs."""
        return cls(node_count, edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """`neighbors[i]` is node i's ascending neighbour ids."""
        nbrs = [[] for _ in range(self.node_count)]
        for i, j in self.edges:  # sorted pairs append in ascending order
            nbrs[i].append(j)
            nbrs[j].append(i)
        return tuple(map(tuple, nbrs))

    @property
    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 int64 matrix, built on each call: an O(n^2)
        view for independent checks on small graphs, read by no algorithm."""
        a = np.zeros((self.node_count, self.node_count), dtype=np.int64)
        for i, j in self.edges:
            a[i, j] = a[j, i] = 1
        return a


def parse_graph_text(text: str) -> GraphInstance:
    """Parse the plain-text format: first line ``d m``, then ``m`` lines ``i j``.

    Node ids on edge lines are 1-based; blank lines and lines that start
    with ``#`` after their indentation are skipped.
    """
    lines = [s for s in map(str.strip, text.splitlines()) if s and not s.startswith("#")]
    if not lines:
        raise ValueError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"expected header 'd m', got {lines[0]!r}")
    d, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, file has {len(lines) - 1}")
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    return GraphInstance(d, pairs, 1)


def parse_graph_json(obj: dict) -> GraphInstance:
    """Parse the JSON form ``{"node_count": d, "edges": [[i, j], ...]}``:
    integer fields, edge ids 1-based as in the text format."""
    if not isinstance(obj, dict):
        raise ValueError("graph must be a JSON object")
    missing = [name for name in ("node_count", "edges") if name not in obj]
    if missing:
        raise ValueError(f"graph field {missing[0]!r} is missing")
    edges = obj["edges"]
    if not (isinstance(edges, list) and all(isinstance(e, list) and len(e) == 2 for e in edges)):
        raise ValueError("graph field 'edges' must be a list of [i, j] pairs")
    d, pairs = obj["node_count"], [tuple(e) for e in edges]
    for name, values in (("node_count", [d]), ("edges", [v for e in pairs for v in e])):
        if not all(type(v) is int for v in values):  # refuses floats and booleans
            raise ValueError(f"graph field {name!r} must hold integers")
    return GraphInstance(d, pairs, 1)


def path_graph(n: int) -> GraphInstance:
    return GraphInstance.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> GraphInstance:
    if n < 3:
        raise PreconditionError("cycle needs at least 3 nodes")
    return GraphInstance.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def clique_graph(n: int) -> GraphInstance:
    return GraphInstance.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    )


def star_graph(n: int) -> GraphInstance:
    """Node 0 is the hub, nodes 1..n-1 are leaves."""
    return GraphInstance.from_edges(n, [(0, i) for i in range(1, n)])


def empty_graph(n: int) -> GraphInstance:
    return GraphInstance.from_edges(n, [])


def random_graph(n: int, p: float, seed: int) -> GraphInstance:
    """Erdos-Renyi G(n, p) with a fixed seed."""
    rng = np.random.default_rng(seed)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return GraphInstance.from_edges(n, edges)
