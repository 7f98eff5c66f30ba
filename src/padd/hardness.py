"""Graph-based surplus maximization and its exact rounding.

For a graph with adjacency A the concave cost
`c(x) = sum_i min(sum_j A_ji x_j, x_i)` turns the surplus
`U(x) = sum_i x_i - c(x)` on the unit box into a maximum-independent-set
objective: the best achievable surplus equals the MIS size, attained at
the 0/1 indicator of a maximum independent set.

`derandomize` rounds a fractional point to a binary one without losing
surplus.  On binary vectors each term reduces to "node active and no
neighbor active", so under independent per-coordinate randomization the
expected surplus has the closed form `sum_i p_i * prod_{j ~ i} (1 - p_j)`.
Fixing coordinates one at a time toward the larger conditional expectation
is carried out in exact rational arithmetic, making the dominance
`U(rounded) >= U(fractional)` exact rather than Monte-Carlo approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError
from .funcs import MAX_ENUM_DIM as MAX_ENUM_NODES, GraphMinCost
from .graphs import GraphInstance
from .gridopt import worker_count

__all__ = [
    "RoundingState",
    "build_cost",
    "surplus_U",
    "surplus_exact",
    "brute_force_max",
    "mis_brute_force",
    "derandomize",
    "MAX_ENUM_NODES",
]

_CHUNK = 1 << 16


def build_cost(g: GraphInstance) -> GraphMinCost:
    """The concave per-node min(neighbor mass, own mass) cost of the graph."""
    return GraphMinCost(g)


def _check_unit_box(g: GraphInstance, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (g.node_count,):
        raise PreconditionError(
            f"point has dimension {x.shape}, graph has {g.node_count} nodes"
        )
    if np.any(x < 0) or np.any(x > 1):
        raise PreconditionError("coordinates must lie in [0, 1]")
    return x


def surplus_exact(g: GraphInstance, x) -> Fraction:
    """`U(x) = sum_i [x_i - min(sum_j A_ji x_j, x_i)]` in exact rationals."""
    xf = [Fraction(v) for v in _check_unit_box(g, x)]
    a = g.adjacency
    total = Fraction(0)
    for i in range(g.node_count):
        s = sum((xf[j] for j in np.nonzero(a[:, i])[0]), Fraction(0))
        total += xf[i] - min(s, xf[i])
    return total


def surplus_U(g: GraphInstance, x) -> float:
    return float(surplus_exact(g, x))


def _binary_rows(start: int, stop: int, d: int) -> np.ndarray:
    """Rows `start..stop` of the 0/1 cube, coordinate 1 as the high bit."""
    masks = np.arange(start, stop, dtype=np.int64)
    shifts = np.arange(d - 1, -1, -1)
    return ((masks[:, None] >> shifts[None, :]) & 1).astype(np.int8)


def _chunk_ranges(d: int):
    total = 1 << d
    for start in range(0, total, _CHUNK):
        yield start, min(start + _CHUNK, total)


def _scan_chunks(d: int, score_chunk, threads: int):
    """Deterministic max over the cube: larger score, then smaller row index."""
    if d > MAX_ENUM_NODES:
        raise PreconditionError(f"enumeration capped at {MAX_ENUM_NODES} nodes")
    def eval_range(rng):
        start, stop = rng
        scores = score_chunk(_binary_rows(start, stop, d))
        j = int(np.argmax(scores))  # first max in the chunk = lex-smallest
        return int(scores[j]), start + j

    ranges = list(_chunk_ranges(d))
    if threads > 1 and len(ranges) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(eval_range, ranges))
    else:
        results = [eval_range(r) for r in ranges]
    best_val, best_idx = results[0]
    for val, idx in results[1:]:
        if val > best_val or (val == best_val and idx < best_idx):
            best_val, best_idx = val, idx
    return best_val, best_idx


def brute_force_max(g: GraphInstance) -> tuple[int, np.ndarray]:
    """Exact max of the surplus over the unit box, by 0/1 enumeration.

    The surplus is convex (linear revenue minus concave cost), so the
    maximum sits at a cube vertex; the value is the number of active nodes
    with no active neighbor.  Returns the lexicographically smallest
    maximizer.
    """
    d = g.node_count
    a = g.adjacency.astype(np.int64)

    def score(bits: np.ndarray) -> np.ndarray:
        b = bits.astype(np.int64)
        neigh = b @ a
        return (b & (neigh == 0)).sum(axis=1)

    val, idx = _scan_chunks(d, score, worker_count())
    argmax = _binary_rows(idx, idx + 1, d)[0].astype(float)
    return int(val), argmax


def mis_brute_force(g: GraphInstance) -> int:
    """Maximum independent set size by subset enumeration.

    Independent oracle for `brute_force_max`: a subset scores its size when
    it spans no edge, else -1.
    """
    d = g.node_count
    a = g.adjacency.astype(np.int64)

    def score(bits: np.ndarray) -> np.ndarray:
        b = bits.astype(np.int64)
        internal_edges = np.einsum("ij,ij->i", b @ a, b)
        sizes = b.sum(axis=1)
        return np.where(internal_edges == 0, sizes, -1)

    val, _ = _scan_chunks(d, score, worker_count())
    return int(val)


@dataclass
class RoundingState:
    """Per-coordinate Bernoulli marginals during derandomized rounding.

    Probabilities are exact rationals; a coordinate counts as fixed once
    its probability is exactly 0 or 1.
    """

    graph: GraphInstance
    probs: list

    @classmethod
    def from_fractional(cls, g: GraphInstance, x) -> "RoundingState":
        x = _check_unit_box(g, x)
        return cls(graph=g, probs=[Fraction(v) for v in x])

    def is_fixed(self, i: int) -> bool:
        return self.probs[i] == 0 or self.probs[i] == 1

    def fix(self, i: int, value: int) -> None:
        self.probs[i] = Fraction(int(value))

    def expected_surplus(self) -> Fraction:
        """`E[U] = sum_i p_i * prod_{j ~ i} (1 - p_j)` under independence."""
        a = self.graph.adjacency
        total = Fraction(0)
        for i in range(self.graph.node_count):
            term = self.probs[i]
            if term == 0:
                continue
            for j in np.nonzero(a[:, i])[0]:
                term *= 1 - self.probs[j]
                if term == 0:
                    break
            total += term
        return total


def derandomize(g: GraphInstance, xbar) -> np.ndarray:
    """Round a fractional point to a binary one with no surplus loss.

    Walks the coordinates in index order, fixing each to the choice with the
    larger exact conditional expected surplus (ties fix to 1).  Coordinates
    that are already exactly 0 or 1 are left untouched, so binary inputs
    round-trip unchanged.  Guarantees `U(result) >= U(xbar)` exactly.
    """
    state = RoundingState.from_fractional(g, xbar)
    for i in range(g.node_count):
        if state.is_fixed(i):
            continue
        state.fix(i, 1)
        e1 = state.expected_surplus()
        state.fix(i, 0)
        e0 = state.expected_surplus()
        if e1 >= e0:
            state.fix(i, 1)
    return np.array([float(p) for p in state.probs])
