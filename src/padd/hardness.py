"""Graph-based surplus maximization and its exact rounding.

For a graph the concave cost
`c(x) = sum_i min(sum_{j ~ i} x_j, x_i)` turns the surplus
`U(x) = sum_i x_i - c(x)` on the unit box into a maximum-independent-set
objective: the best achievable surplus equals the MIS size, attained at
the 0/1 indicator of a maximum independent set.

`derandomize` rounds a fractional point to a binary one without losing
surplus.  On binary vectors each term reduces to "node active and no
neighbor active", so under independent per-coordinate randomization the
expected surplus has the closed form `sum_i p_i * prod_{j ~ i} (1 - p_j)`.
Fixing coordinates one at a time toward the larger conditional expectation
makes the dominance `U(rounded) >= U(fractional)` exact rather than
Monte-Carlo approximate, provided each choice reads the exact sign of
`E1 - E0 = prod_{j ~ k} (1 - p_j) - sum_{i ~ k} p_i * prod_{j ~ i, j != k} (1 - p_j)`.
Fixing coordinate k moves only the terms of k and its neighbours, so that
local delta is O(deg^2) operations per coordinate.

Those operations are on integers, not rationals.  Every float in `[0, 1]`
is dyadic, so each coordinate is `P_i / 2^k_i` with integers `P_i` and
`k_i` (its own exponent, 0 for 0 and 1), and `1 - p_j` is
`(2^k_j - P_j) / 2^k_j`.  A product of such factors is an integer over 2
to the sum of their exponents; shifting each term of the delta left to
the largest exponent among the delta's terms puts them all over one power
of 2, so the integer sum has the sign of the exact delta.  `surplus_exact`
sums and takes `min` the same way, node by node.  A coordinate's own
exponent keeps one subnormal coordinate (`k = 1074`) from lengthening the
integers of every other one.

`brute_force_max` and `mis_brute_force` enumerate the `2^d` cube as uint32
subset masks in 65,536-mask chunks with bitwise popcounts; they share the
mask layout but score subsets by independent rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError
from .graphs import GraphInstance

__all__ = [
    "MAX_ENUM_DIM",
    "RoundingState",
    "surplus_U",
    "surplus_exact",
    "brute_force_max",
    "mis_brute_force",
    "derandomize",
]


def _check_unit_box(g: GraphInstance, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (g.node_count,):
        raise PreconditionError(
            f"point has dimension {x.shape}, graph has {g.node_count} nodes"
        )
    if not np.all((x >= 0) & (x <= 1)):  # also refuses NaN
        raise PreconditionError("coordinates must be finite and lie in [0, 1]")
    return x


def _dyadic(x: np.ndarray) -> tuple[list[int], list[int]]:
    """Each coordinate as `P_i / 2^k_i` in lowest terms: the numerators `P_i` and the exponents `k_i`."""
    ratios = [v.as_integer_ratio() for v in x.tolist()]
    return [num for num, _ in ratios], [den.bit_length() - 1 for _, den in ratios]


def _common_sum(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """The sum of the terms `(n, e)`, each `n / 2^e`, as a numerator over 2
    to their largest exponent, and that exponent."""
    top = max((e for _, e in terms), default=0)
    return sum(n << (top - e) for n, e in terms), top


def surplus_exact(g: GraphInstance, x) -> Fraction:
    """`U(x) = sum_i [x_i - min(sum_{j ~ i} x_j, x_i)]`, exact: each node's
    term on the largest exponent of its coordinates, then `_common_sum`."""
    p, k = _dyadic(_check_unit_box(g, x))
    terms = []
    for i, js in enumerate(g.neighbors):
        exp = max([k[i], *(k[j] for j in js)])
        own = p[i] << (exp - k[i])
        terms.append((own - min(sum(p[j] << (exp - k[j]) for j in js), own), exp))
    total, exp = _common_sum(terms)
    return Fraction(total, 1 << exp)


def surplus_U(g: GraphInstance, x) -> float:
    return float(surplus_exact(g, x))


# Subsets of the d nodes are uint32 masks with node i at bit d - 1 - i, so
# ascending masks are the 0/1 cube rows in lexicographic order.  The cap
# MAX_ENUM_DIM (<= 32) is what keeps every mask inside a uint32.
MAX_ENUM_DIM = 20
_LOW_BITS = 16


def _node_masks(g: GraphInstance) -> np.ndarray:
    """Neighbour mask of the node at each bit position (`[k]` is node d - 1 - k)."""
    d = g.node_count
    if d > MAX_ENUM_DIM:
        raise PreconditionError(f"enumeration capped at {MAX_ENUM_DIM} nodes")
    return np.array([sum(1 << (d - 1 - j) for j in js) for js in reversed(g.neighbors)], dtype=np.uint32)


def _union_table(nbr: np.ndarray) -> np.ndarray:
    """`N[m]` = union of the neighbour masks of the bits of `m`, by doubling."""
    table = np.zeros(1 << nbr.size, dtype=np.uint32)
    for k, mask in enumerate(nbr):
        table[1 << k : 2 << k] = table[: 1 << k] | mask
    return table


def _scan_chunks(d: int, score_chunk):
    """Deterministic max over the cube: larger score, then smaller mask.

    `score_chunk(h, masks)` scores one chunk of ascending masks sharing the
    bits above the low `_LOW_BITS`, `h`.
    """
    low = np.arange(1 << min(d, _LOW_BITS), dtype=np.uint32)
    best_val, best_idx = -1, 0
    for h in range(1 << max(d - _LOW_BITS, 0)):
        scores = score_chunk(h, np.uint32(h << _LOW_BITS) | low)
        j = int(np.argmax(scores))  # first max in the chunk = lex-smallest
        val = int(scores[j])
        if val > best_val:
            best_val, best_idx = val, (h << _LOW_BITS) + j
    return best_val, best_idx


def brute_force_max(g: GraphInstance) -> tuple[int, np.ndarray]:
    """Exact max of the surplus over the unit box, by 0/1 enumeration.

    The surplus is convex (linear revenue minus concave cost), so the
    maximum sits at a cube vertex; the value is the number of active nodes
    with no active neighbor, `popcount(m & ~N[m])` with `N[m]` the union of
    the active nodes' neighbour masks.  `N` is split into a table over the
    low 16 bits and one over the rest, so `N[m] = NL[low] | NH[high]`.
    Returns the lexicographically smallest maximizer.
    """
    d = g.node_count
    nbr = _node_masks(g)
    low_table = _union_table(nbr[:_LOW_BITS])
    high_table = _union_table(nbr[_LOW_BITS:])

    def score(h: int, m: np.ndarray) -> np.ndarray:
        return np.bitwise_count(m & ~(low_table | high_table[h]))

    val, idx = _scan_chunks(d, score)
    argmax = ((idx >> np.arange(d - 1, -1, -1)) & 1).astype(float)
    return val, argmax


def mis_brute_force(g: GraphInstance) -> int:
    """Maximum independent set size by subset enumeration.

    Independent oracle for `brute_force_max` (it shares no union table): a
    subset scores its size when no member's neighbour mask meets it, else -1.
    """
    nbr = _node_masks(g)

    def score(_h: int, m: np.ndarray) -> np.ndarray:
        clash = np.zeros_like(m)
        for k, mask in enumerate(nbr):
            clash |= (m & mask) * ((m >> np.uint32(k)) & np.uint32(1))
        return np.where(clash == 0, np.bitwise_count(m).astype(np.int64), -1)

    val, _ = _scan_chunks(g.node_count, score)
    return val


@dataclass
class RoundingState:
    """Per-coordinate Bernoulli marginals of a fractional point, as exact rationals."""

    graph: GraphInstance
    probs: list

    @classmethod
    def from_fractional(cls, g: GraphInstance, x) -> "RoundingState":
        x = _check_unit_box(g, x)
        return cls(graph=g, probs=[Fraction(v) for v in x])

    def expected_surplus(self) -> Fraction:
        """`E[U] = sum_i p_i * prod_{j ~ i} (1 - p_j)` under independence."""
        total = Fraction(0)
        for i, js in enumerate(self.graph.neighbors):
            term = self.probs[i]
            if term == 0:
                continue
            for j in js:
                term *= 1 - self.probs[j]
                if term == 0:
                    break
            total += term
        return total


def _scaled_none_active(q: list, k: list, nodes) -> tuple[int, int]:
    """`prod_{j in nodes} (1 - p_j)` as (numerator, exponent), `q` holding
    the numerators `2^k_j - P_j`; a zero factor makes it (0, 0)."""
    num, exp = 1, 0
    for j in nodes:
        if not q[j]:
            return 0, 0
        num *= q[j]
        exp += k[j]
    return num, exp


def _scaled_gain(p: list, q: list, k: list, node: int, nbrs: tuple) -> int:
    """`E[U | x_node = 1] - E[U | x_node = 0]` times 2 to the largest
    exponent of its terms: an integer with the gain's sign.

    `p`, `k` and `q` hold each coordinate's numerator, exponent and the
    numerator of `1 - p_j`.  The terms are node's own and one per
    neighbour i that is not 0.
    """
    near = nbrs[node]
    terms = [_scaled_none_active(q, k, near)]
    for i in near:
        if p[i]:
            num, exp = _scaled_none_active(q, k, (j for j in nbrs[i] if j != node))
            terms.append((-p[i] * num, k[i] + exp))
    return _common_sum(terms)[0]


def derandomize(g: GraphInstance, xbar) -> np.ndarray:
    """Round a fractional point to a binary one with no surplus loss.

    Walks the coordinates in index order, fixing each to the choice with the
    larger exact conditional expected surplus (ties fix to 1): the sign of
    the local delta `E1 - E0` (`_scaled_gain`), O(deg^2) operations on the
    coordinates' integer numerators per coordinate, against O(d + |E|)
    for a full `RoundingState.expected_surplus`.  Coordinates that are
    already exactly 0 or 1 (exponent 0) are left untouched, so binary
    inputs round-trip unchanged.  Guarantees `U(result) >= U(xbar)` exactly.
    """
    p, k = _dyadic(_check_unit_box(g, xbar))
    q = [(1 << e) - num for num, e in zip(p, k)]
    for node in range(g.node_count):
        if k[node]:
            one = _scaled_gain(p, q, k, node, g.neighbors) >= 0
            p[node], q[node], k[node] = (1, 0, 0) if one else (0, 1, 0)
    return np.array([float(v) for v in p])
