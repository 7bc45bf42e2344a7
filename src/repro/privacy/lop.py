"""The Loss-of-Privacy (LoP) metric and its empirical estimator.

Equation 1: ``LoP = P(C | R, IR) − P(C | R)`` for a claim ``C`` about a
node's value, where ``R`` is the public final result and ``IR`` the
intermediate results the adversary observed.

The empirical estimator (derivation in DESIGN.md §4) scores, per trial, the
claim an adversary can actually make: the successor of node *i* observes the
vector ``G_i(r)`` and claims node *i* holds (one of) its values.

* If the claimed value appears in the final result ``R``, the paper's
  convention applies: every node is equally likely to hold a final-result
  value (``P(C|R) = 1/n``) and observing it mid-protocol proves nothing
  more, so the contribution is **0**.
* Otherwise ``P(C|R) ≈ 0`` (the public domain is large), and the indicator
  *"the claim is true"* — i.e. the observed vector really contains the
  node's value — averaged over trials estimates ``P(C | R, IR)``.

A node's per-round LoP averages over the data items it participates with
(its local top-k vector; a single value for max).  Its overall LoP is the
**maximum** over rounds ("that gives us a measure of the highest level of
knowledge an adversary can obtain", Section 5.3).  System-level numbers are
the mean (average case) or max (worst case) over nodes.

Every estimator here reads one :class:`LopTable` — the whole node × round
table of a result, built by :func:`lop_table` in a single pass over its
token observations.  Membership is tested against a sorted copy of each
observed vector (:func:`sorted_members` / :func:`count_members`), so a node-round
costs O(k log k) instead of the O(k²) of scanning every pair.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from math import isclose

from ..core.results import ProtocolResult

#: Tolerances of :func:`count_members`; they match
#: :meth:`repro.experiments.series.Series.y_at`.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def sorted_members(values: Iterable[float]) -> list[float]:
    """A sorted, NaN-free copy of ``values``, the probe set of :func:`member`.

    NaN is close to nothing (``math.isclose`` is false for it on either
    side), so dropping it changes no answer and keeps the order total.
    """
    return sorted([v for v in values if v == v])


def count_members(items: Iterable[float], members: Sequence[float]) -> int:
    """How many ``items`` are tolerant members of a :func:`sorted_members` list.

    The values ``math.isclose`` (at :data:`REL_TOL` / :data:`ABS_TOL`) to an
    item form an interval around it, so if any member is close, one of the
    two members bracketing the item is: a bisection plus at most two
    ``isclose`` calls decides each item.
    """
    hits = 0
    size = len(members)
    for item in items:
        i = bisect_left(members, item)
        if (
            i < size and isclose(item, members[i], rel_tol=REL_TOL, abs_tol=ABS_TOL)
        ) or (
            i > 0 and isclose(item, members[i - 1], rel_tol=REL_TOL, abs_tol=ABS_TOL)
        ):
            hits += 1
    return hits


def member(item: float, members: Sequence[float]) -> bool:
    """Tolerant float membership against a :func:`sorted_members` list."""
    return count_members((item,), members) == 1


def value_in(item: float, values: Iterable[float]) -> bool:
    """Tolerant float membership: is ``item`` (an ulp or two close to) a value?

    Protocol vectors accumulate float arithmetic — AVG divisions, noise
    perturbation, encode/decode round-trips — so a node's data item can
    differ from its occurrence in an observed vector by rounding alone.
    Exact ``in`` would then under-count exposure (a claim that *is* true
    scored as false), silently biasing every LoP estimate downward.
    """
    return member(item, sorted_members(values))


def item_round_lop(
    item: float,
    output_vector: Sequence[float],
    final_result: Sequence[float],
) -> float:
    """Per-trial LoP contribution of one data item in one round."""
    if value_in(item, final_result):
        return 0.0
    return 1.0 if value_in(item, output_vector) else 0.0


@dataclass(frozen=True)
class LopTable:
    """One result's LoP per node and round — every estimator's single source.

    ``cells[node][round]`` holds the node's mean item LoP for each round it
    forwarded a token; a round it sent nothing in (e.g. it crashed) exposed
    nothing new and reads as 0.
    """

    #: Ring order: the order of every per-node aggregate and sum.
    nodes: tuple[str, ...]
    #: Rounds with token traffic, ascending.
    rounds: tuple[int, ...]
    cells: dict[str, dict[int, float]]

    def round_lop(self, node: str, round_number: int) -> float:
        """Mean LoP over the node's participating items for one round."""
        return self.cells[node].get(round_number, 0.0)

    def node_lop(self, node: str) -> float:
        """The node's overall LoP: its peak per-round LoP across the run."""
        cells = self.cells[node]
        return max((cells.get(r, 0.0) for r in self.rounds), default=0.0)

    def node_lops(self) -> dict[str, float]:
        """Node -> peak LoP, in ring order."""
        return {node: self.node_lop(node) for node in self.nodes}

    def round_average(self, round_number: int) -> float:
        """Mean LoP over all nodes for one round (0 for a silent round)."""
        nodes = self.nodes
        return sum(self.round_lop(n, round_number) for n in nodes) / len(nodes)

    def average(self) -> float:
        """System average-case LoP: mean over nodes of each node's peak."""
        return sum(self.node_lop(n) for n in self.nodes) / len(self.nodes)

    def worst_case(self) -> float:
        """System worst-case LoP: the most-exposed node's peak."""
        return max(self.node_lop(n) for n in self.nodes)


def lop_table(result: ProtocolResult) -> LopTable:
    """Build ``result``'s node × round LoP table in one pass over its log.

    Which items can score at all (those not in the final result) is decided
    once per node; each round's output vector is then sorted once and every
    remaining item bisected into it.  When a node sent several tokens in one
    round, the last one is the round's output.
    """
    outputs: dict[str, dict[int, tuple[float, ...]]] = {}
    rounds: set[int] = set()
    for obs in result.event_log:
        if obs.kind != "token":
            continue
        outputs.setdefault(obs.sender, {})[obs.round] = obs.vector
        if obs.round > 0:
            rounds.add(obs.round)
    final = sorted_members(result.final_vector)
    cells: dict[str, dict[int, float]] = {}
    for node, items in result.local_vectors.items():
        row: dict[int, float] = {}
        cells[node] = row
        if not items:
            continue
        scoring = [v for v in items if not member(v, final)]
        size = len(items)
        for round_number, vector in outputs.get(node, {}).items():
            observed = sorted_members(vector) if scoring else []
            row[round_number] = count_members(scoring, observed) / size
    return LopTable(
        nodes=tuple(result.ring_order), rounds=tuple(sorted(rounds)), cells=cells
    )


def node_round_lop(result: ProtocolResult, node: str, round_number: int) -> float:
    """Mean LoP over the node's participating items for one round."""
    return lop_table(result).round_lop(node, round_number)


def node_lop(result: ProtocolResult, node: str) -> float:
    """The node's overall LoP: its peak per-round LoP across the run."""
    return lop_table(result).node_lop(node)


def per_round_average_lop(result: ProtocolResult) -> dict[int, float]:
    """Round -> mean LoP over all nodes (the Figure 7 quantity, one trial)."""
    table = lop_table(result)
    return {r: table.round_average(r) for r in table.rounds}


def average_lop(result: ProtocolResult) -> float:
    """System average-case LoP: mean over nodes of each node's peak LoP."""
    return lop_table(result).average()


def worst_case_lop(result: ProtocolResult) -> float:
    """System worst-case LoP: the most-exposed node's peak LoP."""
    return lop_table(result).worst_case()
