"""Algorithm 2: the randomized local algorithm for privacy-preserving top-k.

Executed by node *i* at round *r* on the incoming global vector
``G_{i-1}(r)`` and the node's local top-k vector ``V_i``:

1. compute the *real* current top-k ``G_i'(r) = topK(G_{i-1}(r) ∪ V_i)``;
2. ``V_i' = G_i'(r) − G_{i-1}(r)`` (multiset difference) — the node's values
   that actually contribute; ``m = |V_i'|``;
3. ``m = 0``: pass ``G_{i-1}(r)`` on unchanged;
4. ``m > 0``: with probability ``1 − P_r(r)`` return the real ``G_i'(r)``
   (at most once per run — afterwards the node passes vectors on);
   with probability ``P_r(r)`` keep the first ``k − m`` values of
   ``G_{i-1}(r)`` and fill the last ``m`` slots with a sorted list of random
   values drawn from
   ``[min(G_i'(r)[k] − δ, G_{i-1}(r)[k−m+1]),  G_i'(r)[k])``.

The random range is the crux: its upper end is *strictly below* the smallest
value of the real current top-k, so every injected value is guaranteed to be
displaced by the node's own (or a larger) real value in a later round; its
lower end pushes the global vector as high as possible to shield downstream
nodes.  With ``m = k`` this degenerates to replacing the whole vector with
random values between ``G_{i-1}(r)[1]`` and ``V_i[k]`` exactly as the paper
describes.  When ``k = 1`` the algorithm reduces to Algorithm 1.

A reproduction finding worth recording: the paper's "only does this once"
rule is *load-bearing for correctness*, not merely a privacy optimization.
A node that naively re-runs the merge in a later round cannot distinguish
its own previously-inserted values inside ``G_{i-1}(r)`` from equal values
owned by other nodes, so the multiset union ``G ∪ V_i`` double-counts them
and the global vector silently fills with duplicates.  The optional
re-insertion mode (``insert_once=False``) therefore tracks the multiset of
values this node has already inserted and excludes copies of them that are
still present in the incoming vector before merging.
"""

from __future__ import annotations

import random
from collections import Counter

from ..database.query import Domain
from .params import ProtocolParams
from .vectors import merge_topk, multiset_difference, validate_vector


class ProbabilisticTopKAlgorithm:
    """Per-node state and local computation for the general top-k protocol."""

    def __init__(
        self,
        local_values: list[float],
        k: int,
        params: ProtocolParams,
        domain: Domain,
        rng: random.Random,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if len(local_values) > k:
            raise ValueError(
                f"local vector holds {len(local_values)} values; the node must "
                f"participate with its local top-{k} only"
            )
        self.k = k
        self.local_values = sorted((float(v) for v in local_values), reverse=True)
        self.params = params
        self.domain = domain
        self.rng = rng
        self.has_inserted = False
        #: Multiset of own values already inserted into the global vector;
        #: used by the re-insertion mode to avoid double-counting itself.
        self._inserted: Counter = Counter()
        #: The same insertions keyed by the round they happened in; crash
        #: recovery needs to surgically forget one round's insertions.
        self._inserted_by_round: dict[int, Counter] = {}
        #: Diagnostic counters for tests and the experiment harness.
        self.randomized_rounds: list[int] = []
        self.revealed_round: int | None = None

    def rearm(self, discard_from: int | None = None) -> None:
        """Allow the node to contribute again after a token loss.

        Recovery re-sends a token that no longer carries this node's
        insertions from round ``discard_from`` on — a retransmission of the
        stalled round erases that round's, a crash restart from round 1
        erases all — so the driver passes ``discard_from`` and this node
        forgets those insertions (they are provably not in the re-sent
        vector, so keeping them would make the node mis-attribute another
        party's equal value as its own surviving copy and never re-insert).
        Insertions from earlier rounds persist in the re-sent vector and
        stay tracked, which prevents double-counting them.
        """
        self.has_inserted = False
        if discard_from is None:
            return
        for round_number in [r for r in self._inserted_by_round if r >= discard_from]:
            self._inserted.subtract(self._inserted_by_round.pop(round_number))
        self._inserted = +self._inserted  # drop zero/negative entries

    def _mergeable_values(self, g_prev: list[float]) -> list[float]:
        """Own values eligible for the merge.

        Each own copy already present in the incoming vector — and known to
        have been inserted by this node — is excluded, otherwise the multiset
        union would count it twice.  (Under the paper's insert-once rule the
        node normally never merges again after inserting, so this tracking
        only activates after a crash-recovery re-arm or in the explicit
        re-insertion mode.)
        """
        if not self._inserted:
            return self.local_values
        in_vector = Counter(g_prev)
        mine_unaccounted = Counter(self._inserted)
        eligible = []
        for value in self.local_values:
            if mine_unaccounted[value] > 0 and in_vector[value] > 0:
                mine_unaccounted[value] -= 1
                in_vector[value] -= 1
                continue  # my copy is already circulating
            eligible.append(value)
        return eligible

    def compute(self, incoming: list[float], round_number: int) -> list[float]:
        validate_vector(incoming, self.k)
        g_prev = list(incoming)
        if self.params.insert_once and self.has_inserted:
            # The paper's "a node only does this once" rule: after revealing
            # its real merged top-k, the node passes vectors on unchanged.
            return g_prev
        real_topk = merge_topk(g_prev, self._mergeable_values(g_prev), self.k)
        contributed = multiset_difference(real_topk, g_prev)
        m = len(contributed)
        if m == 0:
            # Case 1: nothing of ours belongs in the current top-k.
            return g_prev
        p_r = self.params.probability(round_number)
        if self.rng.random() >= p_r:
            self.has_inserted = True
            self._inserted.update(contributed)
            per_round = self._inserted_by_round.setdefault(round_number, Counter())
            per_round.update(contributed)
            if self.revealed_round is None:
                self.revealed_round = round_number
            return real_topk
        self.randomized_rounds.append(round_number)
        return self._randomized_output(g_prev, real_topk, m)

    def _randomized_output(
        self, g_prev: list[float], real_topk: list[float], m: int
    ) -> list[float]:
        """The probability-``P_r`` branch of Algorithm 2."""
        k = self.k
        kth_real = real_topk[k - 1]  # G_i'(r)[k], 1-based in the paper
        anchor = g_prev[k - m]  # G_{i-1}(r)[k-m+1], 1-based in the paper
        low = min(kth_real - self.params.delta, anchor)
        low = max(low, self.domain.low)  # never inject out-of-domain values
        high = kth_real
        if low >= high:
            # Possible only when kth_real crowds the domain floor; the range
            # the paper prescribes is empty, so the only correct-and-safe
            # noise is the domain floor itself (still < any real contributor).
            noise = [self.domain.low] * m
        else:
            noise = [
                self.params.noise.draw(
                    self.rng, low, high, integral=self.domain.integral
                )
                for _ in range(m)
            ]
        head = g_prev[: k - m]
        tail = sorted(noise, reverse=True)
        output = head + tail
        # The noise is < G_i'(r)[k] <= g_prev[k-m] (the smallest kept head
        # value), so the spliced vector is sorted by construction; validate
        # rather than silently repair.
        validate_vector(output, k)
        return output
