"""The highly-parallel MHM design of Figure 3(b).

Because modulo addition is commutative and associative, the hashing
operations accumulated into the TH register "can occur in any order.
Moreover, they can be performed in parallel in different clusters, where
partial results are accumulated in local cluster registers and only later
on merged into the TH register" (Section 3.2).  Even the (Data_old,
V_addr) and (Data_new, V_addr) halves of one store may go to *different*
clusters, and write-buffer entries may drain in any order.

:class:`ClusterBank` models that freedom explicitly: signed hash terms
are routed to clusters by an arbitrary policy, partial sums accumulate
per cluster, and :meth:`merge` folds them into the TH register.  The
property tests assert the architectural claim: the merged result is
identical for every routing and every drain order.
"""

from __future__ import annotations

import functools
import random

from repro.sim.values import MASK64

DRAIN_POLICIES = ("fifo", "lifo", "shuffle")


class ClusterBank:
    """Partial-sum registers of the parallel MHM design."""

    def __init__(self, n_clusters: int = 1, route_seed: int = 0):
        if n_clusters <= 0:
            raise ValueError("need at least one cluster")
        self.partials = [0] * n_clusters
        self._route_seed = route_seed

    @functools.cached_property
    def _rng(self) -> random.Random:
        """The routing RNG, seeded on first use: only random routing
        draws from it, and every MHM builds a bank."""
        return random.Random(self._route_seed)

    @property
    def n_clusters(self) -> int:
        return len(self.partials)

    def route(self, term: int, cluster: int | None = None) -> None:
        """Send one signed hash term to a cluster (random if unspecified)."""
        if cluster is None:
            cluster = self._rng.randrange(len(self.partials))
        self.partials[cluster] = (self.partials[cluster] + term) & MASK64

    def merge(self) -> int:
        """Fold all partial sums together and clear the bank."""
        total = 0
        for i, p in enumerate(self.partials):
            total = (total + p) & MASK64
            self.partials[i] = 0
        return total


def drain_order(n: int, policy: str, rng: random.Random) -> list:
    """Index order in which buffered write-path entries drain to the MHM."""
    order = list(range(n))
    if policy == "fifo":
        return order
    if policy == "lifo":
        return order[::-1]
    if policy == "shuffle":
        rng.shuffle(order)
        return order
    raise ValueError(f"unknown drain policy {policy!r}; choose from {DRAIN_POLICIES}")
