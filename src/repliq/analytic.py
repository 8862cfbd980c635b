"""Closed-form throughput of upfront replication policies.

A queue that never idles completes jobs at rate 1/E[service] per server
group; these helpers evaluate that rate for no replication, full
replication, and arbitrary server partitions, and search the partition
space exhaustively (guarded by the Bell-number growth).
"""

import math
import numbers
from dataclasses import dataclass

from .distributions import ServiceDistribution, _check_delta, min_expectation
from .errors import InvalidPartitionError, TooManyServersError

INF = float("inf")

PARTITION_GUARD = 5_000_000

_TIE_REL = 1e-12


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty server groups covering servers 0..K-1; errors name
    servers by their 1-based labels, as configs and output do."""

    groups: tuple

    def __post_init__(self):
        groups = tuple(frozenset(g) for g in self.groups)
        object.__setattr__(self, "groups", groups)
        if any(not g for g in groups):
            raise InvalidPartitionError("empty group")
        seen = set()
        for g in groups:
            if seen & g:
                overlap = sorted(s + 1 for s in seen & g)
                raise InvalidPartitionError(f"overlapping groups: {overlap}")
            seen |= g
        if seen != set(range(len(seen))):
            raise InvalidPartitionError(
                f"groups must cover servers 1..{len(seen)}, got {sorted(s + 1 for s in seen)}"
            )

    @property
    def k(self) -> int:
        return sum(len(g) for g in self.groups)

    def group_of(self, server: int) -> frozenset:
        for g in self.groups:
            if server in g:
                return g
        raise InvalidPartitionError(f"server {server + 1} not in partition")

    def __str__(self):
        parts = sorted(sorted(g) for g in self.groups)
        return "[" + ",".join("[" + ",".join(str(s + 1) for s in g) + "]" for g in parts) + "]"


@dataclass(frozen=True)
class ThroughputReport:
    """Total job completion rate plus the per-group rates it sums."""

    value: float
    components: tuple
    policy: str
    params: str = ""


@dataclass(frozen=True)
class HomogeneousReplication:
    """Best common replica count for identical servers and the matching rate bound."""

    r_star: int
    bound: float
    achievable_exactly: bool


def bell_number(k: int) -> int:
    """Number of set partitions of k elements."""
    b = [1]
    for n in range(1, k + 1):
        b.append(sum(math.comb(n - 1, i) * b[i] for i in range(n)))
    return b[k]


def iter_partitions(k: int):
    """All set partitions of range(k) in restricted-growth-string order:
    each server joins every open group in turn, then opens a new one."""

    def place(server, groups):
        if server == k:
            yield Partition(tuple(frozenset(g) for g in groups))
            return
        for g in groups:
            g.append(server)
            yield from place(server + 1, groups)
            g.pop()
        groups.append([server])
        yield from place(server + 1, groups)
        groups.pop()

    return place(0, [])


def throughput_norep(ds) -> ThroughputReport:
    """Each job runs on a single server: rate is the sum of 1/mean."""
    rates = tuple(1.0 / d.mean() for d in ds)
    return ThroughputReport(math.fsum(rates), rates, "norep")


def throughput_fullrep(ds, delta: float = 0.0) -> ThroughputReport:
    """Every job runs on all servers at once; siblings cancel on first finish."""
    _check_delta(delta)
    ds = list(ds)
    charge = delta if len(ds) >= 2 else 0.0
    rate = 1.0 / (charge + min_expectation(ds))
    return ThroughputReport(rate, (rate,), "fullrep", params=f"delta={delta}")


def throughput_upfront(partition: Partition, ds, delta: float = 0.0) -> ThroughputReport:
    """Static server groups, each acting as one replicated super-server.

    A singleton group never replicates, so it pays no cancellation window;
    the singleton partition therefore reproduces the no-replication rate
    exactly for any delta.
    """
    _check_delta(delta)
    ds = list(ds)
    if partition.k != len(ds):
        raise InvalidPartitionError(
            f"partition covers {partition.k} servers, config has {len(ds)}"
        )
    rates = tuple(
        1.0
        / (
            min_expectation([ds[i] for i in sorted(g)])
            + (delta if len(g) >= 2 else 0.0)
        )
        for g in partition.groups
    )
    return ThroughputReport(
        math.fsum(rates), rates, "upfront", params=str(partition)
    )


def best_partition(ds, delta: float = 0.0, guard: int = PARTITION_GUARD):
    """Exhaustive argmax over all server partitions.

    Ties go to fewer groups, then to the first partition in
    restricted-growth-string order.  Refuses when the partition count
    exceeds the guard.
    """
    ds = list(ds)
    k = len(ds)
    n_partitions = bell_number(k)
    if n_partitions > guard:
        raise TooManyServersError(
            f"{n_partitions} partitions of {k} servers exceeds guard {guard}"
        )
    best = None
    for part in iter_partitions(k):
        report = throughput_upfront(part, ds, delta)
        if best is None:
            best = (part, report)
            continue
        incumbent = best[1].value
        if report.value > incumbent * (1.0 + _TIE_REL):
            best = (part, report)
        elif report.value >= incumbent * (1.0 - _TIE_REL) and len(part.groups) < len(
            best[0].groups
        ):
            best = (part, report)
    return best


def best_homogeneous_r(d: ServiceDistribution, delta: float, k: int) -> HomogeneousReplication:
    """Best common replica count r for k identical servers.

    Minimizes the per-server job cost r * (E[min of r copies] + delta);
    ties go to the smallest r.  The returned rate k / cost is attained by a
    partition into equal groups exactly when r divides k.
    """
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"need an integer k >= 1, got {k!r}")
    _check_delta(delta)
    best_r, best_cost = None, None
    for r in range(1, k + 1):
        charge = delta if r >= 2 else 0.0
        cost = r * (min_expectation([d] * r) + charge)
        if best_cost is None or cost < best_cost * (1.0 - _TIE_REL):
            best_r, best_cost = r, cost
    return HomogeneousReplication(
        r_star=best_r,
        bound=k / best_cost,
        achievable_exactly=(k % best_r == 0),
    )
