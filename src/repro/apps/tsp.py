"""Traveling salesman by branch-and-bound with 1-tree lower bounds.

"The available branches, the graph, and the least upper bound are
stored in the shared virtual memory.  The program creates a process for
each processor that performs the branch-and-bound algorithm on a branch
obtained from the shared virtual memory.  These processes run in
parallel until the tour is found.  Each process is not much different
from the sequential one except it needs to access shared data
structures mutually exclusively."

Structure (matching that description):

- the initial process enumerates all depth-2 subtours into a shared
  *branch pool* (fixed-size records, LIFO, guarded by a shared binary
  lock);
- each worker repeatedly takes **one branch** from the pool and runs
  the ordinary sequential branch-and-bound over that branch's subtree
  with a private stack — shared-memory traffic is only the pool pop,
  reads of the incumbent (a read copy that stays cached until some
  improvement invalidates it — the natural DSM pattern), and the rare
  incumbent update under the lock;
- the lower bound for a partial tour is its cost plus the weight of a
  minimum spanning tree over {start, current} + the unvisited cities
  (the simplified 1-tree of the paper's reference [13]).

Because pruning depends on the racing incumbent, the search exhibits
the anomalies the paper cites [19]: node counts vary with the schedule
and speedups can exceed p.  The *result* (the optimal tour cost) is
schedule-independent and is checked against a Held-Karp exact solver.
"""

from __future__ import annotations

import struct
from typing import Any, Generator

import numpy as np

from repro.api.ivy import IvyProcessContext
from repro.apps.common import alloc_done_ec, spawn_workers, wait_done

__all__ = ["BoundTable", "TspApp", "held_karp", "mst_weight", "tree_size"]

#: Branch record: cost f64 | depth i64 | visited mask i64 | path bytes.
MAX_CITIES = 16
ENTRY_BYTES = 8 + 8 + 8 + MAX_CITIES
#: Pool header: count i64 (plus padding for alignment).
POOL_HEADER = 16
#: Simple ops per Prim-step distance comparison.
PRIM_OPS = 4
#: Branches taken from the pool per critical section (two keeps the
#: best-first order sharp while halving pool-lock traffic).
BATCH = 2
#: Re-read the shared incumbent every this many expanded nodes (the read
#: is a cached local access except right after an improvement, so it is
#: nearly free — checking every node keeps pruning sharp).
BEST_REFRESH = 1


def held_karp(w: Any) -> float:
    """Exact TSP by Held-Karp dynamic programming (golden reference).

    Pure Python over nested lists: the dp loop is scalar indexing, where
    float machinery beats numpy's per-element dispatch by an order of
    magnitude.  Update order matches the original vectorised version, so
    the result is bit-for-bit identical.
    """
    if not isinstance(w, list):
        w = w.tolist()
    n = len(w)
    full = 1 << (n - 1)
    inf = float("inf")
    dp = [[inf] * (n - 1) for _ in range(full)]
    for j in range(n - 1):
        dp[1 << j][j] = w[0][j + 1]
    for mask in range(1, full):
        row = dp[mask]
        for j in range(n - 1):
            base = row[j]
            if not mask & (1 << j) or base == inf:
                continue
            wrow = w[j + 1]
            for k in range(n - 1):
                if mask & (1 << k):
                    continue
                nxt = dp[mask | (1 << k)]
                cand = base + wrow[k + 1]
                if cand < nxt[k]:
                    nxt[k] = cand
    best = inf
    last = dp[full - 1]
    for j in range(n - 1):
        cand = last[j] + w[j + 1][0]
        if cand < best:
            best = cand
    return best


def mst_weight(w: Any, nodes: list[int]) -> float:
    """Prim's MST weight over the induced subgraph.

    ``w`` is the full weight matrix, preferably as nested Python lists
    (``ndarray.tolist()`` once per workload, not per call): this is the
    branch-and-bound inner loop, and at r <= 16 plain floats beat the
    numpy masked-argmin formulation ~20x.  The arithmetic — first-min
    selection, accumulation order, elementwise relaxation — mirrors the
    vectorised version operation for operation, so every bound (and
    therefore every pruning decision and the event schedule downstream)
    is bit-for-bit unchanged.

    The search asks for the same tree many times over (82% of the
    bounds of the 12-city Figure 5 instance repeat), so it goes through
    a :class:`BoundTable`, which calls this once per distinct node list.
    Each :meth:`TspApp.main` creates its own table: one that outlived a
    run would let a repeated run (the benchmark's back-to-back passes)
    start warm, and so time a program no user runs.
    """
    r = len(nodes)
    if r <= 1:
        return 0.0
    if not isinstance(w, list):
        w = w.tolist()
    rows = [w[i] for i in nodes]
    row0 = rows[0]
    dist = [row0[i] for i in nodes]
    in_tree = [False] * r
    in_tree[0] = True
    total = 0.0
    inf = float("inf")
    rng = range(r)
    for _ in range(r - 1):
        best = inf
        j = -1
        for k in rng:
            if not in_tree[k] and dist[k] < best:
                best = dist[k]
                j = k
        total += best
        in_tree[j] = True
        wrow = rows[j]
        for k in rng:
            v = wrow[nodes[k]]
            if v < dist[k]:
                dist[k] = v
    return total


def tree_size(n: int, visited: int) -> int:
    """Nodes in the 1-tree that bounds any one-city extension of a
    partial tour over ``visited`` (start city included): {start, next}
    plus the ``n - popcount - 1`` other unvisited cities."""
    return n + 1 - visited.bit_count()


class BoundTable(dict[int, float]):
    """One run's memo of 1-tree weights, keyed ``(visited << 4) | nxt``.

    The key fixes the exact node list the search bounds when it extends
    a tour over ``visited`` by city ``nxt`` — ``[0, nxt]`` then every
    other unvisited city in ascending order — so a hit returns the very
    float :func:`mst_weight` would (no ``visited``-only key: Prim's tie
    order depends on the list, not the set).  Lookups are plain
    ``table[key]``, so a hit runs no Python code; a miss computes the
    weight and keeps it.

    All of one run's workers share the table: memoising a pure function
    on the host moves no simulated state, and the simulated CPU charge
    comes from :func:`tree_size`, hit or miss.
    """

    def __init__(self, w: list[list[float]]) -> None:
        super().__init__()
        self.w = w
        self.n = len(w)

    def __missing__(self, key: int) -> float:
        visited, nxt = key >> 4, key & 0xF
        tree_nodes = [0, nxt] + [
            c for c in range(self.n) if not visited & (1 << c) and c != nxt
        ]
        weight = self[key] = mst_weight(self.w, tree_nodes)
        return weight


class TspApp:
    """One configured instance of the branch-and-bound TSP."""

    name = "tsp"

    def __init__(
        self, nprocs: int, ncities: int = 10, seed: int = 21, metric: str = "random"
    ) -> None:
        if not 4 <= ncities <= MAX_CITIES:
            raise ValueError(f"ncities must be in [4, {MAX_CITIES}]")
        self.nprocs = nprocs
        self.n = ncities
        rng = np.random.default_rng(seed)
        if metric == "euclidean":
            # Road-network-like instance: triangle inequality makes the
            # 1-tree bound sharp and the search shallow.
            pts = rng.uniform(0.0, 100.0, size=(ncities, 2))
            diff = pts[:, None, :] - pts[None, :, :]
            self.w = np.sqrt((diff**2).sum(axis=2))
        elif metric == "random":
            # "The cost of a tour is the sum of the weights of the edges"
            # — a general weighted graph; bounds are weaker, the search
            # deeper, which is the regime where parallel search pays.
            raw = rng.uniform(1.0, 100.0, size=(ncities, ncities))
            self.w = (raw + raw.T) / 2.0
        else:
            raise ValueError(f"unknown metric {metric!r}")
        np.fill_diagonal(self.w, 0.0)

    _golden_cache: dict = {}

    def golden(self) -> float:
        key = (self.n, self.w.tobytes())
        if key not in TspApp._golden_cache:
            TspApp._golden_cache[key] = held_karp(self.w)
        return TspApp._golden_cache[key]

    def nearest_neighbour_tour(self) -> float:
        """Greedy tour cost — the initial upper bound every run starts
        from (sequential and parallel alike, so the comparison is fair)."""
        unvisited = set(range(1, self.n))
        cur, total = 0, 0.0
        while unvisited:
            nxt = min(unvisited, key=lambda c: self.w[cur, c])
            total += float(self.w[cur, nxt])
            unvisited.remove(nxt)
            cur = nxt
        return total + float(self.w[cur, 0])

    def _seed_branches(self, bounds: BoundTable) -> list[bytes]:
        """All depth-2 subtours 0 -> b -> c, the units of parallel work,
        ordered so the most promising (smallest lower bound) is popped
        first from the LIFO pool."""
        scored = []
        wl = bounds.w
        for b in range(1, self.n):
            for c in range(1, self.n):
                if c == b:
                    continue
                cost = wl[0][b] + wl[b][c]
                # The tour over {0, b} extended by c.
                bound = cost + bounds[((1 | (1 << b)) << 4) | c]
                visited = 1 | (1 << b) | (1 << c)
                scored.append(
                    (bound, _pack_entry(cost, 3, visited, bytes([0, b, c])))
                )
        scored.sort(key=lambda t: -t[0])  # LIFO pops from the end
        return [entry for _, entry in scored]

    # ------------------------------------------------------------------

    def main(self, ctx: IvyProcessContext) -> Generator[Any, Any, float]:
        n = self.n
        w_addr = yield from ctx.malloc(8 * n * n)
        yield from ctx.write_array(w_addr, self.w)
        best_addr = yield from ctx.malloc(8)
        # Workers read the incumbent without the lock (a stale bound only
        # weakens pruning, per the paper); declare it so checked runs can
        # allowlist the race via CheckerConfig.known_races.
        ctx.declare_benign_race("tsp.best-bound", best_addr, 8)
        # Start from the nearest-neighbour tour, computed here like any
        # sequential branch-and-bound would.
        yield ctx.flops(self.n * self.n)
        yield from ctx.write_f64(best_addr, self.nearest_neighbour_tour())
        lock_addr = yield from ctx.malloc(1024)
        yield from ctx.lock_init(lock_addr)
        # Built here, not in __init__: the weights are final only now
        # (a caller may relabel ``self.w`` after construction), and the
        # table must not outlive this run.
        bounds = BoundTable(self.w.tolist())
        branches = self._seed_branches(bounds)
        pool_addr = yield from ctx.malloc(POOL_HEADER + ENTRY_BYTES * len(branches))
        yield ctx.ops(20 * len(branches))
        yield ctx.flops(len(branches) * (self.n - 2) ** 2)  # seeding bounds
        yield from ctx.write_array(
            pool_addr, np.array([len(branches), 0], dtype=np.int64).view(np.uint8)
        )
        yield from ctx.write_bytes(pool_addr + POOL_HEADER, b"".join(branches))
        done = yield from alloc_done_ec(ctx)
        yield from spawn_workers(
            ctx, self._worker, self.nprocs, w_addr, best_addr, lock_addr, pool_addr,
            bounds, done_ec=done,
        )
        yield from wait_done(ctx, done, self.nprocs)
        best = yield from ctx.read_f64(best_addr)
        return best

    # ------------------------------------------------------------------

    def _worker(
        self,
        ctx: IvyProcessContext,
        k: int,
        w_addr: int,
        best_addr: int,
        lock_addr: int,
        pool_addr: int,
        bounds: BoundTable,
    ) -> Generator[Any, Any, None]:
        n = self.n
        w_flat = yield from ctx.mem.fetch_array(w_addr, np.float64, n * n)
        # Nested lists, converted once: the search loop below is all
        # scalar indexing, which plain floats do ~20x faster than numpy.
        w = w_flat.reshape(n, n).tolist()
        while True:
            # --- take a batch of branches from the shared pool ----------
            yield from ctx.lock_acquire(lock_addr)
            count = yield from ctx.read_i64(pool_addr)
            if count == 0:
                yield from ctx.lock_release(lock_addr)
                return
            take = min(BATCH, count)
            raw = yield from ctx.read_bytes(
                pool_addr + POOL_HEADER + ENTRY_BYTES * (count - take),
                ENTRY_BYTES * take,
            )
            yield from ctx.write_i64(pool_addr, count - take)
            yield from ctx.lock_release(lock_addr)
            branches = [
                _unpack_entry(raw[ENTRY_BYTES * i :][: ENTRY_BYTES])
                for i in reversed(range(take))  # best bound first
            ]

            # --- sequential branch-and-bound over these subtrees --------
            best_seen = yield from ctx.read_f64(best_addr)
            stack = branches
            since_refresh = 0
            while stack:
                cost, depth, visited, path = stack.pop()
                since_refresh += 1
                if since_refresh >= BEST_REFRESH:
                    since_refresh = 0
                    best_seen = yield from ctx.read_f64(best_addr)
                if cost >= best_seen:
                    continue  # thrown away, per the paper
                last = path[depth - 1]
                wlast = w[last]
                r = tree_size(n, visited)
                work_ops = 0
                work_flops = 0
                key_base = visited << 4
                for nxt in range(n):
                    if visited & (1 << nxt):
                        continue
                    step_cost = cost + wlast[nxt]
                    new_depth = depth + 1
                    if new_depth == n:
                        total = step_cost + w[nxt][0]
                        work_flops += 2
                        if total < best_seen:
                            best_seen = yield from self._offer_best(
                                ctx, lock_addr, best_addr, total
                            )
                        continue
                    work_ops += r**2 * PRIM_OPS
                    work_flops += r**2
                    bound = step_cost + bounds[key_base | nxt]
                    if bound < best_seen:
                        stack.append(
                            (step_cost, new_depth, visited | (1 << nxt), path + [nxt])
                        )
                ctx.node.counters.inc("tsp_nodes_expanded")
                yield ctx.ops(work_ops)
                yield ctx.flops(work_flops)

    def _offer_best(
        self, ctx: IvyProcessContext, lock_addr: int, best_addr: int, total: float
    ) -> Generator[Any, Any, float]:
        """Install a better tour cost (mutually exclusive); returns the
        freshest incumbent."""
        yield from ctx.lock_acquire(lock_addr)
        current = yield from ctx.read_f64(best_addr)
        if total < current:
            yield from ctx.write_f64(best_addr, total)
            current = total
            ctx.node.counters.inc("tsp_incumbent_updates")
        yield from ctx.lock_release(lock_addr)
        return current

    # ------------------------------------------------------------------

    def check(self, result: float) -> None:
        expected = self.golden()
        if not np.isclose(result, expected, rtol=1e-9):
            raise AssertionError(f"tsp mismatch: {result} vs optimal {expected}")


#: cost f64 | depth i64 | visited i64, little-endian — byte-identical to
#: the numpy tobytes/frombuffer round-trip it replaces.
_ENTRY_HEAD = struct.Struct("<dqq")


def _pack_entry(cost: float, depth: int, visited: int, path: bytes) -> bytes:
    return _ENTRY_HEAD.pack(cost, depth, visited) + path.ljust(MAX_CITIES, b"\x00")


def _unpack_entry(raw: np.ndarray) -> tuple[float, int, int, list[int]]:
    cost, depth, visited = _ENTRY_HEAD.unpack_from(raw)
    path = list(bytes(raw[24 : 24 + depth]))
    return cost, depth, visited, path
