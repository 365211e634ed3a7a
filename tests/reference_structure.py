"""Reference arc-strength tally and cycle repair for ``structure``.

``strength``, ``direction``, ``to_csv`` and ``_thresholded_arcs`` are
``ArcStrengthTable``'s methods and the thresholding step of
``average_network`` as they were when each worked the pair arithmetic out
per pair in its own loop; they take the table as their first argument and
are kept unchanged as the oracle the table's precomputed arrays must match.

``_strongly_connected`` and ``_repair_cycles`` are the iterative Tarjan
components and the repair loop that ``average_network`` used before it read
cycles off the search's reachability matrix; they are kept unchanged as the
oracle it must match: the same Dag and the same warnings in the same order.
"""
import warnings

from attachnet._csv import csv_text
from attachnet.dag import Dag
from attachnet.errors import ValidationError


def strength(table, u: str, v: str) -> float:
    """Fraction of replicates containing u-v in either direction."""
    i, j = table._index(u), table._index(v)
    return (table.counts[i, j] + table.counts[j, i]) / table.replicates


def direction(table, u: str, v: str) -> float:
    """Of the replicates containing u-v, the fraction oriented u -> v."""
    i, j = table._index(u), table._index(v)
    both = table.counts[i, j] + table.counts[j, i]
    if both == 0:
        return 0.0
    return table.counts[i, j] / both


def to_csv(table) -> str:
    rows = []
    m = len(table.items)
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            both = table.counts[i, j] + table.counts[j, i]
            if both == 0:
                continue
            rows.append(
                [
                    table.items[i],
                    table.items[j],
                    f"{both / table.replicates:.6g}",
                    f"{table.counts[i, j] / both:.6g}",
                ]
            )
    return csv_text(["from", "to", "strength", "direction"], rows)


def _thresholded_arcs(strengths, threshold: float):
    """Oriented arcs passing the strength threshold plus tied-direction pairs."""
    items = strengths.items
    m = len(items)
    counts = strengths.counts
    arcs = []  # (u, v, strength, direction)
    undirected = []
    for i in range(m):
        for j in range(i + 1, m):
            both = counts[i, j] + counts[j, i]
            if both == 0:
                continue
            strength = both / strengths.replicates
            if strength < threshold:
                continue
            d_ij = counts[i, j] / both
            if d_ij == 0.5:
                undirected.append((items[i], items[j]))
            elif d_ij > 0.5:
                arcs.append((items[i], items[j], strength, d_ij))
            else:
                arcs.append((items[j], items[i], strength, 1.0 - d_ij))
    return arcs, undirected


def _strongly_connected(nodes, arc_set):
    """Tarjan SCC; iterative to keep recursion limits out of the picture."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    result = []
    counter = [0]
    children = {n: sorted(v for u, v in arc_set if u == n) for n in nodes}

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(children[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(children[child])))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == node:
                        break
                result.append(comp)
    return result


def _repair_cycles(items, arcs):
    arc_set = {(u, v): (s, d) for u, v, s, d in arcs}
    dropped = []
    while True:
        cyclic = [
            comp for comp in _strongly_connected(items, set(arc_set)) if len(comp) > 1
        ]
        if not cyclic:
            break
        in_cycles = [
            (u, v)
            for (u, v) in arc_set
            if any(u in comp and v in comp for comp in cyclic)
        ]
        u, v = min(in_cycles, key=lambda a: (arc_set[a][0] * arc_set[a][1], a))
        s, d = arc_set.pop((u, v))
        dropped.append((u, v))
        warnings.warn(
            f"dropped arc {u}->{v} (strength*direction {s * d:.4g}) to break a cycle"
        )
    return Dag(items, set(arc_set)), dropped


def average_network(strengths, threshold: float = 0.5) -> Dag:
    if not (0.0 < threshold <= 1.0):
        raise ValidationError("threshold must be in (0, 1]")
    arcs, undirected = _thresholded_arcs(strengths, threshold)
    for u, v in undirected:
        warnings.warn(f"pair {u}-{v} has no majority direction; left undirected")
    dag, _ = _repair_cycles(strengths.items, arcs)
    return dag
