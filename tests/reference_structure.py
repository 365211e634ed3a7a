"""Reference cycle repair for ``structure.average_network``.

``_strongly_connected`` and ``_repair_cycles`` are the iterative Tarjan
components and the repair loop that ``average_network`` used before it read
cycles off the search's reachability matrix; they are kept unchanged as the
oracle it must match: the same Dag and the same warnings in the same order.
"""
import warnings

from attachnet.dag import Dag
from attachnet.errors import ValidationError
from attachnet.structure import _thresholded_arcs


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
