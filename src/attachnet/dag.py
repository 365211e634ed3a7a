"""Directed acyclic graph over named nodes.

The graph is immutable: construction validates that there are no self-loops,
that every arc endpoint is a known node, and that a topological order exists.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._csv import csv_text, read_rows
from .errors import ValidationError


@dataclass(frozen=True)
class Dag:
    nodes: tuple[str, ...]
    arcs: frozenset[tuple[str, str]]
    _order: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _parents: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _children: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __init__(self, nodes, arcs):
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "arcs", frozenset(tuple(a) for a in arcs))
        if len(set(self.nodes)) != len(self.nodes):
            raise ValidationError("duplicate node names")
        known = set(self.nodes)
        for u, v in self.arcs:
            if u == v:
                raise ValidationError(f"self-loop on {u}")
            if u not in known or v not in known:
                raise ValidationError(f"arc ({u}, {v}) references unknown node")
        parents = {n: [] for n in self.nodes}
        children = {n: [] for n in self.nodes}
        for u, v in self.arcs:
            parents[v].append(u)
            children[u].append(v)
        # sorted once here: the path queries read them once per node per query
        object.__setattr__(self, "_parents", {n: tuple(sorted(p)) for n, p in parents.items()})
        object.__setattr__(self, "_children", {n: tuple(sorted(c)) for n, c in children.items()})
        object.__setattr__(self, "_order", self._toposort())

    def _toposort(self) -> tuple[str, ...]:
        indeg = {n: len(p) for n, p in self._parents.items()}
        ready = sorted(n for n in self.nodes if indeg[n] == 0)
        order = []
        while ready:
            n = ready.pop(0)
            order.append(n)
            inserted = False
            for ch in self._children[n]:
                indeg[ch] -= 1
                if indeg[ch] == 0:
                    ready.append(ch)
                    inserted = True
            if inserted:
                ready.sort()
        if len(order) != len(self.nodes):
            raise ValidationError("graph contains a cycle")
        return tuple(order)

    # -- queries ---------------------------------------------------------

    def topological_order(self) -> tuple[str, ...]:
        return self._order

    def parents(self, node: str) -> tuple[str, ...]:
        """Sorted parents of ``node`` (empty for a node not in the graph)."""
        return self._parents.get(node, ())

    def children(self, node: str) -> tuple[str, ...]:
        """Sorted children of ``node`` (empty for a node not in the graph)."""
        return self._children.get(node, ())

    def in_degree(self, node: str) -> int:
        return len(self.parents(node))

    def out_degree(self, node: str) -> int:
        return len(self.children(node))

    def adjacency_matrix(self) -> np.ndarray:
        """0/1 matrix in node order; entry [i, j] = 1 for an arc i -> j."""
        idx = {n: i for i, n in enumerate(self.nodes)}
        adj = np.zeros((len(self.nodes), len(self.nodes)), dtype=np.int8)
        for u, v in self.arcs:
            adj[idx[u], idx[v]] = 1
        return adj

    @classmethod
    def from_adjacency(cls, nodes, adj) -> "Dag":
        nodes = tuple(nodes)
        arcs = {
            (nodes[i], nodes[j])
            for i in range(len(nodes))
            for j in range(len(nodes))
            if adj[i, j]
        }
        return cls(nodes, arcs)

    # -- export ----------------------------------------------------------

    def to_arc_csv(self) -> str:
        """Arc list as ``from,to`` CSV text."""
        return csv_text(["from", "to"], sorted(self.arcs))

    @classmethod
    def from_arc_csv(cls, buf, nodes=None) -> "Dag":
        rows = read_rows(buf, ("from", "to"))
        arcs = {(r["from"], r["to"]) for r in rows}
        if nodes is None:
            nodes = sorted({u for u, _ in arcs} | {v for _, v in arcs})
        return cls(nodes, arcs)

    def to_dot(self, partition=None, weights=None) -> str:
        """Graphviz source; clusters annotated as ``label="C<k>"`` when given.

        ``partition`` maps node -> cluster label, ``weights`` maps
        (from, to) -> float used as edge labels.
        """
        lines = ["digraph attachment_network {"]
        if partition is not None:
            groups: dict[str, list[str]] = {}
            for node in self.nodes:
                groups.setdefault(partition[node], []).append(node)
            for label in sorted(groups):
                lines.append(f"  subgraph cluster_{label} {{")
                lines.append(f'    label="{label}";')
                for node in sorted(groups[label]):
                    lines.append(f"    {node};")
                lines.append("  }")
        else:
            for node in self.nodes:
                lines.append(f"  {node};")
        for u, v in sorted(self.arcs):
            if weights is not None and (u, v) in weights:
                lines.append(f'  {u} -> {v} [label="{weights[(u, v)]:g}"];')
            else:
                lines.append(f"  {u} -> {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def roots_and_terminals(dag: Dag) -> tuple[set[str], set[str]]:
    """Nodes with no incoming arcs and nodes with no outgoing arcs."""
    has_in = {v for _, v in dag.arcs}
    has_out = {u for u, _ in dag.arcs}
    roots = {n for n in dag.nodes if n not in has_in}
    terminals = {n for n in dag.nodes if n not in has_out}
    return roots, terminals
