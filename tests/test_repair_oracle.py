"""``average_network``'s cycle repair, which reads cycles off the search's
reachability matrix, against the Tarjan-component repair that
``reference_structure.py`` keeps: the same Dag, the same warnings in the same
order, and always an acyclic result."""
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

import reference_structure as ref
from attachnet.structure import ArcStrengthTable, average_network


@st.composite
def strength_tables(draw):
    """Bootstrap tallies with ``counts[i, j] + counts[j, i] <= R``.  Small R
    gives many equal strength*direction products, and shuffled item names
    make the name tie-break differ from the index order; about half the
    examples need at least one repair."""
    m = draw(st.integers(2, 12))
    replicates = draw(st.integers(1, 9))
    counts = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        for j in range(i + 1, m):
            both = draw(st.integers(0, replicates))
            counts[i, j] = draw(st.integers(0, both))
            counts[j, i] = both - counts[i, j]
    items = tuple(f"Q{k:02d}" for k in draw(st.permutations(range(1, m + 1))))
    return ArcStrengthTable(items=items, counts=counts, replicates=replicates)


def run(average, table, threshold):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dag = average(table, threshold)
    return dag, [str(w.message) for w in caught]


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(table=strength_tables(),
       threshold=st.sampled_from([0.05, 0.2, 1 / 3, 0.5, 0.75, 1.0]))
def test_cycle_repair_matches_reference(table, threshold):
    dag, messages = run(average_network, table, threshold)
    assert (dag, messages) == run(ref.average_network, table, threshold)
    order = {node: pos for pos, node in enumerate(dag.topological_order())}
    assert len(order) == len(table.items)
    assert all(order[u] < order[v] for u, v in dag.arcs)

