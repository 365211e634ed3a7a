"""``average_network``'s cycle repair, which reads cycles off the search's
reachability matrix, against the Tarjan-component repair that
``reference_structure.py`` keeps: the same Dag, the same warnings in the same
order, and always an acyclic result.  ``ArcStrengthTable``'s strengths,
directions, CSV and thresholded arcs match the per-pair loops kept there,
bit for bit."""
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

import reference_structure as ref
from attachnet.structure import ArcStrengthTable, _thresholded_arcs, average_network


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


@st.composite
def raw_tallies(draw):
    """Tallies no bootstrap produces: every cell, the diagonal included, in
    ``0..R+1``, so a pair can be counted in more than R replicates and a
    node can have a count on itself."""
    m = draw(st.integers(1, 8))
    replicates = draw(st.integers(1, 10))
    cells = draw(st.lists(st.integers(0, replicates + 1), min_size=m * m, max_size=m * m))
    counts = np.array(cells, dtype=np.int64).reshape(m, m)
    items = tuple(f"Q{k:02d}" for k in draw(st.permutations(range(1, m + 1))))
    return ArcStrengthTable(items=items, counts=counts, replicates=replicates)


THRESHOLDS = st.sampled_from([0.05, 0.2, 1 / 3, 0.5, 0.75, 1.0])


def run(average, table, threshold):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dag = average(table, threshold)
    return dag, [str(w.message) for w in caught]


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(table=strength_tables(), threshold=THRESHOLDS)
def test_cycle_repair_matches_reference(table, threshold):
    dag, messages = run(average_network, table, threshold)
    assert (dag, messages) == run(ref.average_network, table, threshold)
    order = {node: pos for pos, node in enumerate(dag.topological_order())}
    assert len(order) == len(table.items)
    assert all(order[u] < order[v] for u, v in dag.arcs)


def hexed(thresholded):
    arcs, undirected = thresholded
    return [(u, v, s.hex(), d.hex()) for u, v, s, d in arcs], undirected


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(table=st.one_of(strength_tables(), raw_tallies()), threshold=THRESHOLDS)
def test_tally_arithmetic_matches_reference(table, threshold):
    assert table.to_csv() == ref.to_csv(table)
    assert hexed(_thresholded_arcs(table, threshold)) == hexed(ref._thresholded_arcs(table, threshold))
    for u in table.items:
        for v in table.items:
            assert table.strength(u, v).hex() == ref.strength(table, u, v).hex()
            assert table.direction(u, v).hex() == ref.direction(table, u, v).hex()
