import io

import pytest

from attachnet.dag import Dag, roots_and_terminals
from attachnet.errors import ValidationError


def test_rejects_self_loop():
    with pytest.raises(ValidationError):
        Dag(("a", "b"), {("a", "a")})


def test_rejects_cycle():
    with pytest.raises(ValidationError):
        Dag(("a", "b", "c"), {("a", "b"), ("b", "c"), ("c", "a")})


def test_rejects_unknown_endpoint():
    with pytest.raises(ValidationError):
        Dag(("a",), {("a", "b")})


def test_topological_order_respects_arcs():
    dag = Dag(("d", "c", "b", "a"), {("a", "b"), ("b", "c"), ("a", "d")})
    order = dag.topological_order()
    assert order.index("a") < order.index("b") < order.index("c")
    assert order.index("a") < order.index("d")


def test_parents_children_degrees():
    dag = Dag(("a", "b", "c"), {("a", "b"), ("a", "c"), ("b", "c")})
    assert dag.parents("c") == ("a", "b")
    assert dag.children("a") == ("b", "c")
    assert dag.in_degree("c") == 2
    assert dag.out_degree("a") == 2


def test_roots_and_terminals_chain():
    dag = Dag(("a", "b", "c"), {("a", "b"), ("b", "c")})
    roots, terminals = roots_and_terminals(dag)
    assert roots == {"a"}
    assert terminals == {"c"}


def test_roots_and_terminals_empty_graph():
    dag = Dag(("a", "b"), set())
    roots, terminals = roots_and_terminals(dag)
    assert roots == terminals == {"a", "b"}


def test_arc_csv_round_trip():
    dag = Dag(("a", "b", "c"), {("a", "b"), ("b", "c")})
    text = dag.to_arc_csv()
    again = Dag.from_arc_csv(io.StringIO(text), nodes=dag.nodes)
    assert again == dag


def test_arc_csv_short_row_is_a_validation_error():
    with pytest.raises(ValidationError, match="row 2: expected 2 fields, got 1"):
        Dag.from_arc_csv(io.StringIO("from,to\nQ01,Q02\nQ03\n"))


def test_adjacency_round_trip():
    dag = Dag(("a", "b", "c"), {("a", "c"), ("b", "c")})
    assert Dag.from_adjacency(dag.nodes, dag.adjacency_matrix()) == dag


def test_dot_contains_cluster_labels():
    dag = Dag(("a", "b"), {("a", "b")})
    dot = dag.to_dot(partition={"a": "C1", "b": "C2"})
    assert "digraph" in dot
    assert 'label="C1"' in dot and 'label="C2"' in dot
    assert "a -> b" in dot
