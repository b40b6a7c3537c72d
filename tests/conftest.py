"""Shared fixtures: the paper's Figure 1 example graph and small helpers."""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.graph.model import Edge, Node, PropertyGraph


def build_figure1_graph() -> PropertyGraph:
    """The running example of the paper (Figure 1, Examples 1-8).

    Three Person nodes (Alice unlabeled), two structurally different Posts,
    one Organization, one Place, and the KNOWS / LIKES / WORKS_AT /
    LOCATED_IN relationships.
    """
    graph = PropertyGraph("figure1")
    graph.add_node(
        Node(
            "bob",
            frozenset({"Person"}),
            {"name": "Bob", "gender": "male", "bday": "2/5/1980"},
        )
    )
    graph.add_node(
        Node(
            "alice",
            frozenset(),
            {"name": "Alice", "gender": "female", "bday": "19/12/1999"},
        )
    )
    graph.add_node(
        Node(
            "john",
            frozenset({"Person"}),
            {"name": "John", "gender": "male", "bday": "24/9/2005"},
        )
    )
    graph.add_node(Node("post1", frozenset({"Post"}), {"imgFile": "screenshot.png"}))
    graph.add_node(Node("post2", frozenset({"Post"}), {"content": "bazinga!"}))
    graph.add_node(
        Node("org", frozenset({"Org."}), {"url": "example.com", "name": "Example"})
    )
    graph.add_node(Node("place", frozenset({"Place"}), {"name": "Greece"}))

    graph.add_edge(Edge("e1", "alice", "john", frozenset({"KNOWS"}), {}))
    graph.add_edge(Edge("e2", "bob", "john", frozenset({"KNOWS"}), {"since": 2025}))
    graph.add_edge(Edge("e3", "alice", "post1", frozenset({"LIKES"}), {}))
    graph.add_edge(Edge("e4", "john", "post2", frozenset({"LIKES"}), {}))
    graph.add_edge(
        Edge("e5", "bob", "org", frozenset({"WORKS_AT"}), {"from": 2000})
    )
    graph.add_edge(Edge("e6", "org", "place", frozenset({"LOCATED_IN"}), {}))
    graph.add_edge(
        Edge("e7", "john", "place", frozenset({"LOCATED_IN"}), {"from": 2025})
    )
    return graph


@pytest.fixture
def figure1_graph() -> PropertyGraph:
    """Fresh copy of the Figure 1 example graph."""
    return build_figure1_graph()


#: Seconds leftover children get, in total, to exit before the run fails.
CHILD_JOIN_SECONDS = 2.0


def pytest_sessionfinish(session, exitstatus):
    """Fail the run if a test left a child process alive.

    The process counterpart of CI's ``/dev/shm`` leak step: shard worker
    pools must be shut down by the code that started them, not by the
    interpreter's exit.
    """
    children = multiprocessing.active_children()
    deadline = time.monotonic() + CHILD_JOIN_SECONDS
    for child in children:
        child.join(max(0.0, deadline - time.monotonic()))
    alive = [child for child in children if child.is_alive()]
    if alive:
        names = ", ".join(f"{child.name} (pid {child.pid})" for child in alive)
        print(f"\nchild processes still alive after the run: {names}")
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
