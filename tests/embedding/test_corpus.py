"""Unit tests for the element-wise label-corpus reference.

``tests/properties/test_columnar_oracle.py`` holds the library's columnar
builder to this reference sentence for sentence.
"""

from repro.graph.model import Edge, Node, PropertyGraph

from tests.seed_reference import build_label_corpus


class TestBuildLabelCorpus:
    def test_edge_triples(self, figure1_graph):
        corpus = build_label_corpus(figure1_graph)
        assert ["Person", "WORKS_AT", "Org."] in corpus

    def test_unlabeled_endpoints_dropped_from_sentences(self, figure1_graph):
        corpus = build_label_corpus(figure1_graph)
        # KNOWS(alice -> john): alice is unlabeled, sentence shrinks to 2.
        assert ["KNOWS", "Person"] in corpus

    def test_every_node_token_registered(self, figure1_graph):
        corpus = build_label_corpus(figure1_graph)
        tokens = {token for sentence in corpus for token in sentence}
        assert {"Person", "Post", "Org.", "Place"} <= tokens

    def test_isolated_labeled_node_gets_single_token_sentence(self):
        graph = PropertyGraph()
        graph.add_node(Node("a", {"Lonely"}))
        corpus = build_label_corpus(graph)
        assert ["Lonely"] in corpus

    def test_multilabel_combo_token(self):
        graph = PropertyGraph()
        graph.add_node(Node("a", {"Student", "Person"}))
        graph.add_node(Node("b", {"Course"}))
        graph.add_edge(Edge("e", "a", "b", {"TAKES"}))
        corpus = build_label_corpus(graph)
        assert ["Person+Student", "TAKES", "Course"] in corpus

    def test_subsampling_caps_edge_sentences(self):
        graph = PropertyGraph()
        for i in range(30):
            graph.add_node(Node(f"n{i}", {"T"}))
        edge_id = 0
        for i in range(30):
            for j in range(i + 1, 30):
                graph.add_edge(Edge(f"e{edge_id}", f"n{i}", f"n{j}", {"R"}))
                edge_id += 1
        corpus = build_label_corpus(graph, max_sentences=50, seed=0)
        edge_sentences = [s for s in corpus if len(s) == 3]
        assert len(edge_sentences) == 50

    def test_subsampling_deterministic(self, figure1_graph):
        first = build_label_corpus(figure1_graph, max_sentences=3, seed=5)
        second = build_label_corpus(figure1_graph, max_sentences=3, seed=5)
        assert first == second

    def test_fully_unlabeled_graph_yields_no_sentences(self):
        graph = PropertyGraph()
        graph.add_node(Node("a"))
        graph.add_node(Node("b"))
        graph.add_edge(Edge("e", "a", "b"))
        assert build_label_corpus(graph) == []
