"""Tests for sequential vertex colouring (Section III-B1)."""

from hypothesis import given, strategies as st

from repro.kautz.coloring import sequential_coloring


def color_count(colors):
    return len(set(colors.values()))


def is_proper_coloring(adjacency, colors):
    """Whether no edge joins two same-coloured vertices."""
    return all(
        colors[node] != colors[other]
        for node, neighbors in adjacency.items()
        for other in neighbors
        if other != node
    )


class TestTriangle:
    def test_triangle_needs_three_colors(self):
        # The actuator triangle of a REFER cell: 3 mutually adjacent
        # actuators get 3 distinct colours -> KIDs 012, 120, 201.
        adjacency = {"a": ["b", "c"], "b": ["a", "c"], "c": ["a", "b"]}
        colors = sequential_coloring(adjacency)
        assert color_count(colors) == 3
        assert is_proper_coloring(adjacency, colors)


class TestGeneral:
    def test_empty_graph(self):
        assert sequential_coloring({}) == {}
        assert color_count({}) == 0

    def test_isolated_vertices_one_color(self):
        adjacency = {1: [], 2: [], 3: []}
        colors = sequential_coloring(adjacency)
        assert color_count(colors) == 1

    def test_path_graph_two_colors(self):
        adjacency = {0: [1], 1: [2], 2: [3], 3: []}
        colors = sequential_coloring(adjacency, order=[0, 1, 2, 3])
        assert color_count(colors) == 2
        assert is_proper_coloring(adjacency, colors)

    def test_respects_one_way_edge_lists(self):
        # Neighbour relation symmetrised even if listed one-way.
        adjacency = {"x": ["y"], "y": []}
        colors = sequential_coloring(adjacency)
        assert colors["x"] != colors["y"]

    def test_order_determines_assignment(self):
        adjacency = {0: [1], 1: []}
        colors = sequential_coloring(adjacency, order=[1, 0])
        assert colors[1] == 0
        assert colors[0] == 1

    @given(st.integers(min_value=2, max_value=30), st.integers(0, 1000))
    def test_random_graphs_properly_colored(self, n, seed):
        import random

        rng = random.Random(seed)
        adjacency = {
            i: [j for j in range(n) if j != i and rng.random() < 0.3]
            for i in range(n)
        }
        colors = sequential_coloring(adjacency)
        assert is_proper_coloring(adjacency, colors)
        assert len(colors) == n

    def test_greedy_bound(self):
        # Greedy uses at most max_degree + 1 colours.
        adjacency = {
            0: [1, 2, 3],
            1: [0, 2],
            2: [0, 1],
            3: [0],
        }
        colors = sequential_coloring(adjacency)
        assert color_count(colors) <= 4
