"""Graph export: Graphviz DOT rendering of a ComputeGraph.

Visual inspection tooling: blocks become clusters, layer nodes show type
and output shape, so an architecture (or an extracted block subgraph) can
be rendered with any DOT viewer.
"""

from __future__ import annotations

from repro.fileio import write_text_atomic
from repro.graph.graph import ComputeGraph
from repro.graph.layers import Input

_TYPE_COLORS = {
    "Conv2d": "lightblue",
    "TokenLinear": "lightblue",
    "Linear": "lightyellow",
    "ScaledDotProductAttention": "plum",
    "BatchNorm2d": "lightgrey",
    "LayerNorm": "lightgrey",
    "Add": "palegreen",
    "Concat": "palegreen",
    "Multiply": "palegreen",
    "Input": "white",
}


def _escape(text: str) -> str:
    return text.replace('"', '\\"')


def to_dot(graph: ComputeGraph, include_shapes: bool = True) -> str:
    """Render the graph as a Graphviz DOT document."""
    lines = [
        f'digraph "{_escape(graph.name)}" {{',
        "  rankdir=TB;",
        '  node [shape=box, style=filled, fontname="monospace"];',
    ]
    # Group nodes by block scope into clusters.
    by_block: dict[str, list] = {}
    for node in graph:
        by_block.setdefault(node.block, []).append(node)

    def node_line(node) -> str:
        type_name = type(node.layer).__name__
        label = type_name if isinstance(node.layer, Input) else node.name
        if include_shapes:
            label += f"\\n{type_name} {node.output_shape}"
        color = _TYPE_COLORS.get(type_name, "white")
        return (
            f'    "{_escape(node.name)}" '
            f'[label="{_escape(label)}", fillcolor={color}];'
        )

    cluster_idx = 0
    for block, nodes in by_block.items():
        if block:
            lines.append(f"  subgraph cluster_{cluster_idx} {{")
            lines.append(f'    label="{_escape(block)}";')
            lines.extend(node_line(n) for n in nodes)
            lines.append("  }")
            cluster_idx += 1
        else:
            lines.extend(node_line(n) for n in nodes)

    for node in graph:
        for parent in node.inputs:
            lines.append(
                f'  "{_escape(parent)}" -> "{_escape(node.name)}";'
            )
    lines.append("}")
    return "\n".join(lines)


def write_dot(graph: ComputeGraph, path) -> None:
    """Write the DOT document to a file."""
    write_text_atomic(path, to_dot(graph))
