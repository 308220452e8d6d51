"""DLS-TR: the compensation-and-bonus mechanism on tree networks.

Third architecture extension announced by the paper's future work.
Processors sit on an arbitrary rooted tree (node attribute ``w``, edge
attribute ``z``); the root originates the load and every internal node
splits its subtree's share between itself and its child subtrees
(front-end, one-port per hub).

Exclusion semantics follow the data path, as everywhere else in this
library (DESIGN.md §3.5):

* an **internal** node that does not participate keeps *relaying* — it
  becomes a pure-distributor hub for its children
  (:func:`repro.dlt.architectures.collapse_tree` with ``disabled``);
* a **leaf** that does not participate simply disappears (nothing
  behind it to relay to);
* the **root** holds the data, so its exclusion also leaves a relay,
  never an orphaned tree.

Bids replace the ``w`` attributes for allocation; the realized-makespan
term fixes the allocation at the bids and substitutes one node's
observed execution value (:func:`repro.dlt.architectures.tree_finish_times`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.dls_bl import MechanismResult
from repro.dlt.architectures import (
    allocate_tree,
    collapse_tree,
    tree_finish_times,
)

if TYPE_CHECKING:  # imported where used: most callers never build a tree
    import networkx as nx

__all__ = [
    "tree_with_bids",
    "tree_excluded_makespan",
    "tree_bonus",
    "DLSTree",
]


def tree_with_bids(tree: nx.DiGraph, bids: dict) -> nx.DiGraph:
    """Copy of *tree* with ``w`` attributes replaced by *bids*."""
    out = tree.copy()
    for node, b in bids.items():
        if node not in out:
            raise KeyError(f"bid for unknown node {node!r}")
        if b <= 0 or not np.isfinite(b):
            raise ValueError(f"bid for {node!r} must be positive, got {b}")
        out.nodes[node]["w"] = float(b)
    missing = [n for n in out.nodes if n not in bids]
    if missing:
        raise ValueError(f"missing bids for {missing}")
    return out


def tree_excluded_makespan(tree_bids: nx.DiGraph, root, node) -> float:
    """Optimal makespan when *node* relays but does not compute."""
    if tree_bids.number_of_nodes() < 2:
        raise ValueError("the mechanism requires at least 2 nodes")
    if node not in tree_bids:
        raise KeyError(f"unknown node {node!r}")
    if tree_bids.out_degree(node) == 0:  # leaf: drop it entirely
        reduced = tree_bids.copy()
        reduced.remove_node(node)
        return collapse_tree(reduced, root).w_equivalent
    return collapse_tree(tree_bids, root, disabled={node}).w_equivalent


def tree_bonus(tree_bids: nx.DiGraph, root, node, w_exec_node: float,
               shares: dict | None = None) -> float:
    """``B_i`` for *node*: exclusion value minus realized makespan."""
    if w_exec_node <= 0 or not np.isfinite(w_exec_node):
        raise ValueError(f"w_exec must be positive, got {w_exec_node}")
    if shares is None:
        shares = allocate_tree(tree_bids, root)
    finish = tree_finish_times(tree_bids, root, shares,
                               w_exec={node: w_exec_node})
    realized = max(finish.values())
    return tree_excluded_makespan(tree_bids, root, node) - realized


def _canonicalize(topology: nx.DiGraph, root) -> nx.DiGraph:
    """Rebuild the tree with each hub's children in nondecreasing link
    time (ties by node name).

    NetworkX successor order is insertion order, and every solver in
    :mod:`repro.dlt.architectures` serves children in that order.  As
    on stars, serving fast links first is what makes the equal-finish
    collapse globally optimal — with an arbitrary child order the
    allocation rule is suboptimal for some profiles and both
    strategyproofness and voluntary participation genuinely fail
    (found empirically at link times comparable to compute times).
    Link times are public physics, so the canonical order cannot be
    gamed through bids.
    """
    import networkx as nx

    out = nx.DiGraph()
    out.add_node(root, **topology.nodes[root])

    def visit(node) -> None:
        children = sorted(
            topology.successors(node),
            key=lambda c: (float(topology.edges[node, c]["z"]), str(c)))
        for c in children:
            out.add_node(c, **topology.nodes[c])
            out.add_edge(node, c, **topology.edges[node, c])
            visit(c)

    visit(root)
    return out


class DLSTree:
    """The tree mechanism bound to a public topology.

    Parameters
    ----------
    topology:
        Arborescence with edge attribute ``z`` (public link times).
        Node ``w`` attributes, if present, are ignored — agents *bid*
        their processing times per run.  Children are re-served in
        canonical nondecreasing-``z`` order regardless of insertion
        order (see :func:`_canonicalize`).
    root:
        The load-originating node.
    """

    def __init__(self, topology: nx.DiGraph, root) -> None:
        import networkx as nx

        if not nx.is_arborescence(topology):
            raise ValueError("topology must be an arborescence")
        if root not in topology:
            raise KeyError(f"root {root!r} not in topology")
        if topology.number_of_nodes() < 2:
            raise ValueError("the mechanism requires at least 2 nodes")
        for u, v in topology.edges:
            if topology.edges[u, v].get("z", 0) <= 0:
                raise ValueError(f"edge ({u!r},{v!r}) needs a positive z")
        self.topology = _canonicalize(topology, root)
        self.root = root
        self.nodes = list(nx.dfs_preorder_nodes(self.topology, root))

    @property
    def m(self) -> int:
        return len(self.nodes)

    def run(self, bids: dict, w_exec: dict) -> MechanismResult:
        """One mechanism round; *bids* and *w_exec* are per-node dicts.

        The :class:`MechanismResult` vectors follow ``self.nodes``
        (DFS preorder from the root).
        """
        tree = tree_with_bids(self.topology, bids)
        for node in self.nodes:
            if node not in w_exec:
                raise ValueError(f"missing w_exec for {node!r}")
        shares = allocate_tree(tree, self.root)
        alpha = np.array([shares[n] for n in self.nodes])
        exec_vec = np.array([float(w_exec[n]) for n in self.nodes])
        comp = alpha * exec_vec
        bon = np.array([
            tree_bonus(tree, self.root, n, float(w_exec[n]), shares)
            for n in self.nodes
        ])
        reported = max(tree_finish_times(tree, self.root, shares).values())
        realized = max(tree_finish_times(tree, self.root, shares,
                                         w_exec=w_exec).values())
        return MechanismResult(
            alpha=tuple(map(float, alpha)),
            w_exec=tuple(map(float, exec_vec)),
            compensations=tuple(map(float, comp)),
            bonuses=tuple(map(float, bon)),
            payments=tuple(map(float, comp + bon)),
            utilities=tuple(map(float, bon)),
            makespan_reported=float(reported),
            makespan_realized=float(realized),
        )

    def truthful_run(self, w_true: dict) -> MechanismResult:
        return self.run(dict(w_true), dict(w_true))
