"""Fixed digests of ``kgc solve`` JSON: a speedup must reproduce these
bytes exactly, not only match the commit before it.

The digests were recorded with the one-root-at-a-time root search, before
the lockstep kernel replaced it, and ``cyclic-200-s3`` (default options,
so tau is computed) with an ``apsp`` that searched the whole graph, before
it searched only the 2-core.  ``grid-6x5-k4`` was recorded with every
root running its full radius search (the since-deleted ``--no-prune``),
whose bytes the pruned search reproduces.  Regenerate them only for a change that is
meant to alter the output, and say so in the changelog.
"""

from __future__ import annotations

import hashlib

import pytest

from kgc import cycle_graph, grid_graph, random_connected, random_tree, serialize_graph
from kgc.cli import main

CYCLIC = ["-k", "24", "--tau-hat-doubled", "40"]
TREE = ["-k", "3", "--tau-hat-doubled", "0"]

CASES = {
    "cyclic-350-s1": (lambda: random_connected(350, 420, 1), CYCLIC),
    "cyclic-350-s2": (lambda: random_connected(350, 420, 2), CYCLIC),
    "cyclic-200-s3": (lambda: random_connected(200, 230, 3), ["-k", "4"]),
    "cyclic-350-s2-threads": (
        lambda: random_connected(350, 420, 2),
        [*CYCLIC, "--threads", "2"],
    ),
    "tree-700-s1": (lambda: random_tree(700, 1), TREE),
    "tree-700-s2": (lambda: random_tree(700, 2), TREE),
    "grid-6x5-k2": (lambda: grid_graph(6, 5), ["-k", "2"]),
    "grid-6x5-k4": (lambda: grid_graph(6, 5), ["-k", "4"]),
    "cycle-12-k1": (lambda: cycle_graph(12), ["-k", "1"]),
    "cycle-12-k2": (lambda: cycle_graph(12), ["-k", "2"]),
    "cycle-12-k2-threads": (lambda: cycle_graph(12), ["-k", "2", "--threads", "2"]),
}

DIGESTS = {
    "cycle-12-k1": "cab32c47a45f65952912a1657571a7a4790d821a759842ab859ed12d6fc439ae",
    "cycle-12-k2": "b5c185fc63c16ba2cd5dceda3826b8791e7d4efdfeb584c2d42d40da8f5f1aff",
    "cycle-12-k2-threads": "b5c185fc63c16ba2cd5dceda3826b8791e7d4efdfeb584c2d42d40da8f5f1aff",
    "cyclic-200-s3": "350db6d10b99339c31ac8446a4a10447e2dceeebea7632e2c2f35d14ccabca5f",
    "cyclic-350-s1": "e557e1989392ce2542445eec0d36765143124ae9c78fd3c19c4588bd3ef90f1c",
    "cyclic-350-s2": "53e058053e97045e7eadf8e9029e70d96ae67c51f4d3bf3b68643bc2c1c62450",
    "cyclic-350-s2-threads": "53e058053e97045e7eadf8e9029e70d96ae67c51f4d3bf3b68643bc2c1c62450",
    "grid-6x5-k2": "60dbf5db20761d0050e42fdf23f305943e9d5e83d8eeac09214f8e2aba51ff66",
    "grid-6x5-k4": "78ed41cd1dc9d1af5605817918841492ee456067d2ab580724d326d8bcc6d9c1",
    "tree-700-s1": "354af86d3a1537b1be2255940e7453747efda8ac0c1ad985f9eeec6109547b9e",
    "tree-700-s2": "a875141cb8df6ae10e250aed2a7d93f38fa9ce6d48e40ecc55808d6578b839cc",
}


def solve_digest(tmp_path, capsys, name: str) -> str:
    build, argv = CASES[name]
    gpath = tmp_path / f"{name}.txt"
    gpath.write_text(serialize_graph(build()), encoding="utf-8")
    capsys.readouterr()
    assert main(["solve", "-g", str(gpath), *argv]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    return hashlib.sha256(out.out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_solve_json_digest(tmp_path, capsys, name):
    assert solve_digest(tmp_path, capsys, name) == DIGESTS[name]
