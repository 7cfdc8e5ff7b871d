"""Every experiment cell starts from ``repro.api.Scenario``.

``Scenario`` is the one place that builds a ``Network``, stands a
scheme up with ``registry.build`` and arms a schedule with
``install_schedule``.  A cell that does any of those by hand is a
second builder next to it; this scan keeps one from growing back.
"""

import ast
import glob
import os

import repro

# Hand-built calls and retired helpers no experiment module may name.
FORBIDDEN_CALLS = ("Network", "registry.build", "install_schedule")
FORBIDDEN_NAMES = ("testbed_network", "scale_network")

# The one named exception: case2's scripted Clove panel needs a flowlet
# gap and an initial path that no registry scheme can take.
ALLOWED = {("case2_migration", "_scripted_clove")}


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _hand_built_sites(path):
    """``(function, line, what)`` for each forbidden call or name."""
    tree = ast.parse(open(path).read(), filename=path)
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and function is None:
            function = node.name
        if isinstance(node, ast.Call) and _dotted(node.func) in FORBIDDEN_CALLS:
            sites.append((function, node.lineno, _dotted(node.func) + "("))
        names = ()
        if isinstance(node, ast.Name):
            names = (node.id,)
        elif isinstance(node, ast.Attribute):
            names = (node.attr,)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        sites.extend((function, node.lineno, name)
                     for name in names if name in FORBIDDEN_NAMES)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sites


def test_no_experiment_cell_builds_by_hand():
    root = os.path.join(os.path.dirname(os.path.abspath(repro.__file__)), "experiments")
    files = sorted(glob.glob(os.path.join(root, "*.py")))
    assert len(files) > 15
    offenders, allowed_seen = [], set()
    for path in files:
        module = os.path.basename(path)[:-3]
        for function, line, what in _hand_built_sites(path):
            if (module, function) in ALLOWED:
                allowed_seen.add((module, function))
            else:
                offenders.append(f"{module}.py:{line} ({function}): {what}")
    assert not offenders, "build the cell with repro.api.Scenario:\n" + "\n".join(offenders)
    assert allowed_seen == ALLOWED


def test_scan_catches_each_hand_built_form(tmp_path):
    """The scan is not vacuous: each forbidden form is reported."""
    cell = tmp_path / "cell.py"
    cell.write_text(
        "from repro.experiments.common import testbed_network\n"
        "def run_one():\n"
        "    net = Network(topo)\n"
        "    fabric = registry.build('ufab', net)\n"
        "    install_schedule(net, fabric, schedule)\n"
        "    return scale_sweep.scale_network(4)\n"
    )
    found = {what for _, _, what in _hand_built_sites(str(cell))}
    assert found == {"testbed_network", "Network(", "registry.build(",
                     "install_schedule(", "scale_network"}
