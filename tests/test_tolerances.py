"""The tolerance table: its values, its monopoly on thresholds, and the verify rows."""

import ast
import pathlib

import numpy as np
import pytest

import schemewalk
from schemewalk import cli, schemes, tolerances, walk

# Every entry at the value it had when the table was made.  A change to a
# value edits this test, and CHANGES.md logs the measured defect behind it.
PINNED = {
    "ATOM_SEPARATION": 1e-9,
    "INTEGRALITY_TOL": 1e-6,
    "MULTIPLICITY_ROUNDING": 12 * np.finfo(float).eps,
    "WEIGHT_SUM_TOL": 1e-12,
    "DEFAULT_TAIL_TOL": 1e-12,
    "MATRIX_TOL": 1e-9,
    "ORTHOGONALITY_TOL": 1e-9,
    "UNITARITY_TOL": 1e-9,
    "ZERO_TIME_TOL": 1e-15,
    "CLOSED_FORM_TOL": 1e-10,
    "ORACLE_ORTHONORMALITY_TOL": 1e-10,
    "ORACLE_EIGEN_RESIDUAL_TOL": 1e-8,
    "BFS_ARRAY_MATCH_TOL": 0.5,
    "ORACLE_AGREEMENT_TOL": 1e-8,
    "STRATUM_UNIFORMITY_TOL": 1e-9,
    "LADDER_ACTIONS_TOL": 1e-10,
}

SOURCES = sorted(pathlib.Path(schemewalk.__file__).parent.glob("*.py"))


def test_every_entry_keeps_its_value():
    table = {name: value for name, value in vars(tolerances).items() if name.isupper()}
    assert table == PINNED


def _small_float_literals(path: pathlib.Path):
    """(enclosing function, value) of every nonzero float literal below 1e-3 in the file."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Constant) and type(node.value) is float:
            if 0 < abs(node.value) < 1e-3:
                found.append((function, node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "tolerances.py"],
                         ids=lambda p: p.name)
def test_no_module_but_the_table_holds_a_threshold(path):
    found = _small_float_literals(path)
    if path.name == "cli.py":  # an output-format bound of the JSON writer, not a tolerance
        found.remove(("_json_walk", 1e-300))
    assert found == []


def test_removed_duplicate_names_are_gone():
    assert not hasattr(walk, "MERGE_TOL")
    assert not hasattr(schemes, "MULTIPLICITY_TOL")
    assert walk.ATOM_SEPARATION is tolerances.ATOM_SEPARATION


VERIFY_ROWS = {
    "unitarity": "UNITARITY_TOL",
    "closed_form": "CLOSED_FORM_TOL",
    "oracle_orthonormality": "ORACLE_ORTHONORMALITY_TOL",
    "oracle_eigen_residual": "ORACLE_EIGEN_RESIDUAL_TOL",
    "bfs_array_match": "BFS_ARRAY_MATCH_TOL",
    "oracle_agreement": "ORACLE_AGREEMENT_TOL",
    "stratum_uniformity": "STRATUM_UNIFORMITY_TOL",
    "ladder_actions": "LADDER_ACTIONS_TOL",
}


@pytest.mark.parametrize("graph, n, rows", [
    ("catalog:petersen", 10, 9),
    ("group:cyclic:12", 12, 7),
])
def test_verify_prints_each_rows_table_entry(capsys, graph, n, rows):
    assert cli.main(["verify", "--graph", graph, "--steps", "8"]) == 0
    table = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(table) == rows
    for name, _, threshold, status in table:
        bound = tolerances.MATRIX_TOL * n if name == "eigenmatrix_duality" else (
            getattr(tolerances, VERIFY_ROWS[name]))
        assert (threshold, status) == (f"{bound:.0e}", "PASS")
