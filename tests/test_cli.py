import contextlib
import dataclasses
import importlib
import io
import json
import math
import shlex
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schemewalk import cli as cli_module
from schemewalk import walk as walk_module
from schemewalk.catalog import _FAMILIES, complete_distribution, hamming_distribution
from schemewalk.cli import build_parser, main, parse_graph_spec
from schemewalk.errors import SchemaError, UnknownCatalogName
from schemewalk.groups import partitions
from schemewalk.schemes import (
    FromCatalog,
    FromGroup,
    FromSRG,
    IntersectionArray,
    ValencyVector,
    eigenstructure_from_array,
)
from schemewalk.spectral import DiscreteDistribution
from schemewalk.walk import AmplitudeSeries, eigen_spectrum, intersection_array, jacobi_spectrum


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_walk_time_zero_golden_rows(capsys):
    code, out, err = run_cli(
        capsys, "walk", "--graph", "catalog:petersen", "--times", "0", "--format", "csv"
    )
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "0.000000000000,0,1.000000000000,0.000000000000,1.000000000000",
        "0.000000000000,1,0.000000000000,0.000000000000,0.000000000000",
        "0.000000000000,2,0.000000000000,0.000000000000,0.000000000000",
    ]


def test_spectrum_petersen(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--graph", "catalog:petersen")
    assert code == 0
    assert out.splitlines() == [
        "-2.000000000000,0.400000000000",
        "1.000000000000,0.500000000000",
        "3.000000000000,0.100000000000",
    ]


def test_average_srg_token(capsys):
    code, out, _ = run_cli(capsys, "average", "--graph", "srg:10,3,0,1")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()]
    values = [float(v) for _, v in rows]
    # (1/a_k) sum_l B_l^2 P_k(x_l)^2 evaluated by hand for the Petersen data
    weights = np.array([0.4, 0.5, 0.1])
    atoms = np.array([-2.0, 1.0, 3.0])
    p1 = atoms
    p2 = atoms**2 - 3
    expected = [
        float(np.sum(weights**2)),
        float(np.sum((weights * p1) ** 2) / 3),
        float(np.sum((weights * p2) ** 2) / 6),
    ]
    assert values == pytest.approx(expected, abs=1e-12)


def test_walk_probability_column_consistency(capsys):
    code, out, _ = run_cli(
        capsys, "walk", "--graph", "catalog:cycle:7", "--t0", "0", "--t1", "5",
        "--steps", "11",
    )
    assert code == 0
    for line in out.splitlines():
        _, _, re, im, prob = line.split(",")
        assert float(prob) == pytest.approx(
            float(re) ** 2 + float(im) ** 2, abs=1e-12
        )


def test_walk_vertex_level_scaling(capsys):
    _, stratum_out, _ = run_cli(
        capsys, "walk", "--graph", "catalog:petersen", "--times", "1.5"
    )
    _, vertex_out, _ = run_cli(
        capsys, "walk", "--graph", "catalog:petersen", "--times", "1.5", "--vertex-level"
    )
    strata_sizes = [1, 3, 6]
    for srow, vrow, size in zip(
        stratum_out.splitlines(), vertex_out.splitlines(), strata_sizes
    ):
        sre = float(srow.split(",")[2])
        vre = float(vrow.split(",")[2])
        assert sre == pytest.approx(vre * math.sqrt(size), abs=1e-10)


def test_walk_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "walk", "--graph", "group:dihedral:3", "--times", "0,2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0] == {"t": 0.0, "stratum": 0, "re": 1.0, "im": 0.0, "prob": 1.0}
    assert {row["stratum"] for row in payload} == {0, 1, 2}


@pytest.mark.parametrize(
    "graph,engine",
    [
        ("catalog:petersen", "spectral"),
        ("catalog:hamming:4,3", "eigen"),
        ("group:cyclic:9", "eigen"),
        ("group:dihedral:10", "character"),
        ("group:symmetric:4", "auto"),
    ],
)
def test_walk_json_time_zero_prints_a_positive_zero(capsys, graph, engine):
    code, out, _ = run_cli(
        capsys, "walk", "--graph", graph, "--engine", engine, "--times", "0,1.5",
        "--format", "json",
    )
    assert code == 0
    rows = out.strip()[2:-2].split("},{")
    at_zero = [row for row in rows if row.startswith('"t":0.0,')]
    assert len(at_zero) == len(rows) // 2
    assert all('"im":0.0,' in row for row in at_zero)


def test_characters_cyclic_format(capsys):
    code, out, _ = run_cli(capsys, "characters", "--group", "cyclic:4")
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 4
    assert rows[1].split(",")[1] == "0+1i"
    assert rows[1].split(",")[2] == "-1+0i"


def test_characters_json_descriptor(capsys):
    code, out, _ = run_cli(
        capsys, "characters", "--group", '{"group":"symmetric","n":3}'
    )
    assert code == 0
    assert out.splitlines()[2] == "1+0i,1+0i,1+0i"


def test_catalog_list(capsys):
    code, out, _ = run_cli(capsys, "catalog", "list")
    assert code == 0
    names = out.splitlines()
    assert names == sorted(names)
    assert "petersen" in names and "line" in names


def test_verify_petersen_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--graph", "catalog:petersen")
    assert code == 0
    assert "FAIL" not in out
    assert "unitarity" in out and "oracle_agreement" in out


def test_verify_group_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--graph", "group:symmetric:4", "--t1", "10", "--steps", "16"
    )
    assert code == 0
    assert "FAIL" not in out


def test_malformed_json_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "walk", "--graph", '{"kind": "group",')
    assert code == 2
    assert out == ""
    assert err.startswith("schema_error: ")


def test_unknown_field_rejected(capsys):
    code, _, err = run_cli(
        capsys,
        "walk",
        "--graph",
        '{"kind":"srg","n":10,"kappa":3,"lambda":0,"eta":1,"extra":1}',
    )
    assert code == 2
    assert "/extra" in err


def test_unknown_catalog_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--graph", "catalog:heawood")
    assert code == 2
    assert err.startswith("unknown_catalog_name: ")


@pytest.mark.parametrize(
    "argv",
    [
        "walk --steps -1",
        "walk --times -1",
        "walk --times nan",
        "walk --t1 inf",
        "verify --steps -1",
        "verify --steps 0",
        "verify --t1 nan",
        "verify --t1 -5",
    ],
)
def test_bad_time_grid_is_usage_error(capsys, argv):
    command, *flags = argv.split()
    code, out, err = run_cli(capsys, command, "--graph", "catalog:petersen", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("schema_error: ")


def test_computation_error_exit_code(capsys):
    spec = '{"kind":"intersection_array","d":2,"c_forward":[3,2],"b_backward":[2,1]}'
    code, out, err = run_cli(capsys, "walk", "--graph", spec, "--times", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("invalid_intersection_array: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("walk", "--graph", "group:cyclic:20", "--times", "1"),
        ("walk", "--graph", "group:dihedral:18", "--times", "1"),
        ("walk", "--graph", "group:cyclic:20", "--engine", "spectral", "--times", "1"),
        ("walk", "--graph", "catalog:cycle:20", "--times", "1"),
        ("walk", "--graph", '{"kind":"catalog","name":"cycle","params":[20]}', "--times", "1"),
        ("walk", "--graph", "catalog:hamming:10,2", "--times", "1"),
        ("walk", "--graph", '{"kind":"product","n":2,"copies":10}', "--times", "1"),
        ("average", "--graph", "catalog:johnson:20,10"),
        ("spectrum", "--graph", "group:cyclic:20"),
        ("verify", "--graph", "group:cyclic:20"),
        ("characters", "--group", "cyclic:20"),
        (
            "walk",
            "--graph",
            json.dumps(
                {"kind": "intersection_array", "d": 10, "c_forward": [2] + [1] * 9,
                 "b_backward": [1] * 9 + [2]}
            ),
            "--times",
            "1",
        ),
    ],
)
def test_size_budget_is_a_computation_error(capsys, monkeypatch, argv):
    import schemewalk.schemes as schemes

    monkeypatch.setattr(schemes, "MAX_STRATA", 10)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("too_large: ") and "11 strata, over the cap of 10" in err


def test_product_json_spec(capsys):
    code, out, _ = run_cli(
        capsys, "walk", "--graph", '{"kind":"product","n":2,"copies":2}',
        "--times", "0.9",
    )
    assert code == 0
    re0, im0 = (float(x) for x in out.splitlines()[0].split(",")[2:4])
    assert complex(re0, im0) == pytest.approx(math.cos(0.9) ** 2, abs=1e-10)


COMMANDS = [("walk", "--steps", "16"), ("walk", "--steps", "16", "--format", "json"),
            ("spectrum",), ("average",), ("verify", "--steps", "8")]


@pytest.mark.parametrize("n, copies", [(2, 4), (3, 4), (4, 3)])
@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_a_product_document_prints_as_its_hamming_token(capsys, argv, n, copies):
    command, *flags = argv
    document = json.dumps({"kind": "product", "n": n, "copies": copies})
    product = run_cli(capsys, command, "--graph", document, *flags)
    assert product[0] == 0
    assert product == run_cli(capsys, command, "--graph", f"catalog:hamming:{copies},{n}", *flags)


@pytest.mark.parametrize("copies, n, error", [
    (3, 1, "bad_params: Hamming scheme H(d, n) needs d >= 1 copies of K_n with n >= 2"),
    (2048, 2, "too_large: H(2048,2) has 2049 strata, over the cap of 2048"),
])
def test_a_product_document_fails_at_parse_before_the_time_grid(capsys, copies, n, error):
    text = json.dumps({"kind": "product", "n": n, "copies": copies})
    status = 1 if error.startswith("too_large") else 2
    assert run_cli(capsys, "walk", "--graph", text, "--steps", "-1") == (status, "", error + "\n")


@pytest.mark.parametrize("graph", ["catalog:hamming:4,3",
                                   '{"kind": "catalog", "name": "johnson", "params": [7, 3]}',
                                   '{"kind": "product", "n": 3, "copies": 4}'])
@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_a_request_looks_its_entry_up_once_and_sizes_its_array_once(capsys, monkeypatch,
                                                                    argv, graph):
    # the module, not the function ``schemewalk.catalog`` that the package re-exports
    catalog_module = importlib.import_module("schemewalk.catalog")
    lookup, sizes = catalog_module.catalog, IntersectionArray.strata.func
    lookups, sized = [], []

    def counting_lookup(*args):
        lookups.append(lookup(*args))
        return lookups[-1]

    def counting_sizes(ia):
        sized.append(ia)
        return sizes(ia)

    strata = cached_property(counting_sizes)
    strata.__set_name__(IntersectionArray, "strata")
    monkeypatch.setattr(catalog_module, "catalog", counting_lookup)
    monkeypatch.setattr(IntersectionArray, "strata", strata)
    command, *flags = argv
    code, _, _ = run_cli(capsys, command, "--graph", graph, *flags)
    assert code == 0 and len(lookups) == 1
    # the entry's array, and on verify the array of the oracle's BFS partition
    assert sized[0] is lookups[0].array and len(sized) == 1 + (command == "verify")


def test_graph_spec_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(
        '{"kind":"intersection_array","d":2,"c_forward":[3,2],"b_backward":[1,1]}'
    )
    code, out, _ = run_cli(capsys, "spectrum", "--graph", str(path))
    assert code == 0
    assert out.splitlines()[0] == "-2.000000000000,0.400000000000"


def test_parse_graph_spec_tokens():
    assert parse_graph_spec("catalog:cycle:9") == FromCatalog("cycle", (9,))
    assert parse_graph_spec("srg:10,3,0,1") == FromSRG(10, 3, 0, 1)
    spec = parse_graph_spec('{"kind":"group","group":"symmetric","n":4}')
    assert isinstance(spec, FromGroup)
    assert spec.group.kind == "symmetric" and spec.group.n == 4
    with pytest.raises(UnknownCatalogName):
        parse_graph_spec("catalog:nonexistent")
    with pytest.raises(SchemaError):
        parse_graph_spec("srg:10,3")
    with pytest.raises(SchemaError):
        parse_graph_spec("/nonexistent/path.json")


# Each token abbreviates one JSON document; both spellings must give one spec.
SPELLINGS = [
    ("catalog:petersen", {"kind": "catalog", "name": "petersen"}),
    ("catalog:m22", {"kind": "catalog", "name": "m22", "params": []}),
    ("catalog:line", {"kind": "catalog", "name": "line"}),
    ("catalog:cycle:9", {"kind": "catalog", "name": "cycle", "params": [9]}),
    ("catalog:cycle:4001", {"kind": "catalog", "name": "cycle", "params": [4001]}),
    ("catalog:johnson:7,3", {"kind": "catalog", "name": "johnson", "params": [7, 3]}),
    ("catalog:hamming:6,3", {"kind": "catalog", "name": "hamming", "params": [6, 3]}),
    ("catalog:gen_octagon:2,1", {"kind": "catalog", "name": "gen_octagon", "params": [2, 1]}),
    ("catalog:incidence_pg:4", {"kind": "catalog", "name": "incidence_pg", "params": [4]}),
    ("srg:10,3,0,1", {"kind": "srg", "n": 10, "kappa": 3, "lambda": 0, "eta": 1}),
    ("srg:100,22,0,6", {"kind": "srg", "n": 100, "kappa": 22, "lambda": 0, "eta": 6}),
    ("group:symmetric:4", {"kind": "group", "group": "symmetric", "n": 4}),
    ("group:symmetric:5:3", {"kind": "group", "group": "symmetric", "n": 5, "class": 3}),
    ("group:cyclic:3000", {"kind": "group", "group": "cyclic", "n": 3000}),
    ("group:dihedral:5", {"kind": "group", "group": "dihedral", "n": 5}),
    ("catalog:hamming:4,2", {"kind": "product", "n": 2, "copies": 4}),
]


@pytest.mark.parametrize("token, document", SPELLINGS)
def test_token_and_document_give_one_spec(tmp_path, token, document):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(document))
    spec = parse_graph_spec(token)
    assert parse_graph_spec(json.dumps(document)) == spec
    assert parse_graph_spec(str(path)) == spec


@pytest.mark.parametrize(
    "spellings",
    [
        ("cyclic:5", '{"group": "cyclic", "n": 5}', "group:cyclic:5",
         '{"kind": "group", "group": "cyclic", "n": 5}'),
        ("dihedral:6", '{"group": "dihedral", "n": 6}', "group:dihedral:6:2"),
        ("symmetric:4", '{"n": 4, "group": "symmetric"}', "group:symmetric:4"),
    ],
)
def test_characters_short_forms_name_the_group_spec(capsys, spellings):
    outputs = {run_cli(capsys, "characters", "--group", text) for text in spellings}
    assert len(outputs) == 1 and outputs.pop()[0] == 0


def _doc(**fields):
    return json.dumps(fields)


# (command, token, the document it abbreviates, the error code of both)
MALFORMED = [
    # the five inputs that once ended in a Python traceback
    ("walk", "group:cyclic:7,8", _doc(kind="group", group="cyclic", n=[7, 8]), "schema_error"),
    ("walk", "group:cyclic:", _doc(kind="group", group="cyclic", n=""), "schema_error"),
    ("walk", "group:cyclic:7:2,3", _doc(kind="group", group="cyclic", n=7, **{"class": [2, 3]}),
     "schema_error"),
    ("characters", "cyclic:", _doc(group="cyclic", n=""), "schema_error"),
    ("characters", "srg:10,3,0,1", _doc(kind="srg", n=10, kappa=3, eta=1, **{"lambda": 0}),
     "schema_error"),
    # parts past the grammar, and missing parts
    ("walk", "catalog:cycle:9:junk", _doc(kind="catalog", name="cycle", params=[9], junk="junk"),
     "schema_error"),
    ("walk", "srg:10,3,0,1,5", _doc(kind="srg", n=10, kappa=3, eta=1, mu=5, **{"lambda": 0}),
     "schema_error"),
    ("walk", "srg:10,3", _doc(kind="srg", n=10, kappa=3), "schema_error"),
    ("walk", "group:cyclic", _doc(kind="group", group="cyclic"), "schema_error"),
    # non-integers and unknown group kinds
    ("walk", "catalog:cycle:x", _doc(kind="catalog", name="cycle", params=["x"]), "schema_error"),
    ("walk", "srg:10,3,0,x", _doc(kind="srg", n=10, kappa=3, eta="x", **{"lambda": 0}),
     "schema_error"),
    ("walk", "group:cyclic:1.5", _doc(kind="group", group="cyclic", n=1.5), "schema_error"),
    ("walk", "group:bogus:5", _doc(kind="group", group="bogus", n=5), "schema_error"),
    ("characters", "bogus:5", _doc(group="bogus", n=5), "schema_error"),
    # integer spellings that Python's int() reads but JSON has not
    ("walk", "catalog:cycle:1_0", _doc(kind="catalog", name="cycle", params=["1_0"]),
     "schema_error"),
    ("walk", "group:cyclic:+7", _doc(kind="group", group="cyclic", n="+7"), "schema_error"),
    ("walk", "group:cyclic: 7", _doc(kind="group", group="cyclic", n=" 7"), "schema_error"),
    ("walk", "srg:10,3,0,1 ", _doc(kind="srg", n=10, kappa=3, eta="1 ", **{"lambda": 0}),
     "schema_error"),
    # well-formed documents whose values are out of range
    ("spectrum", "catalog:heawood", _doc(kind="catalog", name="heawood"), "unknown_catalog_name"),
    ("walk", "catalog:cycle", _doc(kind="catalog", name="cycle"), "bad_params"),
    ("walk", "catalog:johnson:7", _doc(kind="catalog", name="johnson", params=[7]), "bad_params"),
    ("walk", "catalog:cycle:2", _doc(kind="catalog", name="cycle", params=[2]), "bad_params"),
    ("walk", "catalog:hamming:3,1", _doc(kind="product", n=1, copies=3), "bad_params"),
    ("walk", "catalog:hamming:0,3", _doc(kind="product", n=3, copies=0), "bad_params"),
    ("walk", "group:cyclic:2", _doc(kind="group", group="cyclic", n=2), "invalid_order"),
    ("characters", "symmetric:1", _doc(group="symmetric", n=1), "invalid_order"),
    ("walk", "group:symmetric:13", _doc(kind="group", group="symmetric", n=13),
     "unsupported_order"),
    ("verify", "catalog:cycle:99999", _doc(kind="catalog", name="cycle", params=[99999]),
     "too_large"),
    ("walk", "catalog:hamming:2048,2", _doc(kind="product", n=2, copies=2048), "too_large"),
]


@pytest.mark.parametrize("command, token, document, code", MALFORMED)
def test_both_spellings_of_a_bad_spec_fail_alike(capsys, command, token, document, code):
    flag = "--group" if command == "characters" else "--graph"
    for text in (token, document):
        status, out, err = run_cli(capsys, command, flag, text)
        assert (status, out) == (1 if code == "too_large" else 2, "")
        assert err.startswith(f"{code}: ") and err.count("\n") == 1, (text, err)


@pytest.mark.parametrize("command", ["walk", "spectrum", "average", "verify"])
@pytest.mark.parametrize("params, error", [
    ((11, 3, 0, 1), "infeasible_parameters: srg parameters 11,3,0,1 need n = 10"),
    ((10, 3, 2, 1), "invalid_intersection_array: nonpositive forward intersection number"),
], ids=["n_contradicted", "c_1_zero"])
def test_an_inconsistent_srg_fails_in_both_spellings(capsys, command, params, error):
    n, kappa, lam, eta = params
    document = {"kind": "srg", "n": n, "kappa": kappa, "lambda": lam, "eta": eta}
    for text in ("srg:" + ",".join(map(str, params)), json.dumps(document)):
        assert run_cli(capsys, command, "--graph", text) == (1, "", error + "\n")


def test_engine_flags_agree(capsys):
    outputs = []
    for engine in ("auto", "eigen", "spectral"):
        _, out, _ = run_cli(
            capsys, "walk", "--graph", "catalog:petersen", "--times", "0.7,1.9",
            "--engine", engine,
        )
        outputs.append(out)
    rows = [
        [[float(x) for x in line.split(",")] for line in out.splitlines()]
        for out in outputs
    ]
    for other in rows[1:]:
        assert np.max(np.abs(np.array(rows[0]) - np.array(other))) < 1e-10


def test_character_engine_needs_group(capsys):
    code, _, err = run_cli(
        capsys, "walk", "--graph", "catalog:petersen", "--engine", "character",
        "--times", "1",
    )
    assert code == 1
    assert err.startswith("engine_spec_mismatch: ")


def test_normalized_flag(capsys):
    code, out, _ = run_cli(
        capsys, "walk", "--graph", "catalog:complete:4", "--times", "2", "--normalized"
    )
    assert code == 0
    re0, im0 = (float(x) for x in out.splitlines()[0].split(",")[2:4])
    expected = (np.exp(-2j) + 3 * np.exp(2j / 3)) / 4
    assert complex(re0, im0) == pytest.approx(expected, abs=1e-10)


def test_byte_identical_reruns(capsys):
    args = ("walk", "--graph", "catalog:m22", "--t0", "0", "--t1", "7", "--steps", "9")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "schemewalk.cli", "catalog", "list"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "petersen" in result.stdout.splitlines()


def test_package_runs_as_a_module():
    argv = ["walk", "--graph", "catalog:petersen", "--times", "0,1"]
    package, module = (
        subprocess.run([sys.executable, "-m", name, *argv], capture_output=True, text=True)
        for name in ("schemewalk", "schemewalk.cli")
    )
    assert package.returncode == 0, package.stderr
    assert package.stdout == module.stdout != ""


def test_import_loads_no_scipy():
    # The runtime depends on numpy alone; scipy is a test-only reference.
    result = subprocess.run(
        [sys.executable, "-c", "import sys, schemewalk; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def _csv(out):
    return np.array([[float(v) for v in line.split(",")] for line in out.splitlines()])


P_Q_SPECS = ("catalog:cycle:1001", "catalog:hamming:20,2", "catalog:johnson:20,10")


@pytest.mark.parametrize(
    "graph",
    [
        *P_Q_SPECS,
        "catalog:hamming:48,2",
        "catalog:hamming:60,2",
        "catalog:hamming:30,3",
        "catalog:hamming:25,4",
    ],
)
def test_eigen_engine_matches_spectral_on_large_schemes(capsys, graph):
    # On arrays both engines read the Jacobi spectrum, so the CLI rows agree;
    # from H(48,2) on, the former eigen route through P failed its own checks.
    rows = {}
    for engine in ("eigen", "spectral"):
        code, out, err = run_cli(
            capsys, "walk", "--graph", graph, "--engine", engine, "--t1", "5", "--steps", "6"
        )
        assert code == 0, err
        rows[engine] = _csv(out)
    assert np.max(np.abs(rows["eigen"] - rows["spectral"])) < 1e-11
    t, k = rows["eigen"][:, 0], rows["eigen"][:, 1]
    amps = rows["eigen"][:, 2] + 1j * rows["eigen"][:, 3]
    ia = intersection_array(parse_graph_spec(graph))
    if graph in P_Q_SPECS:
        # The P/Q route, whose eigenstructure checks scale with n, against Jacobi.
        times = np.unique(t)
        pq = eigen_spectrum(eigenstructure_from_array(ia)).amplitudes(times).amplitudes
        jacobi = jacobi_spectrum(ia).amplitudes(times).amplitudes
        assert np.max(np.abs(pq - jacobi)) < 1e-11
    if graph.startswith("catalog:hamming:"):
        d, q = (int(v) for v in graph.split(":")[2].split(","))
        if q == 2:
            # binary Hamming strata: sqrt(C(d, k)) cos^(d-k) t (-i sin t)^k
            closed = (
                np.sqrt([math.comb(d, int(j)) for j in k])
                * np.cos(t) ** (d - k)
                * (-1j * np.sin(t)) ** k
            )
            assert np.max(np.abs(amps - closed)) < 1e-11
        else:
            # origin amplitude: the K_q origin amplitude to the d-th power
            origin = k == 0
            kq = (np.exp(-1j * (q - 1) * t[origin]) + (q - 1) * np.exp(1j * t[origin])) / q
            assert np.max(np.abs(amps[origin] - kq**d)) < 1e-11


def _hamming_binary_averages(d):
    """Exact stratum averages of H(d, 2): sum_j C(d,j)^2 K_k(j)^2 / (4^d C(d,k))."""
    averages = []
    for k in range(d + 1):
        krawtchouk = [
            sum((-1) ** i * math.comb(j, i) * math.comb(d - j, k - i) for i in range(k + 1))
            for j in range(d + 1)
        ]
        num = sum(math.comb(d, j) ** 2 * kj**2 for j, kj in enumerate(krawtchouk))
        averages.append(Fraction(num, 4**d * math.comb(d, k)))
    assert sum(averages) == 1
    return [float(x) for x in averages]


@pytest.mark.parametrize("d", [21, 60])
def test_average_large_hamming_matches_krawtchouk(capsys, d):
    code, out, err = run_cli(capsys, "average", "--graph", f"catalog:hamming:{d},2")
    assert code == 0, err
    values = _csv(out)[:, 1]
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert values.sum() == pytest.approx(1.0, abs=1e-10)
    assert values == pytest.approx(_hamming_binary_averages(d), abs=2e-12)


def test_spectrum_of_a_cyclic_group_is_the_cycle_spectrum(capsys):
    code, group_out, err = run_cli(capsys, "spectrum", "--graph", "group:cyclic:9")
    assert code == 0, err
    _, cycle_out, _ = run_cli(capsys, "spectrum", "--graph", "catalog:cycle:9")
    assert group_out == cycle_out


def test_spectral_engine_refuses_cyclic_class_2(capsys):
    # Class 2 of Z_7 relabels the strata; the cycle-distance route cannot follow it.
    args = ("walk", "--graph", "group:cyclic:7:2", "--times", "0.8")
    code, out, err = run_cli(capsys, *args, "--engine", "spectral")
    assert code == 1 and out == ""
    assert err.startswith("engine_spec_mismatch: ")
    code, out, _ = run_cli(capsys, *args, "--engine", "character")
    assert code == 0
    probs = [round(float(line.split(",")[4]), 3) for line in out.splitlines()]
    assert probs == [0.207, 0.011, 0.65, 0.132]


@pytest.mark.parametrize(
    "graph",
    ["group:dihedral:8:2", "group:dihedral:8:3", "group:dihedral:10:3", "group:dihedral:12:5"],
)
def test_verify_even_dihedral_classes_match_the_oracle(capsys, graph):
    # The class index names a stratum of the fused walk scheme in both engines.
    code, out, _ = run_cli(capsys, "verify", "--graph", graph, "--t1", "10", "--steps", "16")
    assert code == 0
    assert "oracle_agreement" in out and "FAIL" not in out


@pytest.mark.parametrize(
    "graph", ["group:symmetric:4:2", "group:symmetric:5:3", "group:symmetric:6:8"]
)
def test_verify_passes_on_even_symmetric_classes(capsys, graph):
    code, out, _ = run_cli(capsys, "verify", "--graph", graph)
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 6
    assert all(row.endswith("PASS") for row in rows)


def test_average_on_an_even_class_stays_in_the_alternating_group(capsys):
    code, out, _ = run_cli(capsys, "average", "--graph", "group:symmetric:5:2")
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.splitlines()]
    odd = [k for k, rho in enumerate(partitions(5)) if (5 - len(rho)) % 2]
    assert odd == [1, 4, 5]
    assert [values[k] for k in odd] == [0.0, 0.0, 0.0]
    assert sum(values) == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize(
    "graph, reason",
    [
        ("catalog:wells", "no vertex builder for catalog entry 'wells'"),
        ("catalog:johnson:70,2", "2415 vertices exceed the oracle cap of 2000"),
    ],
)
def test_verify_says_when_it_skips_the_oracle(capsys, graph, reason):
    code, out, err = run_cli(capsys, "verify", "--graph", graph, "--steps", "8")
    assert code == 0
    assert err == f"oracle skipped: {reason}\n"
    rows = out.splitlines()[1:]
    closed_form = ["closed_form"] if graph == "catalog:wells" else []  # Johnson has none
    assert [row.split()[0] for row in rows] == ["unitarity", *closed_form, "eigenmatrix_duality"]
    assert all(row.endswith("PASS") for row in rows)


def test_verify_with_the_oracle_writes_nothing_to_stderr(capsys):
    code, _, err = run_cli(capsys, "verify", "--graph", "catalog:johnson:100,1", "--steps", "8")
    assert (code, err) == (0, "")


def test_verify_reports_a_numerical_defect_by_its_own_code(capsys):
    # P/Q loses precision on H(48,2) (see eigenstructure_from_array), so the
    # duality rows cannot be built; the array itself is valid.
    code, out, err = run_cli(capsys, "verify", "--graph", "catalog:hamming:48,2")
    assert code == 1
    assert out == ""
    assert err.startswith("numerical_instability: ")


@pytest.mark.parametrize("graph", ["catalog:hamming:20,2", "catalog:johnson:20,10"])
def test_verify_duality_threshold_scales_with_n(capsys, graph):
    code, out, _ = run_cli(capsys, "verify", "--graph", graph, "--steps", "8")
    assert code == 0
    assert "eigenmatrix_duality" in out and "FAIL" not in out


@pytest.mark.parametrize("graph, has_closed_form", [
    ("catalog:petersen", True),
    ("catalog:wells", True),
    ("catalog:incidence_pg:7", True),
    ("catalog:complete:6", True),
    ("catalog:cycle:12", True),
    ("catalog:hamming:4,3", True),
    ('{"kind": "product", "n": 3, "copies": 4}', True),
    ("srg:16,6,2,2", True),
    ("group:cyclic:12", True),
    ("group:symmetric:6", True),  # 11 irreps, 9 distinct transposition eigenvalues
    ("catalog:johnson:7,3", False),
    ("catalog:gen_dodecagon:2", False),
    ('{"kind": "intersection_array", "d": 2, "c_forward": [3, 2], "b_backward": [1, 1]}', False),
    ("group:dihedral:10", False),
    ("group:cyclic:12:2", False),
    ("group:symmetric:5:2", False),
])
def test_verify_checks_the_closed_form_where_there_is_one(capsys, graph, has_closed_form):
    code, out, _ = run_cli(capsys, "verify", "--graph", graph, "--steps", "8")
    assert code == 0 and "FAIL" not in out
    names = [row.split()[0] for row in out.splitlines()[1:]]
    leading = ["unitarity", *["closed_form"] * has_closed_form, "eigenmatrix_duality"]
    assert names[: len(leading)] == leading
    assert names.count("closed_form") == has_closed_form


def test_verify_fails_a_perturbed_closed_form(capsys, monkeypatch):
    def perturbed(d, n):
        exact = hamming_distribution(d, n)
        weights = exact.weights + np.array([1e-6, -1e-6] + [0.0] * (d - 1))
        return DiscreteDistribution(exact.atoms, weights)

    names, array_of, _ = _FAMILIES["hamming"]
    monkeypatch.setitem(_FAMILIES, "hamming", (names, array_of, perturbed))
    code, out, _ = run_cli(capsys, "verify", "--graph", '{"kind": "product", "n": 2, "copies": 4}')
    assert code == 1
    rows = {row.split()[0]: row.split()[1:] for row in out.splitlines()[1:]}
    assert float(rows["closed_form"][0]) == pytest.approx(1e-6, rel=1e-6)
    assert rows["closed_form"][2] == "FAIL"
    assert [name for name, row in rows.items() if row[2] == "FAIL"] == ["closed_form"]


def test_verify_fails_a_closed_form_with_other_atoms(capsys, monkeypatch):
    monkeypatch.setattr(walk_module, "cycle_distribution", complete_distribution)
    code, out, _ = run_cli(capsys, "verify", "--graph", "group:cyclic:7", "--steps", "8")
    assert code == 1
    assert out.splitlines()[2].split() == ["closed_form", "inf", "1e-10", "FAIL"]


def test_verify_forms_pq_once(capsys, monkeypatch):
    # The duality row reads the PQ - nI defect that validate measured.
    products = []

    class CountingP(np.ndarray):
        def __matmul__(self, other):
            products.append(other.shape)
            return np.asarray(self) @ other

    def counting(ia, jc=None):
        es = eigenstructure_from_array(ia, jc)
        return dataclasses.replace(es, P=es.P.view(CountingP))  # validated when built

    monkeypatch.setattr(cli_module, "eigenstructure_from_array", counting)
    code, out, _ = run_cli(capsys, "verify", "--graph", "catalog:petersen", "--steps", "8")
    assert code == 0 and "eigenmatrix_duality" in out
    assert products == [(3, 3)]


@pytest.mark.parametrize("command", ["walk", "spectrum", "average", "verify"])
@pytest.mark.parametrize("text", [
    "srg:13,3,-1,1",
    '{"kind": "srg", "n": 13, "kappa": 3, "lambda": -1, "eta": 1}',
    '{"kind": "intersection_array", "d": 2, "c_forward": [3, 3], "b_backward": [1, 1]}',
])
def test_a_negative_intersection_number_is_invalid(capsys, command, text):
    # a_1 = k - c_1 - b_1 = -1: a vertex at distance 1 has 3 + 1 neighbours off its stratum.
    code, out, err = run_cli(capsys, command, "--graph", text)
    assert (code, out) == (1, "")
    assert err == ("invalid_intersection_array: a vertex at distance 1 has 4 neighbours "
                   "off its stratum, over the degree 3\n")


def test_parser_is_built_once_and_reused(capsys):
    assert build_parser() is build_parser()
    calls = [
        ["walk", "--graph", "catalog:petersen", "--engine", "bogus"],
        ["walk", "--graph", "catalog:petersen", "--times", "0.5"],
    ]
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "schemewalk.cli", *argv], capture_output=True, text=True
        )
        for argv in calls
    ]
    assert in_process == [(r.returncode, r.stdout, r.stderr) for r in fresh]
    assert in_process[0][0] == 2 and in_process[1][0] == 0


ORACLE_BENCHMARK_GRAPHS = [
    "catalog:hamming:6,3",
    "catalog:johnson:13,4",
    "group:dihedral:350",
    "group:cyclic:600",
    "group:symmetric:6",
]


@pytest.mark.parametrize("graph", ORACLE_BENCHMARK_GRAPHS)
def test_verify_passes_on_the_largest_oracle_graphs(capsys, graph):
    code, out, _ = run_cli(capsys, "verify", "--graph", graph, "--steps", "16")
    assert code == 0
    rows = out.splitlines()[1:]
    # Arrays add BFS and the ladder, and all but Johnson and dihedral groups a closed form.
    assert len(rows) == {"catalog:hamming": 9, "catalog:johnson": 8, "group:dihedral": 6,
                         "group:cyclic": 7, "group:symmetric": 7}[graph.rsplit(":", 1)[0]]
    assert all(row.endswith("PASS") for row in rows)


# The oracle decomposes the tridiagonal matrix of its Lanczos run on the root's
# Krylov space (size m, d+1 on a distance-regular graph) through the engines'
# Jacobi solver, never the n x n adjacency matrix; an array adds one
# decomposition of its own Jacobi matrix (size d+1) before it.  C_12 is
# bipartite: both of its decompositions take the half-size SVD.
ORACLE_DECOMPOSITION_SIZES = {"catalog:johnson:7,3": [4, 4], "group:dihedral:6": [3],
                              "catalog:cycle:12": [7, 7]}


@pytest.mark.parametrize("graph", ORACLE_DECOMPOSITION_SIZES)
def test_verify_decomposes_the_oracle_graph_once(capsys, monkeypatch, graph):
    from schemewalk.spectral import JacobiCoefficients

    seen = []
    solve = JacobiCoefficients.eigh.func

    def counting_solve(jc):
        seen.append(len(jc.alpha))
        return solve(jc)

    counting = cached_property(counting_solve)
    counting.__set_name__(JacobiCoefficients, "eigh")
    monkeypatch.setattr(JacobiCoefficients, "eigh", counting)
    code, out, _ = run_cli(capsys, "verify", "--graph", graph, "--steps", "16")
    assert code == 0 and "FAIL" not in out
    assert seen == ORACLE_DECOMPOSITION_SIZES[graph]


def test_verify_exits_with_the_oracles_degenerate_atoms(capsys, monkeypatch):
    # The cyclic engine never builds a Jacobi matrix, so only the oracle's can raise.
    from schemewalk import spectral

    monkeypatch.setattr(spectral, "ATOM_SEPARATION", 10.0)
    assert run_cli(capsys, "walk", "--graph", "group:cyclic:12", "--steps", "2")[0] == 0
    code, out, err = run_cli(capsys, "verify", "--graph", "group:cyclic:12")
    assert code == 1 and "PASS" not in out
    assert err.startswith("degenerate_atoms: ")


@pytest.mark.parametrize("graph, sizes", [("catalog:cycle:201", [101, 101]),
                                          ("catalog:hamming:6,3", [7, 7])])
def test_verify_decomposes_an_arrays_jacobi_matrix_once(capsys, monkeypatch, graph, sizes):
    from schemewalk.spectral import JacobiCoefficients

    argv = ("verify", "--graph", graph, "--steps", "8")
    with monkeypatch.context() as patch:  # a fresh decomposition at every read
        patch.setattr(JacobiCoefficients, "eigh", property(JacobiCoefficients.eigh.func))
        code, fresh, _ = run_cli(capsys, *argv)
    assert code == 0
    seen = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        seen.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == fresh
    assert seen == sizes


def _readme_block(heading, language):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split(f"## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_quick_tour_runs(capsys):
    exec(_readme_block("Library quick tour", "python"), {})
    commands = [
        shlex.split(line)[1:]
        for line in _readme_block("Command line", "sh").splitlines()
        if line.startswith("schemewalk ")
    ]
    assert commands
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)


# The per-cell writer the CLI used before it formatted whole tables in one
# pass, kept as the byte-for-byte reference for the table writer.


def _fmt(x: float) -> str:
    out = f"{x:.12f}"
    return "0.000000000000" if out == "-0.000000000000" else out


def _reference_walk(times, amplitudes, fmt):
    rows = []
    for ti, t in enumerate(times):
        for k in range(amplitudes.shape[1]):
            amp = amplitudes[ti, k]
            rows.append((float(t), k, amp.real, amp.imag, abs(amp) ** 2))
    if fmt == "json":
        payload = [
            {
                "t": float(f"{t:.12g}"),
                "stratum": k,
                "re": float(f"{re:.12g}"),
                "im": float(f"{im:.12g}"),
                "prob": float(f"{prob:.12g}"),
            }
            for t, k, re, im, prob in rows
        ]
        return json.dumps(payload, indent=None, separators=(",", ":")) + "\n"
    return "".join(
        f"{_fmt(t)},{k},{_fmt(re)},{_fmt(im)},{_fmt(prob)}\n" for t, k, re, im, prob in rows
    )


def _reference_characters(values):
    lines = []
    for row in values:
        cells = []
        for value in row:
            re = value.real if value.real != 0 else 0.0
            im = value.imag if value.imag != 0 else 0.0
            cells.append(f"{re:.12g}{im:+.12g}i")
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def _stdout_of(argv):
    out = _CountingStdout()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    assert out.writes == 1
    return out.getvalue()


def _walk_stdout(times, amplitudes, fmt):
    series = AmplitudeSeries(
        np.asarray(times, dtype=float), ValencyVector((1,), 1), np.asarray(amplitudes)
    )
    with mock.patch.object(walk_module, "dispatch", lambda request: series):
        return _stdout_of(["walk", "--graph", "catalog:petersen", "--format", fmt])


EDGE_FLOATS = (
    0.0, -0.0, -1e-13, -4.9e-13, 4.9e-13, 1.0, -1.0, 3.0, 20.0, 1e-5, -1e-5, 0.1,
    0.9999999999996, 99999999999.96, 123456789012.0, 1.5e12, 1e16, -1e16,
    5e-324, -5e-324, 1e-310, 2.5e-320, 2.2250738585072014e-308, 1e-35,
)
TIMES = st.one_of(st.sampled_from([0.0, 1.0, 20.0, 1e-5, 1.5e12, 1e16, 5e-324]),
                  st.floats(min_value=0.0, max_value=1e300))
PARTS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(min_value=-1e150, max_value=1e150))


@st.composite
def walk_tables(draw):
    steps = draw(st.integers(0, 4))
    strata = draw(st.integers(1, 4))
    times = draw(st.lists(TIMES, min_size=steps, max_size=steps))
    parts = draw(st.lists(PARTS, min_size=2 * steps * strata, max_size=2 * steps * strata))
    amplitudes = np.array(parts, dtype=float).view(complex).reshape(steps, strata)
    return times, amplitudes


@settings(max_examples=300, deadline=None)
@given(walk_tables(), st.sampled_from(["csv", "json"]))
@example(([99999999999.96, 123456789012.0], np.array([[0.5 - 0.25j], [1.0]])), "json")
def test_walk_writer_matches_the_per_cell_reference(table, fmt):
    times, amplitudes = table
    assert _walk_stdout(times, amplitudes, fmt) == _reference_walk(times, amplitudes, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_walk_writer_edge_values(fmt):
    values = np.array(EDGE_FLOATS)
    amplitudes = values[:, None] + 1j * values[None, ::-1]
    times = np.abs(values)
    assert _walk_stdout(times, amplitudes, fmt) == _reference_walk(times, amplitudes, fmt)


def test_walk_writer_keeps_json_spelling_of_non_finite_values():
    amplitudes = np.array([[complex(math.inf, -math.inf), complex(math.nan, 0.0)]])
    expected = _reference_walk([0.0], amplitudes, "json")
    assert _walk_stdout([0.0], amplitudes, "json") == expected
    assert "Infinity" in expected and "NaN" in expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(PARTS, PARTS), max_size=12))
@example([(-1e-13, -4.9e-13), (-0.0, 1e16), (5e-324, -0.0)])
def test_spectrum_and_average_writers_match_the_per_cell_reference(rows):
    first = np.array([a for a, _ in rows], dtype=float)
    second = np.array([b for _, b in rows], dtype=float)
    spectrum = mock.Mock(atoms=first, table=second[:, None])
    spectrum.averages.return_value = mock.Mock(stratum=second)
    with mock.patch.object(walk_module, "resolve", lambda *args: spectrum):
        spectrum_out = _stdout_of(["spectrum", "--graph", "catalog:petersen"])
        average_out = _stdout_of(["average", "--graph", "catalog:petersen"])
    assert spectrum_out == "".join(f"{_fmt(a)},{_fmt(w)}\n" for a, w in zip(first, second))
    assert average_out == "".join(f"{k},{_fmt(v)}\n" for k, v in enumerate(second))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(PARTS, PARTS), min_size=1, max_size=12), st.integers(1, 4))
def test_characters_writer_matches_the_per_cell_reference(cells, classes):
    values = np.array([complex(*c) for c in cells] * classes).reshape(-1, classes)
    table = mock.Mock(values=values, n_classes=classes)
    with mock.patch.object(cli_module, "character_table", lambda descriptor: table):
        out = _stdout_of(["characters", "--group", "cyclic:3"])
    assert out == _reference_characters(values)


# cyclic:81 and dihedral:32 are the largest tables the benchmark prints; Z_81's 6561
# cells hold 81 distinct values, each formatted once.
@pytest.mark.parametrize(
    "group", ["cyclic:12", "dihedral:16", "symmetric:6", "cyclic:81", "dihedral:32"])
def test_characters_of_real_groups_match_the_per_cell_reference(group):
    from schemewalk.groups import character_table
    from schemewalk.schemes import GroupDescriptor

    kind, n = group.split(":")
    values = character_table(GroupDescriptor(kind, int(n))).values
    assert _stdout_of(["characters", "--group", group]) == _reference_characters(values)


@pytest.mark.parametrize(
    "argv",
    [
        ["walk", "--graph", "catalog:petersen", "--steps", "5"],
        ["walk", "--graph", "catalog:hamming:12,2", "--steps", "5", "--format", "json"],
        ["walk", "--graph", "group:dihedral:12", "--steps", "5", "--vertex-level"],
        ["spectrum", "--graph", "catalog:johnson:8,4"],
        ["spectrum", "--graph", "catalog:line"],
        ["average", "--graph", "catalog:hamming:12,2"],
        ["characters", "--group", "symmetric:5"],
        ["catalog", "list"],
        ["verify", "--graph", "catalog:petersen", "--steps", "4"],
    ],
)
def test_every_command_writes_stdout_once(argv):
    assert _stdout_of(argv)


def test_walk_on_real_schemes_matches_the_per_cell_reference():
    # The last two are the largest tables the benchmark prints: 64 steps of 101 strata
    # (C_201) and of 226 (D_898).
    for graph, t1, steps in (("catalog:hamming:20,2", 9, 7), ("group:cyclic:25", 9, 7),
                             ("catalog:cycle:201", 9, 7), ("catalog:cycle:201", 20, 64),
                             ("group:dihedral:449", 20, 64)):
        times = tuple(np.linspace(0, t1, steps))
        series = walk_module.dispatch(walk_module.WalkRequest(parse_graph_spec(graph), times))
        for fmt in ("csv", "json"):
            argv = ["walk", "--graph", graph, "--t1", str(t1), "--steps", str(steps),
                    "--format", fmt]
            assert _stdout_of(argv) == _reference_walk(series.times, series.amplitudes, fmt)


def test_zero_steps_print_an_empty_table(capsys):
    assert run_cli(capsys, "walk", "--graph", "catalog:petersen", "--steps", "0") == (0, "", "")
    code, out, _ = run_cli(
        capsys, "walk", "--graph", "catalog:petersen", "--steps", "0", "--format", "json"
    )
    assert (code, out) == (0, "[]\n")


@pytest.mark.parametrize("argv", [["--times=-0"], ["--t0=-0", "--t1", "1", "--steps", "2"]])
def test_negative_zero_time_prints_as_zero_in_both_formats(capsys, argv):
    _, csv_out, _ = run_cli(capsys, "walk", "--graph", "catalog:petersen", *argv)
    _, json_out, _ = run_cli(
        capsys, "walk", "--graph", "catalog:petersen", *argv, "--format", "json"
    )
    assert csv_out.startswith("0.000000000000,0,")
    assert json_out.startswith('[{"t":0.0,"stratum":0,')
    assert '"t":-0' not in json_out


@pytest.fixture
def eigh_sizes(monkeypatch):
    """The sizes of the Jacobi matrices decomposed while the test runs."""
    from schemewalk.spectral import JacobiCoefficients

    seen = []
    solve = JacobiCoefficients.eigh.func

    def counting_solve(jc):
        seen.append(len(jc.alpha))
        return solve(jc)

    counting = cached_property(counting_solve)
    counting.__set_name__(JacobiCoefficients, "eigh")
    monkeypatch.setattr(JacobiCoefficients, "eigh", counting)
    return seen


@pytest.mark.parametrize("argv", [
    ("--graph", "catalog:cycle:4001", "--engine", "spectral", "--t1", "40", "--steps", "64"),
    ("--graph", "catalog:cycle:4001", "--engine", "eigen", "--t1", "40", "--normalized"),
    ("--graph", "group:cyclic:3000", "--engine", "spectral", "--t1", "40", "--format", "json"),
])
def test_walks_on_long_chains_propagate_without_an_eigendecomposition(capsys, eigh_sizes, argv):
    code, out, _ = run_cli(capsys, "walk", *argv)
    assert code == 0 and eigh_sizes == [] and len(out) > 64 * 2000


@pytest.mark.parametrize("argv, rows", [(("--steps", "0"), 0), (("--times", "0"), 2001)])
def test_empty_and_origin_grids_on_a_long_chain(capsys, eigh_sizes, argv, rows):
    code, out, _ = run_cli(capsys, "walk", "--graph", "catalog:cycle:4001", *argv)
    assert code == 0 and eigh_sizes == [] and out.count("\n") == rows
    if rows:
        cells = [line.split(",") for line in out.splitlines()]
        assert cells[0] == ["0.000000000000", "0", "1.000000000000", "0.000000000000",
                            "1.000000000000"]
        assert all(row[2:] == ["0.000000000000"] * 3 for row in cells[1:])


# H(60,2) and Petersen, and one array of each family the cli workload walks at
# the default grid (t1 = 20, 64 steps): their light cones cover the chain.
EIGEN_ROUTE_GRAPHS = ["catalog:hamming:60,2", "catalog:petersen", "catalog:m22", "catalog:foster",
                      "catalog:incidence_pg:8", "srg:100,22,0,6", "catalog:complete:28",
                      "catalog:cycle:60", "catalog:hamming:6,4", "catalog:johnson:14,4",
                      "catalog:gen_octagon:4,3", "catalog:gen_dodecagon:3"]


@pytest.mark.parametrize("graph", EIGEN_ROUTE_GRAPHS)
@pytest.mark.parametrize("engine", ["eigen", "spectral", "auto"])
def test_short_chains_keep_one_eigendecomposition(capsys, eigh_sizes, graph, engine):
    code, _, _ = run_cli(capsys, "walk", "--graph", graph, "--engine", engine)
    assert code == 0 and len(eigh_sizes) == 1
