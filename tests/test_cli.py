import json
import math
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from schemewalk import oracle
from schemewalk.cli import build_parser, main, parse_graph_spec
from schemewalk.errors import SchemaError, UnknownCatalogName
from schemewalk.groups import partitions
from schemewalk.schemes import FromCatalog, FromGroup, FromSRG, eigenstructure_from_array
from schemewalk.walk import eigen_spectrum, intersection_array, jacobi_spectrum


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


def test_product_json_spec(capsys):
    code, out, _ = run_cli(
        capsys, "walk", "--graph", '{"kind":"product","n":2,"copies":2}',
        "--times", "0.9",
    )
    assert code == 0
    re0, im0 = (float(x) for x in out.splitlines()[0].split(",")[2:4])
    assert complex(re0, im0) == pytest.approx(math.cos(0.9) ** 2, abs=1e-10)


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
    assert len(rows) == 4
    assert all(row.endswith("PASS") for row in rows)


def test_average_on_an_even_class_stays_in_the_alternating_group(capsys):
    code, out, _ = run_cli(capsys, "average", "--graph", "group:symmetric:5:2")
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.splitlines()]
    odd = [k for k, rho in enumerate(partitions(5)) if (5 - len(rho)) % 2]
    assert odd == [1, 4, 5]
    assert [values[k] for k in odd] == [0.0, 0.0, 0.0]
    assert sum(values) == pytest.approx(1.0, abs=1e-11)


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
    assert len(rows) == (4 if graph.startswith("group:") else 9)
    assert all(row.endswith("PASS") for row in rows)


@pytest.mark.parametrize("graph", ["catalog:johnson:7,3", "group:dihedral:6"])
def test_verify_decomposes_the_oracle_graph_once(capsys, monkeypatch, graph):
    n = oracle.build_graph(parse_graph_spec(graph)).n
    sizes = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        sizes.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    code, out, _ = run_cli(capsys, "verify", "--graph", graph, "--steps", "16")
    assert code == 0 and "FAIL" not in out
    assert sizes.count(n) == 1


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
