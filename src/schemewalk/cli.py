"""Command-line surface.

Subcommands: walk, spectrum, average, characters, catalog, verify.  Graph
specifications are JSON documents (inline or file) or compact tokens such as
``catalog:petersen``, ``srg:10,3,0,1`` and ``group:symmetric:4``.  Output is
CSV (or JSON for walks), formatted to 12 digits and byte-identical across
runs.  Exit codes: 0 success, 1 computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import oracle, walk
from .catalog import catalog as catalog_lookup
from .catalog import catalog_names
from .errors import SchemaError, SchemeWalkError
from .groups import character_table, walk_scheme
from .schemes import (
    MATRIX_TOL,
    FromCatalog,
    FromGroup,
    FromIntersectionArray,
    FromSRG,
    GroupDescriptor,
    IntersectionArray,
    ProductScheme,
    SchemeSpec,
    eigenstructure_from_array,
)

_SCHEMAS = {
    "intersection_array": {"kind", "d", "c_forward", "b_backward"},
    "group": {"kind", "group", "n", "class"},
    "srg": {"kind", "n", "kappa", "lambda", "eta"},
    "product": {"kind", "n", "copies"},
    "catalog": {"kind", "name", "params"},
}


def _require_int(obj: dict, key: str) -> int:
    if key not in obj:
        raise SchemaError(f"/{key}: required field missing")
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"/{key}: expected an integer")
    return value


def _require_int_list(obj: dict, key: str) -> list[int]:
    if key not in obj:
        raise SchemaError(f"/{key}: required field missing")
    value = obj[key]
    if not isinstance(value, list) or any(
        not isinstance(x, int) or isinstance(x, bool) for x in value
    ):
        raise SchemaError(f"/{key}: expected an array of integers")
    return value


def _spec_from_json(obj) -> SchemeSpec:
    if not isinstance(obj, dict):
        raise SchemaError("/: expected a JSON object")
    kind = obj.get("kind")
    if kind not in _SCHEMAS:
        raise SchemaError(f"/kind: expected one of {sorted(_SCHEMAS)}")
    unknown = set(obj) - _SCHEMAS[kind]
    if unknown:
        raise SchemaError(f"/{sorted(unknown)[0]}: unknown field")
    if kind == "intersection_array":
        d = _require_int(obj, "d")
        c = _require_int_list(obj, "c_forward")
        b = _require_int_list(obj, "b_backward")
        if len(c) != d:
            raise SchemaError("/c_forward: expected d entries")
        if len(b) != d:
            raise SchemaError("/b_backward: expected d entries")
        return FromIntersectionArray(IntersectionArray(d=d, c=tuple(c), b=tuple(b)))
    if kind == "group":
        name = obj.get("group")
        if name not in ("cyclic", "dihedral", "symmetric"):
            raise SchemaError("/group: expected cyclic, dihedral or symmetric")
        n = _require_int(obj, "n")
        generating = obj.get("class")
        if generating is not None and (
            not isinstance(generating, int) or isinstance(generating, bool)
        ):
            raise SchemaError("/class: expected an integer")
        return FromGroup(GroupDescriptor(name, n), generating)
    if kind == "srg":
        return FromSRG(
            _require_int(obj, "n"),
            _require_int(obj, "kappa"),
            _require_int(obj, "lambda"),
            _require_int(obj, "eta"),
        )
    if kind == "product":
        return ProductScheme(_require_int(obj, "n"), _require_int(obj, "copies"))
    name = obj.get("name")
    if not isinstance(name, str):
        raise SchemaError("/name: expected a string")
    params = obj.get("params", [])
    if not isinstance(params, list) or any(
        not isinstance(x, int) or isinstance(x, bool) for x in params
    ):
        raise SchemaError("/params: expected an array of integers")
    catalog_lookup(name, tuple(params))  # reject unknown names and bad params now
    return FromCatalog(name, tuple(params))


class _UsageExit(Exception):
    """Wraps a parse-phase library error so main() can exit with status 2."""

    def __init__(self, inner: SchemeWalkError):
        super().__init__(str(inner))
        self.inner = inner


def _parse_spec(text: str) -> SchemeSpec:
    try:
        return parse_graph_spec(text)
    except SchemeWalkError as exc:
        raise _UsageExit(exc) from exc


def _ints(text: str, context: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError as exc:
        raise SchemaError(f"{context}: expected comma-separated integers") from exc


def parse_graph_spec(text: str) -> SchemeSpec:
    """Turn a CLI token, inline JSON or JSON file path into a scheme specification."""
    if text.startswith("catalog:"):
        parts = text.split(":")
        name = parts[1] if len(parts) > 1 else ""
        params = _ints(parts[2], "catalog params") if len(parts) > 2 else ()
        catalog_lookup(name, tuple(params))  # validate name and params now
        return FromCatalog(name, tuple(params))
    if text.startswith("srg:"):
        params = _ints(text[4:], "srg params")
        if len(params) != 4:
            raise SchemaError("srg token needs n,kappa,lambda,eta")
        return FromSRG(*params)
    if text.startswith("group:"):
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise SchemaError("group token is group:<kind>:<n>[:<class>]")
        (n,) = _ints(parts[2], "group order")
        generating = None
        if len(parts) == 4:
            (generating,) = _ints(parts[3], "generating class")
        return FromGroup(GroupDescriptor(parts[1], n), generating)
    if text.lstrip().startswith("{"):
        try:
            return _spec_from_json(json.loads(text))
        except json.JSONDecodeError as exc:
            raise SchemaError(f"/: malformed JSON ({exc.msg})") from exc
    try:
        with open(text, "r", encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as exc:
        raise SchemaError(f"cannot read graph spec file {text!r}: {exc}") from exc
    try:
        return _spec_from_json(json.loads(raw))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"/: malformed JSON ({exc.msg})") from exc


def _fmt(x: float) -> str:
    out = f"{x:.12f}"
    return "0.000000000000" if out == "-0.000000000000" else out


def _time_grid(
    times: str | None, t0: float, t1: float, steps: int, min_steps: int
) -> tuple[float, ...]:
    """The listed times, or ``steps`` points from t0 to t1; a bad grid is a usage error."""
    if times is not None:
        try:
            points = tuple(float(x) for x in times.split(",") if x != "")
        except ValueError as exc:
            raise SchemaError("--times: expected comma-separated reals") from exc
    elif steps < min_steps:
        raise SchemaError(f"--steps: expected at least {min_steps}, got {steps}")
    else:
        points = (t0, t1)
    if not all(math.isfinite(t) and t >= 0 for t in points):
        raise SchemaError("times must be finite and nonnegative")
    return points if times is not None else tuple(np.linspace(t0, t1, steps))


def _with_class_override(spec: SchemeSpec, args) -> SchemeSpec:
    override = getattr(args, "gen_class", None)
    if override is None:
        return spec
    if not isinstance(spec, FromGroup):
        raise SchemaError("--class only applies to group specifications")
    return FromGroup(spec.group, override)


def _walk_rows(args) -> list[tuple[float, int, float, float, float]]:
    spec = _with_class_override(_parse_spec(args.graph), args)
    times = _time_grid(args.times, args.t0, args.t1, args.steps, 0)
    series = walk.dispatch(
        walk.WalkRequest(spec, times, args.engine, args.normalized)
    )
    if args.vertex_level:
        series = series.to_vertex()
    rows = []
    for ti, t in enumerate(series.times):
        for k in range(series.amplitudes.shape[1]):
            amp = series.amplitudes[ti, k]
            rows.append((float(t), k, amp.real, amp.imag, abs(amp) ** 2))
    return rows


def _cmd_walk(args) -> int:
    rows = _walk_rows(args)
    if args.format == "json":
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
        print(json.dumps(payload, indent=None, separators=(",", ":")))
    else:
        for t, k, re, im, prob in rows:
            print(f"{_fmt(t)},{k},{_fmt(re)},{_fmt(im)},{_fmt(prob)}")
    return 0


def _cmd_spectrum(args) -> int:
    spec = _parse_spec(args.graph)
    entry = catalog_lookup(spec.name, spec.params) if isinstance(spec, FromCatalog) else None
    if entry is not None and entry.array is None:
        rows = zip(entry.expected.nodes, entry.expected.node_weights)
    else:
        spectrum = walk.resolve(spec, "spectral")
        rows = zip(spectrum.atoms, spectrum.table[:, 0])
    for atom, weight in rows:
        print(f"{_fmt(atom)},{_fmt(weight)}")
    return 0


def _cmd_average(args) -> int:
    spec = _with_class_override(_parse_spec(args.graph), args)
    averages = walk.resolve(spec).averages()
    values = averages.vertex if args.vertex_level else averages.stratum
    for k, value in enumerate(values):
        print(f"{k},{_fmt(value)}")
    return 0


def _descriptor_from_token(token: str) -> GroupDescriptor:
    if token.startswith("group:"):
        spec = parse_graph_spec(token)
        assert isinstance(spec, FromGroup)
        return spec.group
    raw: str | None = None
    if token.lstrip().startswith("{"):
        raw = token
    elif ":" in token:
        kind, _, tail = token.partition(":")
        (n,) = _ints(tail, "group order")
        return GroupDescriptor(kind, n)
    else:
        try:
            with open(token, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError as exc:
            raise SchemaError(f"cannot read group descriptor {token!r}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"/: malformed JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise SchemaError("/: expected a JSON object")
    if "kind" in obj:
        spec = _spec_from_json(obj)
        if not isinstance(spec, FromGroup):
            raise SchemaError("/kind: characters needs a group specification")
        return spec.group
    unknown = set(obj) - {"group", "n"}
    if unknown:
        raise SchemaError(f"/{sorted(unknown)[0]}: unknown field")
    if obj.get("group") not in ("cyclic", "dihedral", "symmetric"):
        raise SchemaError("/group: expected cyclic, dihedral or symmetric")
    return GroupDescriptor(obj["group"], _require_int(obj, "n"))


def _cmd_characters(args) -> int:
    try:
        descriptor = _descriptor_from_token(args.group)
    except SchemeWalkError as exc:
        raise _UsageExit(exc) from exc
    table = character_table(descriptor)
    for i in range(len(table.irrep_dims)):
        cells = []
        for k in range(table.n_classes):
            value = table.values[i, k]
            re = value.real if value.real != 0 else 0.0
            im = value.imag if value.imag != 0 else 0.0
            cells.append(f"{re:.12g}{im:+.12g}i")
        print(",".join(cells))
    return 0


def _cmd_catalog(args) -> int:
    if args.action != "list":
        raise SchemaError("catalog supports only the 'list' action")
    for name in catalog_names():
        print(name)
    return 0


def _verify_checks(spec: SchemeSpec, times) -> list[tuple[str, float, float]]:
    try:
        graph = oracle.build_graph(spec)
    except SchemeWalkError:
        graph = None
    if isinstance(spec, FromGroup):
        scheme = walk_scheme(spec.group, spec.generating_class)
        es, ia = scheme.eigenstructure, None
        series = walk.eigen_spectrum(es, scheme.generating).amplitudes(times)
    else:
        ia = walk.intersection_array(spec)
        es = eigenstructure_from_array(ia)
        series = walk.jacobi_spectrum(ia).amplitudes(times)

    checks = [("unitarity", series.unitarity_defect(), walk.UNITARITY_TOL)]
    if ia is not None:
        eig_series = walk.eigen_spectrum(es).amplitudes(times)
        agreement = float(np.max(np.abs(eig_series.amplitudes - series.amplitudes)))
        checks.append(("engine_agreement", agreement, 1e-10))
    pq = float(np.max(np.abs(es.P @ es.Q - es.n * np.eye(es.d + 1))))
    checks.append(("eigenmatrix_duality", pq, MATRIX_TOL * es.n))
    if graph is None:
        return checks
    if ia is None:
        strata = tuple(
            tuple(v for c in grp for v in graph.class_partition[c])
            for grp in scheme.class_groups
        )
    else:
        ortho, resid = oracle.eigensolver_residuals(graph)
        checks.append(("oracle_orthonormality", ortho, 1e-10))
        checks.append(("oracle_eigen_residual", resid, 1e-8))
        partition, bfs_ia = oracle.bfs_strata(graph)
        checks.append(("bfs_array_match", float(bfs_ia != ia), 0.5))
        strata = partition.strata
    vertex_amps = oracle.exact_walk(graph, times)
    exact = oracle.stratum_amplitudes(graph, strata, times, vertex_amps)
    checks.append(
        ("oracle_agreement", float(np.max(np.abs(exact - series.amplitudes))), 1e-8)
    )
    uniformity = oracle.check_stratum_uniformity(graph, strata, times, vertex_amps)
    checks.append(("stratum_uniformity", uniformity, 1e-9))
    if ia is not None:
        checks.append(
            ("ladder_actions", oracle.ladder_residual(graph, partition, bfs_ia), 1e-10)
        )
    return checks


def _cmd_verify(args) -> int:
    spec = _parse_spec(args.graph)
    times = np.array(_time_grid(None, 0.0, args.t1, args.steps, 1))
    checks = _verify_checks(spec, times)
    failed = False
    print(f"{'check':<24}{'max_dev':>14}{'threshold':>12}  status")
    for name, value, threshold in checks:
        ok = value < threshold
        failed = failed or not ok
        print(f"{name:<24}{value:>14.3e}{threshold:>12.0e}  {'PASS' if ok else 'FAIL'}")
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="schemewalk",
        description="Continuous-time quantum walks on graphs of association schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph(p):
        p.add_argument(
            "--graph",
            required=True,
            help="JSON file, inline JSON, or token (catalog:..., srg:..., group:...)",
        )

    p_walk = sub.add_parser("walk", help="stratum amplitudes on a time grid")
    add_graph(p_walk)
    p_walk.add_argument("--times", help="comma-separated time points")
    p_walk.add_argument("--t0", type=float, default=0.0)
    p_walk.add_argument("--t1", type=float, default=20.0)
    p_walk.add_argument("--steps", type=int, default=64)
    p_walk.add_argument(
        "--engine", choices=("eigen", "character", "spectral", "auto"), default="auto"
    )
    p_walk.add_argument("--normalized", action="store_true", help="divide A by its degree")
    p_walk.add_argument(
        "--vertex-level", action="store_true", help="per-vertex instead of per-stratum"
    )
    p_walk.add_argument("--format", choices=("csv", "json"), default="csv")
    p_walk.add_argument(
        "--class", dest="gen_class", type=int, help="generating class for group schemes"
    )

    p_spec = sub.add_parser("spectrum", help="spectral distribution atoms and weights")
    add_graph(p_spec)

    p_avg = sub.add_parser("average", help="long-time average probabilities")
    add_graph(p_avg)
    p_avg.add_argument("--vertex-level", action="store_true")
    p_avg.add_argument(
        "--class", dest="gen_class", type=int, help="generating class for group schemes"
    )

    p_chars = sub.add_parser("characters", help="character table as CSV")
    p_chars.add_argument(
        "--group", required=True, help="group descriptor (cyclic:5, JSON, or file)"
    )

    p_cat = sub.add_parser("catalog", help="catalog queries")
    p_cat.add_argument("action", nargs="?", default="list")

    p_ver = sub.add_parser("verify", help="invariant battery for one graph")
    add_graph(p_ver)
    p_ver.add_argument("--t1", type=float, default=20.0)
    p_ver.add_argument("--steps", type=int, default=64)

    return parser


_HANDLERS = {
    "walk": _cmd_walk,
    "spectrum": _cmd_spectrum,
    "average": _cmd_average,
    "characters": _cmd_characters,
    "catalog": _cmd_catalog,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except _UsageExit as exc:
        print(f"{exc.inner.code}: {exc.inner}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 2
    except SchemeWalkError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
