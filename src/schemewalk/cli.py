"""Command-line surface.

Subcommands: walk, spectrum, average, characters, catalog, verify.  Graph
specifications are JSON documents (inline or file) or compact tokens such as
``catalog:petersen``, ``srg:10,3,0,1`` and ``group:symmetric:4``, each of
which expands to the document it abbreviates before one schema check.  Output is
CSV (or JSON for walks), formatted to 12 digits and byte-identical across
runs.  Exit codes: 0 success, 1 computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import oracle, walk
from .catalog import catalog as catalog_lookup
from .catalog import catalog_names
from .errors import SchemaError, SchemeWalkError, TooLarge
from .groups import character_table, walk_scheme
from .schemes import (
    GROUP_KINDS,
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
from .spectral import jacobi_from_intersection
from .tolerances import (BFS_ARRAY_MATCH_TOL, CLOSED_FORM_TOL, LADDER_ACTIONS_TOL,
                         MATRIX_TOL, ORACLE_AGREEMENT_TOL, ORACLE_EIGEN_RESIDUAL_TOL,
                         ORACLE_ORTHONORMALITY_TOL, STRATUM_UNIFORMITY_TOL, UNITARITY_TOL)

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


def _spec_from_json(obj, default_kind: str | None = None) -> SchemeSpec:
    """The one schema check: a JSON document (without a kind, ``default_kind``) as a spec."""
    if not isinstance(obj, dict):
        raise SchemaError("/: expected a JSON object")
    kind = obj.get("kind", default_kind)
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
        if name not in GROUP_KINDS:
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
    params = _require_int_list(obj, "params") if "params" in obj else []
    catalog_lookup(name, tuple(params))  # reject unknown names and bad params now
    return FromCatalog(name, tuple(params))


# token head -> (separator of its parts, the document fields they fill in order)
_TOKENS = {
    "catalog": (":", ("name", "params")),
    "srg": (",", ("n", "kappa", "lambda", "eta")),
    "group": (":", ("group", "n", "class")),
}


def _token_value(field: str, part: str):
    """The document value of a token part: text for a name, a list for params,
    else an integer.  Only a full ``-?[0-9]+`` is an integer, as in JSON; any
    other part stays text, for the schema check to reject."""
    if field in ("name", "group"):
        return part
    if field == "params":
        return [_token_value("n", x) for x in part.split(",") if x]
    return int(part) if re.fullmatch("-?[0-9]+", part) else part


def _document(text: str):
    """The JSON document a spec text stands for: a token's expansion, inline JSON
    or the JSON of a file."""
    head, colon, body = text.partition(":")
    if colon and head in _TOKENS:
        separator, fields = _TOKENS[head]
        parts = body.split(separator)
        if len(parts) > len(fields):
            raise SchemaError(f"{head} token takes at most {separator.join(fields)}")
        return {"kind": head, **{f: _token_value(f, p) for f, p in zip(fields, parts)}}
    raw = text
    if not text.lstrip().startswith("{"):
        try:
            with open(text, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError as exc:
            raise SchemaError(f"cannot read graph spec file {text!r}: {exc}") from exc
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"/: malformed JSON ({exc.msg})") from exc


def parse_graph_spec(text: str) -> SchemeSpec:
    """Turn a CLI token, inline JSON or JSON file path into a scheme specification."""
    return _spec_from_json(_document(text))


class _UsageExit(Exception):
    """Wraps a parse-phase library error so main() can exit with status 2."""

    def __init__(self, inner: SchemeWalkError):
        super().__init__(str(inner))
        self.inner = inner


def _parse_spec(text: str, default_kind: str | None = None) -> SchemeSpec:
    """parse_graph_spec for a command, where a document without a kind takes
    ``default_kind``; every error but TooLarge is a usage error."""
    try:
        if default_kind is None:
            return parse_graph_spec(text)
        return _spec_from_json(_document(text), default_kind)
    except TooLarge:
        raise  # a well-formed spec over the size budget is not a usage error
    except SchemeWalkError as exc:
        raise _UsageExit(exc) from exc


_ZERO = "0.000000000000"
_JSON_ROW = '{{"t":{t},"stratum":{k},"re":{:.12},"im":{:.12},"prob":{:.12}}},'
_JSON_REPR = re.compile(r":(-?[\d.]+e(?:\+|-3\d)\d+)")


def _walk_rows(row: str, times: np.ndarray, time_format: str, strata: int) -> str:
    """``row`` for every (time, stratum), with the time in ``time_format`` in place of ``{t}``
    and the stratum label in place of ``{k}``: each is written once, not once per row."""
    head, tail = row.split("{k}")
    pieces = (head + (tail + head).join(map(str, range(strata))) + tail).split("{t}")
    return "".join([format(t, time_format).join(pieces) for t in times.tolist()])


def _csv(rows: str, *columns) -> str:
    """The template ``rows`` filled with the columns row by row, with every %.12f cell
    printing -0 as 0.

    The columns are stacked as floats, which ``%d`` prints as integers.
    """
    text = "\n" + rows % tuple(np.column_stack(columns).ravel().tolist())
    return text.replace("\n-" + _ZERO, "\n" + _ZERO).replace(",-" + _ZERO, "," + _ZERO)[1:]


def _json_walk(times, strata: int, *columns) -> str:
    """Walk rows as one JSON array whose floats print as json.dumps prints the
    values rounded to 12 significant digits.

    "{:.12}" is "%.12g" that keeps ".0" on integers, as repr does.  Where it
    shows an exponent that repr would not (from about 1e11) or a subnormal
    with more digits than its repr, the cell is printed again by repr.
    """
    values = np.column_stack(columns)
    rows = _walk_rows(_JSON_ROW, times, ".12", strata)
    text = rows.format(*values.ravel().tolist())[:-1]
    magnitude = np.abs(np.concatenate((values.ravel(), times)))
    if not np.all((magnitude < 9e10) & ((magnitude > 1e-300) | (magnitude == 0))):
        text = _JSON_REPR.sub(lambda m: ":" + repr(float(m[1])), text)
    return "[" + text.replace("inf", "Infinity").replace("nan", "NaN") + "]\n"


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
    grid = np.asarray(points if times is not None else np.linspace(t0, t1, steps), float)
    return tuple(grid + 0.0)  # -0.0 + 0.0 is 0.0, so -0 prints as 0 in every format


def _cmd_walk(args) -> int:
    spec = _parse_spec(args.graph)
    times = _time_grid(args.times, args.t0, args.t1, args.steps, 0)
    series = walk.dispatch(walk.WalkRequest(spec, times, args.engine, args.normalized))
    if args.vertex_level:
        series = series.to_vertex()
    strata = series.amplitudes.shape[1]
    amps = series.amplitudes.ravel()
    # np.hypot is abs(amp) bit for bit, and a float's ** 2 is the scalar pow;
    # x * x can differ from it in the last bit.
    prob = [m**2 for m in np.hypot(amps.real, amps.imag).tolist()]
    if args.format == "json":
        sys.stdout.write(_json_walk(series.times, strata, amps.real, amps.imag, prob))
    else:
        rows = _walk_rows("{t},{k},%.12f,%.12f,%.12f\n", series.times, ".12f", strata)
        sys.stdout.write(_csv(rows, amps.real, amps.imag, prob))
    return 0


def _cmd_spectrum(args) -> int:
    spec = _parse_spec(args.graph)
    entry = catalog_lookup(spec.name, spec.params) if isinstance(spec, FromCatalog) else None
    if entry is not None and entry.array is None:
        atoms, weights = entry.expected.atoms, entry.expected.weights
    else:
        spectrum = walk.resolve(spec, "spectral")
        atoms, weights = spectrum.atoms, spectrum.table[:, 0]
    sys.stdout.write(_csv("%.12f,%.12f\n" * len(atoms), atoms, weights))
    return 0


def _cmd_average(args) -> int:
    spec = _parse_spec(args.graph)
    averages = walk.resolve(spec).averages()
    values = averages.vertex if args.vertex_level else averages.stratum
    sys.stdout.write(_csv("%d,%.12f\n" * len(values), np.arange(len(values)), values))
    return 0


def _cmd_characters(args) -> int:
    text = args.group
    # The short forms <kind>:<n> and {"group": ..., "n": ...} leave out the
    # token head and the document kind.
    if ":" in text and not text.lstrip().startswith(("group:", "{")):
        text = "group:" + text
    spec = _parse_spec(text, "group")
    if not isinstance(spec, FromGroup):
        raise SchemaError("/kind: characters needs a group specification")
    table = character_table(spec.group)
    values = table.values + 0.0  # -0.0 + 0.0 is 0.0, in both parts
    # Equal values print alike, so each distinct value is formatted once.
    distinct, index = np.unique(values.ravel(), return_inverse=True)
    cells = np.array(["%.12g%+.12gi" % (z.real, z.imag) for z in distinct.tolist()], object)
    row = ",".join(["%s"] * table.n_classes) + "\n"
    sys.stdout.write(row * len(values) % tuple(cells[index].tolist()))
    return 0


def _cmd_catalog(args) -> int:
    if args.action != "list":
        raise SchemaError("catalog supports only the 'list' action")
    sys.stdout.write("".join(f"{name}\n" for name in catalog_names()))
    return 0


def _verify_checks(spec: SchemeSpec, times) -> tuple[list[tuple[str, float, float]], str]:
    """The (name, value, threshold) rows, and why the oracle rows are missing ("" if not)."""
    try:
        graph, skipped = oracle.build_graph(spec), ""
    except SchemeWalkError as exc:
        graph, skipped = None, str(exc)
    if isinstance(spec, FromGroup):
        es, ia = walk_scheme(spec.group, spec.generating_class), None
        spectrum = walk.eigen_spectrum(es)
    else:
        ia = walk.intersection_array(spec)
        jc = jacobi_from_intersection(ia)  # one decomposition for both routes
        es = eigenstructure_from_array(ia, jc)
        spectrum = walk.jacobi_spectrum(ia, jc)
    series = spectrum.amplitudes(times)

    checks = [("unitarity", series.unitarity_defect(), UNITARITY_TOL)]
    closed = walk.closed_form(spec)
    if closed is not None:
        atoms, weights = spectrum.distribution()
        defect = np.inf  # unless both have the same number of distinct atoms
        if atoms.shape == closed.atoms.shape:
            deviation = np.subtract((atoms, weights), (closed.atoms, closed.weights))
            defect = float(np.max(np.abs(deviation)))
        checks.append(("closed_form", defect, CLOSED_FORM_TOL))
    del spectrum  # its (d+1)^2 table need not stay alive through the oracle rows
    checks.append(("eigenmatrix_duality", es.duality_defect, MATRIX_TOL * es.n))
    if graph is None:
        return checks, skipped
    ortho, resid = oracle.eigensolver_residuals(graph)
    checks.append(("oracle_orthonormality", ortho, ORACLE_ORTHONORMALITY_TOL))
    checks.append(("oracle_eigen_residual", resid, ORACLE_EIGEN_RESIDUAL_TOL))
    if ia is None:
        strata = graph.strata
    else:
        partition, bfs_ia = oracle.bfs_strata(graph)
        checks.append(("bfs_array_match", float(bfs_ia != ia), BFS_ARRAY_MATCH_TOL))
        strata = partition.strata
    vertex_amps = oracle.exact_walk(graph, times)
    exact = oracle.stratum_amplitudes(graph, strata, times, vertex_amps)
    agreement = float(np.max(np.abs(exact - series.amplitudes)))
    checks.append(("oracle_agreement", agreement, ORACLE_AGREEMENT_TOL))
    uniformity = oracle.check_stratum_uniformity(graph, strata, times, vertex_amps)
    checks.append(("stratum_uniformity", uniformity, STRATUM_UNIFORMITY_TOL))
    if ia is not None:
        ladder = oracle.ladder_residual(graph, partition, bfs_ia)
        checks.append(("ladder_actions", ladder, LADDER_ACTIONS_TOL))
    return checks, skipped


def _cmd_verify(args) -> int:
    spec = _parse_spec(args.graph)
    times = np.array(_time_grid(None, 0.0, args.t1, args.steps, 1))
    checks, skipped = _verify_checks(spec, times)
    if skipped:
        sys.stderr.write(f"oracle skipped: {skipped}\n")
    passed = [value < threshold for _, value, threshold in checks]
    lines = [f"{'check':<24}{'max_dev':>14}{'threshold':>12}  status\n"] + [
        f"{name:<24}{value:>14.3e}{threshold:>12.0e}  {'PASS' if ok else 'FAIL'}\n"
        for (name, value, threshold), ok in zip(checks, passed)
    ]
    sys.stdout.write("".join(lines))
    return 0 if all(passed) else 1


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
    p_walk.add_argument("--engine", choices=walk.ENGINES, default="auto")
    p_walk.add_argument("--normalized", action="store_true", help="divide A by its degree")
    p_walk.add_argument(
        "--vertex-level", action="store_true", help="per-vertex instead of per-stratum"
    )
    p_walk.add_argument("--format", choices=("csv", "json"), default="csv")

    p_spec = sub.add_parser("spectrum", help="spectral distribution atoms and weights")
    add_graph(p_spec)

    p_avg = sub.add_parser("average", help="long-time average probabilities")
    add_graph(p_avg)
    p_avg.add_argument("--vertex-level", action="store_true")

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
