"""One workload process: set up, run whole rounds of requests, check every output.

Started by run.py in a fresh interpreter with schemewalk on PYTHONPATH.
Modes:
  setup  import, generate inputs, warm up; report the moment it was ready
  run    setup, then rounds for --seconds; end-to-end figures
  trace  setup, untraced rounds for half of --seconds, then traced rounds
         for the other half; per-layer figures and the tracing overhead

The closed loop has one client: each request starts when the previous one
has returned.  A round runs every request once, in the seeded order; the
run stops after whole rounds only, so the share of failed operations is the
same in every run.  Each request's time is its fastest round: on a shared
machine whose CPU speed changes by up to 1.7x within seconds, the minimum
across rounds repeats from run to run far better than the median does.
The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import reference
import workloads

MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 2
LAYERS = ("cli", "catalog", "schemes", "spectral", "groups", "walk", "oracle")


class Program:
    """The schemewalk modules, looked up at call time so traced wrappers apply."""

    def __init__(self) -> None:
        import schemewalk

        self.package = schemewalk
        self.layers = {name: importlib.import_module(f"schemewalk.{name}") for name in LAYERS}
        self.error = schemewalk.SchemeWalkError
        for name, module in self.layers.items():
            setattr(self, name, module)

    def array_of(self, spec):
        """Intersection array of a parsed spec, through public functions only."""
        S = self.schemes
        if isinstance(spec, S.FromCatalog):
            return self.catalog.catalog(spec.name, spec.params).array
        if isinstance(spec, S.FromIntersectionArray):
            return spec.array
        if isinstance(spec, S.ProductScheme):
            return self.walk.hamming_intersection_array(spec.copies, spec.n)
        return self.spectral.srg_intersection_array(spec.kappa, spec.lam, spec.eta)


def _grid(req) -> tuple[float, ...]:
    return tuple(float(t) for t in np.linspace(0.0, req["t1"], req["steps"]))


def build_call(req: dict, p: Program):
    """A zero-argument callable doing the request's program work."""
    op = req["op"]
    if op == "cli":
        argv = req["argv"]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = p.cli.main(list(argv))
            return rc, out.getvalue(), err.getvalue()

        return call
    if op == "line":
        times, k_max = _grid(req), req["k_max"]
        return lambda: p.walk.line_walk(times, k_max)
    text = req["spec"]
    if op == "walk":
        times, engine, normalized = _grid(req), req["engine"], req["normalized"]
        return lambda: p.walk.dispatch(
            p.walk.WalkRequest(p.cli.parse_graph_spec(text), times, engine, normalized))
    if op == "vertex":
        times = _grid(req)

        def call():
            graph = p.oracle.build_graph(p.cli.parse_graph_spec(text))
            partition, ia = p.oracle.bfs_strata(graph)
            amps = p.oracle.stratum_amplitudes(graph, partition.strata, times)
            return amps, (ia.c, ia.b), p.oracle.ladder_residual(graph, partition, ia)

        return call
    if op == "average":
        def call():
            spec = p.cli.parse_graph_spec(text)
            if isinstance(spec, p.schemes.FromGroup):
                return p.walk.average_probabilities(p.groups.walk_scheme(spec.group))
            ia = p.array_of(spec)
            jc = p.spectral.jacobi_from_intersection(ia)
            return p.walk.average_from_distribution(p.spectral.golub_welsch(jc), jc, ia)

        return call
    if op == "spectrum":
        def call():
            ia = p.array_of(p.cli.parse_graph_spec(text))
            return p.spectral.golub_welsch(p.spectral.jacobi_from_intersection(ia))

        return call
    raise ValueError(f"unknown op {op!r}")


def check(req: dict, out) -> None:
    """Raise reference.Mismatch unless the output agrees with the references."""
    op, model = req["op"], req["model"]
    if op == "walk":
        times = _grid(req)
        reference.check_times(out.times, times)
        reference.check_amplitudes(model, times, out.amplitudes, normalized=req["normalized"])
    elif op == "line":
        reference.check_times(out.times, _grid(req))
        reference.check_line_walk(_grid(req), req["k_max"], out.amplitudes)
    elif op == "vertex":
        amps, array, residual = out
        reference.check_amplitudes(model, _grid(req), amps)
        reference.check_ladder(model, array, residual)
    elif op == "average":
        reference.check_averages(model, out.stratum)
        reference.check_averages(model, out.vertex, vertex_level=True)
    elif op == "spectrum":
        reference.check_spectrum(model, out.atoms, out.weights)
    else:
        _check_cli(req, *out)


def _check_cli(req: dict, rc: int, stdout: str, stderr: str) -> None:
    c, model = req["check"], req["model"]
    kind = c["kind"]
    if kind == "verify":
        reference.check_verify_table(rc, stdout)
        return
    if rc != 0:
        raise reference.Mismatch(f"exit status {rc}: {stderr.strip()}")
    if kind == "walk":
        times, amps = reference.parse_walk(stdout, c["fmt"])
        requested = c["times"] if c["times"] is not None else np.linspace(0.0, c["t1"], c["steps"])
        reference.check_times(times, requested)
        reference.check_amplitudes(model, times, amps, normalized=c["normalized"],
                                   vertex_level=c["vertex"], printed=True)
    elif kind == "average":
        _, values = reference.parse_pairs(stdout)
        reference.check_averages(model, values, vertex_level=c["vertex"], printed=True)
    elif kind == "spectrum":
        atoms, weights = reference.parse_pairs(stdout)
        if model == ("line",):
            reference.check_line_measure(atoms, weights)
        else:
            reference.check_spectrum(model, atoms, weights, printed=True)
    elif kind == "characters":
        reference.check_characters(model, reference.parse_characters(stdout))
    elif kind == "catalog":
        if stdout.split() != sorted(reference.CATALOG_NAMES):
            raise reference.Mismatch("catalog list differs from the documented families")
    else:
        raise ValueError(f"unknown check {kind!r}")


def fingerprint(out) -> bytes:
    """Digest of an output, so later rounds can be matched to the checked one."""
    h = hashlib.blake2b(digest_size=16)
    if isinstance(out, tuple):  # CLI (status, stdout, stderr) or an oracle triple
        for part in out:
            h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    else:
        for name in ("times", "amplitudes", "stratum", "vertex", "atoms", "weights"):
            value = getattr(out, name, None)
            if value is not None:
                h.update(np.ascontiguousarray(value).tobytes())
    return h.digest()


class Runner:
    """Runs rounds, times each request and judges each outcome."""

    def __init__(self, reqs: list[dict], program: Program) -> None:
        self.reqs = reqs
        self.p = program
        self.calls = [build_call(r, program) for r in reqs]
        self.samples: list[list[float]] = [[] for _ in reqs]
        self.checked: list[dict] = [{} for _ in reqs]  # fingerprint -> outcome
        self.outcomes: list[list[str]] = [[] for _ in reqs]
        self.out_bytes = 0
        self.rounds = 0

    def _outcome(self, i: int, out, error: str | None) -> str:
        """'ok', or the failure: an error code, or 'mismatch' for a wrong output."""
        if error is not None:
            return error
        key = fingerprint(out)
        if key not in self.checked[i]:
            try:
                check(self.reqs[i], out)
                self.checked[i][key] = "ok"
            except reference.Mismatch as exc:
                self.checked[i][key] = "mismatch"
                print(f"mismatch {self.reqs[i]['id']}: {exc}", file=sys.stderr)
        return self.checked[i][key]

    def round(self, tracer=None) -> float:
        start = time.perf_counter()
        for i, call in enumerate(self.calls):
            if tracer is not None:
                tracer.request = self.rounds * len(self.calls) + i
                span = tracer.open("bench.request")
            error = None
            t0 = time.perf_counter()
            try:
                out = call()
            except self.p.error as exc:
                out, error = None, exc.code
            except Exception as exc:  # a crash is a failed operation, not a dead run
                out, error = None, type(exc).__name__
                traceback.print_exc()
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
            self.samples[i].append(elapsed)
            if self.reqs[i]["op"] == "cli" and out is not None:
                rc, stdout, stderr = out
                self.out_bytes += len(stdout.encode())
                if rc != 0 and stderr:
                    error = stderr.split(":", 1)[0].strip()
            self.outcomes[i].append(self._outcome(i, out, error))
        self.rounds += 1
        return time.perf_counter() - start

    def run_for(self, seconds: float, min_rounds: int, tracer=None) -> None:
        """Whole rounds until the next one would end after ``seconds``."""
        start = time.perf_counter()
        first = self.rounds
        while True:
            last = self.round(tracer)
            done = self.rounds - first
            if done >= min_rounds and time.perf_counter() - start + last > seconds:
                break

    def times(self, start: int = 0, stop: int | None = None) -> list[float]:
        """Each request's fastest time over rounds ``start:stop``."""
        return [min(s[start:stop]) for s in self.samples]

    def verdict(self) -> dict:
        """Attempted/failed counts and whether every failure is a named fault."""
        attempted = failed = 0
        correct = True
        good = 0
        for req, outcomes in zip(self.reqs, self.outcomes):
            attempted += len(outcomes)
            bad = [o for o in outcomes if o != "ok"]
            failed += len(bad)
            if not bad:
                good += 1
                continue
            fault = req["fault"]
            if fault is None or any(o != fault[1] for o in bad) or len(bad) != len(outcomes):
                correct = False
                print(f"unexpected outcome {req['id']}: {sorted(set(outcomes))}", file=sys.stderr)
        return {"correct": correct, "attempted": attempted, "failed": failed, "good": good}


def setup(workload: str, seed: int) -> Runner:
    """Everything before the first timed request; run.py times it from process start."""
    program = Program()
    reqs = workloads.requests(workload, seed)
    runner = Runner(reqs, program)
    # One-off lazy set-up the timed rounds should not pay: LAPACK initialisation
    # and the memoised symmetric-group characters.
    np.linalg.eigh(np.eye(3) + 1.0)
    for n in sorted({r["model"][1] for r in reqs if r["model"] and r["model"][0] == "symmetric"}):
        program.groups.character_table_symmetric(n)
    return runner


def end_to_end(runner: Runner) -> dict:
    times = runner.times()
    verdict = runner.verdict()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        **verdict,
        "rounds": runner.rounds,
        "solves_per_s": verdict["good"] / sum(times),
        "solve_p50_ms": 1e3 * statistics.median(times),
        "peak_rss_mb": rss_mb,
    }


def per_layer(runner: Runner, tracer, untraced_rounds: int) -> dict:
    from tracing import Spans

    rounds = runner.rounds - untraced_rounds
    untraced = runner.times(0, untraced_rounds)
    traced = runner.times(untraced_rounds)
    spans = Spans(tracer)
    per_round = lambda x: x / rounds  # noqa: E731
    ms = lambda x: 1e3 * x / rounds  # noqa: E731
    count = tracer.counts

    def ratio(calls: str, per: str) -> float:
        users = spans.requests_calling(per)
        return spans.calls(calls) / users if users else 0.0

    eigh_calls = spans.calls("oracle.exact_walk") + spans.calls("oracle.eigensolver_residuals")
    graphs = spans.requests_calling("oracle.build_graph")
    tables = {f"groups.character_table{s}" for s in ("", "_cyclic", "_dihedral", "_symmetric")}
    kernel = {"walk.amplitudes_eigen", "walk.amplitudes_spectral", "walk.line_walk"}
    averages = {"walk.average_probabilities", "walk.average_from_distribution",
                "walk.average_from_eigenstructure"}
    p90 = statistics.quantiles(untraced, n=10)[-1] if len(untraced) > 1 else untraced[0]
    metrics = {f"{layer}.self_ms": ms(spans.layer_self(layer)) for layer in LAYERS}
    metrics.update({
        "cli.parse_ms": ms(spans.outermost({"cli.build_parser", "cli.parse_args",
                                            "cli.parse_graph_spec"})),
        "cli.out_bytes": runner.out_bytes / runner.rounds,
        "catalog.lookup_ms": ms(spans.outermost({"catalog.catalog"})),
        "catalog.lookups_per_request": ratio("catalog.catalog", "catalog.catalog"),
        "schemes.eigenstructure_ms": ms(spans.outermost({"schemes.eigenstructure_from_array"})),
        "schemes.validate_ms": ms(spans.outermost({"schemes.SchemeEigenstructure.validate"})),
        "schemes.ensure_valid_calls": per_round(spans.calls("schemes.IntersectionArray.ensure_valid")),
        "spectral.golub_welsch_ms": ms(spans.outermost({"spectral.golub_welsch"})),
        "spectral.golub_welsch_per_request": ratio("spectral.golub_welsch", "spectral.golub_welsch"),
        "spectral.poly_evals": per_round(spans.calls("spectral.evaluate_polynomials")),
        "spectral.poly_eval_ms": ms(spans.outermost({"spectral.evaluate_polynomials"})),
        "groups.character_table_ms": ms(spans.outermost(tables)),
        "groups.table_entries": per_round(count["groups.table_entries"]),
        "groups.fused_eigenstructure_ms": ms(spans.outermost({"groups.fused_eigenstructure"})),
        "walk.dispatch_ms": ms(spans.outermost({"walk.dispatch"})),
        "walk.kernel_ms": ms(spans.self_of(kernel)),
        "walk.series_validate_ms": ms(spans.outermost({"walk.AmplitudeSeries.validate"})),
        "walk.average_ms": ms(spans.outermost(averages)),
        "walk.phase_entries": per_round(count["walk.phase_entries"]),
        "walk.kernel_flops": per_round(count["walk.kernel_flops"]),
        "oracle.build_graph_ms": ms(spans.outermost({"oracle.build_graph"})),
        "oracle.vertices": per_round(count["oracle.vertices"]),
        "oracle.eigh_per_verify": eigh_calls / graphs if graphs else 0.0,
        "oracle.eigh_ms": ms(spans.outermost({"oracle.exact_walk", "oracle.eigensolver_residuals"})),
        "oracle.bfs_ms": ms(spans.outermost({"oracle.bfs_strata"})),
        "oracle.ladder_ms": ms(spans.outermost({"oracle.ladder_residual"})),
        "oracle.bytes_computed": per_round(count["oracle.bytes_computed"]),
        "bench.other_ms": ms(spans.layer_self("bench")),
        "bench.traced_round_ms": ms(spans.outermost({"bench.request"})),
        "bench.p90_ms": 1e3 * p90,
        "bench.p90_samples": len(untraced),
        "trace.overhead_ms": 1e3 * statistics.fmean(t - u for t, u in zip(traced, untraced)),
    })
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--trace-out", help="file for the spans of a traced run")
    args = parser.parse_args()

    runner = setup(args.workload, args.seed)
    result: dict = {"ready": time.monotonic()}
    if args.mode == "run":
        runner.run_for(args.seconds, MIN_ROUNDS)
        result.update(end_to_end(runner))
    elif args.mode == "trace":
        from tracing import Tracer, install

        runner.run_for(args.seconds / 2, MIN_TRACE_ROUNDS)
        untraced_rounds = runner.rounds
        tracer = Tracer()
        result["wrapped"] = install(tracer, runner.p.package, runner.p.layers)
        runner.run_for(args.seconds / 2, MIN_TRACE_ROUNDS, tracer)
        result.update(runner.verdict())
        result["rounds"] = runner.rounds
        result["metrics"] = per_layer(runner, tracer, untraced_rounds)
        if args.trace_out:
            Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
