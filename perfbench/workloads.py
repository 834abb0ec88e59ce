"""Request lists of the three workloads, generated from the seed alone.

A request is a plain dict: what to run (a library call on a spec text, or a
CLI argv), the model the reference checks it against, and, for the three
named faults, the failure it is expected to show.  Nothing here imports
schemewalk, so the program receives only the generated spec texts and argv.

The seed moves sizes inside narrow bands, time grids, the spelling of each
spec (token or JSON) and the order of requests.  Problem sizes that decide
most of a round's time stay within a few percent of their slot, so that the
per-seed cost of a round, and with it every end-to-end metric, stays steady.
The fault requests are fixed and do not depend on the seed.
"""

from __future__ import annotations

import itertools
import json
import random

from reference import model_array

WORKLOADS = ("deep", "cli", "verify")

F1 = ("F1", "invalid_intersection_array")
F2 = ("F2", "bad_params")
F3 = ("F3", "mismatch")

FIXED_GRAPHS = (
    "petersen", "m22", "wells", "three_cover_gq22", "doubly_truncated_binary_golay",
    "extended_ternary_golay", "double_hoffman_singleton", "foster",
)
SRGS = (
    (10, 3, 0, 1), (9, 4, 1, 2), (13, 6, 2, 3), (15, 6, 1, 3), (16, 5, 0, 2),
    (16, 6, 2, 2), (21, 10, 5, 4), (25, 12, 5, 6), (27, 10, 1, 5), (36, 14, 4, 6),
    (50, 7, 0, 1), (56, 10, 0, 2), (77, 16, 0, 4), (100, 22, 0, 6),
)


def spec_text(model, as_json: bool, array_json: bool = True) -> str:
    """The program's spelling of a model: a compact token or a JSON document.

    With ``array_json`` Johnson graphs are written as bare intersection
    arrays, which have no vertex builder; verify requests turn it off.
    """
    kind = model[0]
    if kind in ("cyclic", "dihedral", "symmetric"):
        if as_json:
            return json.dumps({"kind": "group", "group": kind, "n": model[1]})
        return f"group:{kind}:{model[1]}"
    if kind == "srg":
        n, kappa, lam, eta = model[1:]
        if as_json:
            return json.dumps({"kind": "srg", "n": n, "kappa": kappa, "lambda": lam, "eta": eta})
        return f"srg:{n},{kappa},{lam},{eta}"
    name, params = (model[1], []) if kind == "fixed" else (kind, list(model[1:]))
    if as_json and kind == "hamming":
        return json.dumps({"kind": "product", "n": model[2], "copies": model[1]})
    if as_json and array_json and kind == "johnson":
        c, b = model_array(model)
        return json.dumps({"kind": "intersection_array", "d": len(c),
                           "c_forward": list(c), "b_backward": list(b)})
    if as_json:
        return json.dumps({"kind": "catalog", "name": name, "params": params})
    return f"catalog:{name}" + (":" + ",".join(map(str, params)) if params else "")


def _req(rid: str, op: str, model=None, fault=None, **fields) -> dict:
    return {"id": rid, "op": op, "model": model, "fault": fault, **fields}


# ---------------------------------------------------------------------------
# deep: library calls on large-diameter schemes
# ---------------------------------------------------------------------------


def _deep(rng: random.Random) -> list[dict]:
    out: list[dict] = []

    def walk(model, engine, steps, t1, as_json=False, normalized=False, fault=None):
        rid = f"walk/{engine}/{spec_text(model, False)}/{steps}"
        out.append(_req(rid, "walk", model, fault, spec=spec_text(model, as_json),
                        engine=engine, t1=t1, steps=steps, normalized=normalized))

    def average(model, as_json=False, fault=None):
        out.append(_req(f"average/{spec_text(model, False)}", "average", model, fault,
                        spec=spec_text(model, as_json)))

    def spectrum(model, as_json=False):
        out.append(_req(f"spectrum/{spec_text(model, False)}", "spectrum", model,
                        spec=spec_text(model, as_json)))

    # Grid sizes cycle through the slots instead of being drawn, so the seed
    # does not change how many phase entries a round computes.
    steps = itertools.cycle((64, 128, 256, 512, 1024)).__next__
    t1 = lambda: round(rng.uniform(5.0, 40.0), 3)  # noqa: E731
    flip = lambda: rng.random() < 0.5  # noqa: E731

    # The slots that dominate a round: sizes move by well under 1%.
    walk(("cycle", 900 + rng.randint(-4, 4)), "spectral", 256, t1())
    spectrum(("cycle", 1000 + rng.randint(-5, 5)))
    walk(("cyclic", 600 + rng.randint(-3, 3)), "auto", 256, t1())
    average(("cycle", 600 + rng.randint(-3, 3)))

    for base in (150, 220, 300, 400):
        walk(("cycle", base + rng.randint(-5, 5)), rng.choice(("spectral", "auto")), steps(),
             t1(), flip(), flip())
    for base in (30, 60, 100, 140):
        walk(("cycle", base + rng.randint(-5, 5)), "eigen", steps(), t1(), flip())
    for q in (2, 3, 4):
        for d in (6, 10, 14):
            walk(("hamming", d + rng.randint(-1, 1), q), rng.choice(("spectral", "auto")),
                 steps(), t1(), flip(), flip())
        walk(("hamming", rng.randint(3, 6), q), "eigen", steps(), t1())
    for d in (4, 6, 8, 10):
        v = 2 * d + rng.randint(0, d)
        walk(("johnson", v, d), rng.choice(("spectral", "auto")), steps(), t1(), flip(), flip())
    walk(("johnson", rng.randint(8, 12), 4), "eigen", steps(), t1())
    for engine in ("eigen", "spectral", "auto"):
        small = engine == "eigen"  # larger polygons fail under eigen for the reason of F1
        walk(("gen_octagon", rng.randint(2, 4 if small else 6), rng.randint(1, 4)), engine,
             steps(), t1(), flip())
        walk(("gen_dodecagon", rng.randint(2, 3 if small else 8)), engine, steps(), t1(), flip())
    for base in (60, 200, 450):
        walk(("dihedral", base + rng.randint(-3, 3)), rng.choice(("auto", "character")),
             steps(), t1(), flip(), flip())
    for base in (50, 150, 300):
        walk(("cyclic", base + rng.randint(-3, 3)), "auto", steps(), t1(), flip(), flip())
        walk(("cyclic", base + rng.randint(-3, 3)), "spectral", steps(), t1(), flip(), flip())

    for base in (200, 400):
        average(("cycle", base + rng.randint(-5, 5)), flip())
    for d in (10, 16):
        average(("hamming", d + rng.randint(-1, 1), rng.choice((2, 3, 4))), flip())
    average(("johnson", rng.randint(16, 20), 8), flip())
    average(("gen_dodecagon", rng.randint(2, 8)), flip())
    average(("cyclic", 300 + rng.randint(-3, 3)), flip())
    average(("dihedral", 200 + rng.randint(-3, 3)), flip())

    for base in (300, 500):
        spectrum(("cycle", base + rng.randint(-3, 3)), flip())
    spectrum(("johnson", rng.randint(20, 24), 10), flip())
    spectrum(("hamming", rng.randint(14, 18), rng.choice((2, 3, 4))), flip())
    spectrum(("gen_octagon", rng.randint(2, 6), rng.randint(1, 4)), flip())

    for k_max in (10, 30, 60):
        out.append(_req(f"line/{k_max}", "line", None, None, k_max=k_max + rng.randint(-2, 2),
                        t1=t1(), steps=steps()))
    for base in (120, 200):  # the oracle's vertex-level reduction to strata
        model = ("cycle", base + rng.randint(-3, 3))
        out.append(_req(f"vertex/{spec_text(model, False)}", "vertex", model, None,
                        spec=spec_text(model, flip()), t1=t1(), steps=64))

    # Named faults, identical for every seed.
    walk(("cycle", 201), "eigen", 64, 10.0, fault=F1)
    walk(("hamming", 12, 2), "eigen", 64, 10.0, fault=F1)
    walk(("johnson", 16, 8), "eigen", 64, 10.0, fault=F1)
    walk(("hamming", 24, 3), "spectral", 64, 10.0, fault=F2)
    walk(("johnson", 26, 13), "auto", 64, 10.0, fault=F2)
    average(("hamming", 21, 2), fault=F3)
    return out


# ---------------------------------------------------------------------------
# cli: in-process CLI calls on many small specs
# ---------------------------------------------------------------------------


def _cli(rng: random.Random) -> list[dict]:
    """Every family, command and flag appears in a fixed share of the slots.

    The seed moves sizes by a step or two, time grids, the spelling of each
    spec and the order of requests; which command and flags a slot gets is
    fixed, so the number of rows printed per round barely moves with it.
    """
    out: list[dict] = []
    jitter = lambda base, spread: base + rng.randint(-spread, spread)  # noqa: E731
    arrays = (
        [("fixed", name) for name in FIXED_GRAPHS]
        + [("incidence_pg", k) for k in (4, 5, 7, 8)]
        + [("srg", *params) for params in SRGS]
        + [("complete", jitter(n, 1)) for n in (4, 8, 16, 28)]
        + [("cycle", jitter(n, 2)) for n in (8, 20, 40, 58)]
        + [("hamming", d, q) for d, q in ((2, 2), (4, 2), (6, 2), (3, 3), (5, 3), (3, 4), (6, 4))]
        + [("johnson", v, d) for v, d in ((6, 2), (7, 3), (8, 3), (9, 4), (10, 4), (12, 3), (14, 4))]
        + [("gen_octagon", s, t) for s, t in ((2, 1), (3, 2), (4, 3))]
        + [("gen_dodecagon", s) for s in (2, 3)]
    )
    groups = (
        [("symmetric", n) for n in range(3, 9)]
        + [("dihedral", jitter(m, 1)) for m in (5, 12, 20, 29)]
        + [("cyclic", jitter(n, 1)) for n in (5, 12, 25, 39)]
    )
    slot = itertools.count()

    def walk(model, engine, fault=None):
        i = next(slot)
        fmt = ("csv", "json")[i % 2]
        vertex, normalized = i % 3 == 0, i % 4 == 1
        argv = ["walk", "--graph", spec_text(model, rng.random() < 0.5), "--engine", engine,
                "--format", fmt]
        if i % 5 == 0:
            times = [0.0] + sorted(round(rng.uniform(0.1, 30.0), 4) for _ in range(4))
            argv += ["--times", ",".join(map(repr, times))]
            t1 = steps = None
        else:
            times, t1, steps = None, round(rng.uniform(5.0, 30.0), 3), (16, 32, 48, 64)[i % 4]
            argv += ["--t1", repr(t1), "--steps", str(steps)]
        if vertex:
            argv.append("--vertex-level")
        if normalized:
            argv.append("--normalized")
        check = {"kind": "walk", "fmt": fmt, "vertex": vertex, "normalized": normalized,
                 "times": times, "t1": t1, "steps": steps}
        out.append(_req(f"walk/{engine}/{fmt}/{spec_text(model, False)}", "cli", model, fault,
                        argv=argv, check=check))

    def simple(cmd, model, vertex=False, extra=(), fault=None):
        argv = [cmd, "--graph", spec_text(model, rng.random() < 0.5), *extra]
        if vertex:
            argv.append("--vertex-level")
        out.append(_req(f"{cmd}/{spec_text(model, False)}", "cli", model, fault, argv=argv,
                        check={"kind": cmd, "vertex": vertex}))

    for rep in range(2):
        for i, model in enumerate(arrays):
            walk(model, ("eigen", "spectral", "auto")[(i + rep) % 3])
        for i, model in enumerate(groups):
            engines = ("auto", "character", "eigen") + (("spectral",) if model[0] == "cyclic" else ())
            walk(model, engines[(i + rep) % len(engines)])
    for i, model in enumerate(arrays):
        simple("spectrum", model)
    for i, model in enumerate(arrays + groups):
        simple("average", model, vertex=i % 2 == 1)
    simple("spectrum", ("line",))
    for n in (3, 5, 8):
        for kind, order in (("cyclic", jitter(10 * n, 2)), ("dihedral", jitter(4 * n, 1)),
                            ("symmetric", n)):
            token = rng.choice((f"{kind}:{order}", f"group:{kind}:{order}",
                                json.dumps({"group": kind, "n": order}),
                                json.dumps({"kind": "group", "group": kind, "n": order})))
            out.append(_req(f"characters/{kind}:{order}", "cli", (kind, order), None,
                            argv=["characters", "--group", token], check={"kind": "characters"}))
    for _ in range(2):
        out.append(_req("catalog/list", "cli", None, None, argv=["catalog", "list"],
                        check={"kind": "catalog"}))
    for model in (("fixed", "petersen"), ("complete", jitter(8, 2)), ("cycle", jitter(12, 2))):
        simple("verify", model, extra=("--t1", repr(round(rng.uniform(5.0, 20.0), 3)),
                                       "--steps", "32"))

    walk(("cycle", 201), "eigen", fault=F1)
    walk(("hamming", 22, 2), "auto", fault=F2)
    simple("average", ("hamming", 21, 2), fault=F3)
    return out


# ---------------------------------------------------------------------------
# verify: the oracle's invariant battery
# ---------------------------------------------------------------------------


def _verify(rng: random.Random) -> list[dict]:
    """Fixed graphs from 10 to about 1000 vertices; the seed moves t1 and spellings.

    Oracle cost grows as n^2 to n^3, so sizes do not move with the seed.
    """
    out: list[dict] = []

    def verify(model):
        t1 = round(rng.uniform(5.0, 30.0), 3)
        text = spec_text(model, rng.random() < 0.5, array_json=False)
        argv = ["verify", "--graph", text, "--t1", repr(t1), "--steps", "64"]
        out.append(_req(f"verify/{spec_text(model, False)}", "cli", model, None, argv=argv,
                        check={"kind": "verify"}))

    verify(("fixed", "petersen"))
    verify(("srg", 10, 3, 0, 1))
    for n in (20, 80, 200, 400):
        verify(("complete", n))
    for n in (12, 41, 80, 121, 150):
        verify(("cycle", n))
    for v, d in ((7, 3), (9, 4), (10, 3), (12, 4), (13, 4)):
        verify(("johnson", v, d))
    for d, q in ((4, 2), (6, 2), (8, 2), (4, 3), (6, 3), (4, 4)):
        verify(("hamming", d, q))
    for n in (4, 5, 6):
        verify(("symmetric", n))
    for m in (10, 61, 200, 350):
        verify(("dihedral", m))
    for n in (15, 101, 300, 600):
        verify(("cyclic", n))

    out.append(_req("verify/catalog:cycle:201", "cli", ("cycle", 201), F1,
                    argv=["verify", "--graph", "catalog:cycle:201", "--t1", "10.0",
                          "--steps", "64"], check={"kind": "verify"}))
    return out


def requests(workload: str, seed: int) -> list[dict]:
    """The seeded request list of one workload, in the order a round runs it."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = {"deep": _deep, "cli": _cli, "verify": _verify}[workload](rng)
    rng.shuffle(reqs)
    for i, req in enumerate(reqs):
        req["id"] = f"{i:03d}:{req['id']}"
    return reqs
