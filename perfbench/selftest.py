"""Self-tests of the benchmark's references and checks; numpy only.

    python3 perfbench/selftest.py

Each reference is paired with a second, independent computation (usually a
dense vertex-level walk built here from first principles), and each check is
shown to accept the reference and to reject a perturbed copy of it.
"""

from __future__ import annotations

import math
import sys
from itertools import combinations, permutations

import numpy as np

import reference as ref

TIMES = np.linspace(0.0, 12.0, 49)


def dense_walk(adjacency: np.ndarray, times, root: int = 0) -> np.ndarray:
    """Vertex amplitudes of e^{-iAt} applied to the root, shape (T, n)."""
    evals, vecs = np.linalg.eigh(adjacency.astype(float))
    return (np.exp(-1j * np.outer(times, evals)) * vecs[root]) @ vecs.T


def dense_average(adjacency: np.ndarray, strata, root: int = 0) -> np.ndarray:
    """Long-time average stratum probabilities from the merged eigenprojections."""
    evals, vecs = np.linalg.eigh(adjacency.astype(float))
    out = np.zeros(len(strata))
    start = 0
    while start < len(evals):
        stop = start + 1
        while stop < len(evals) and evals[stop] - evals[start] < 1e-8:
            stop += 1
        column = vecs[:, start:stop] @ vecs[root, start:stop]
        out += np.array([abs(column[list(s)].sum()) ** 2 / len(s) for s in strata])
        start = stop
    return out


def project(vertex_amps: np.ndarray, strata) -> np.ndarray:
    return np.stack([vertex_amps[:, list(s)].sum(axis=1) / math.sqrt(len(s)) for s in strata],
                    axis=1)


def bfs_strata(adjacency: np.ndarray, root: int = 0):
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in np.flatnonzero(adjacency[v]):
                if int(w) not in dist:
                    dist[int(w)] = dist[v] + 1
                    nxt.append(int(w))
        frontier = nxt
    depth = max(dist.values())
    return [[v for v, k in dist.items() if k == level] for level in range(depth + 1)]


def petersen() -> np.ndarray:
    subsets = list(combinations(range(5), 2))
    return np.array([[int(not set(a) & set(b)) for b in subsets] for a in subsets])


def cayley_symmetric(n: int):
    """Cayley graph of S_n on the transpositions, plus its conjugacy-class strata."""
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    adjacency = np.zeros((len(perms), len(perms)), dtype=int)
    for i, p in enumerate(perms):
        for a, b in combinations(range(n), 2):
            q = list(p)
            q[a], q[b] = q[b], q[a]
            adjacency[i, index[tuple(q)]] = 1

    def cycle_type(p):
        seen, lengths = set(), []
        for s in range(n):
            length, x = 0, s
            while x not in seen:
                seen.add(x)
                x, length = p[x], length + 1
            if length:
                lengths.append(length)
        return tuple(sorted(lengths, reverse=True))

    classes = ref.partitions_lex(n)
    strata = [[i for i, p in enumerate(perms) if cycle_type(p) == rho] for rho in classes]
    return adjacency, strata


def dihedral_kmm(m: int):
    """K_{m,m} on rotations 0..m-1 and reflections m..2m-1, strata in program order."""
    adjacency = np.zeros((2 * m, 2 * m), dtype=int)
    adjacency[:m, m:] = 1
    adjacency[m:, :m] = 1
    strata = [[0], list(range(m, 2 * m))]
    if m % 2 == 0:
        strata.append([m // 2])
        strata += [[j, m - j] for j in range(1, m // 2)]
    else:
        strata += [[j, m - j] for j in range(1, (m - 1) // 2 + 1)]
    return adjacency, strata


def cycle_adjacency(n: int) -> np.ndarray:
    adjacency = np.zeros((n, n), dtype=int)
    for v in range(n):
        adjacency[v, (v + 1) % n] = adjacency[(v + 1) % n, v] = 1
    return adjacency


def close(a, b, tol: float, what: str) -> None:
    dev = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    if not dev <= tol:
        raise AssertionError(f"{what}: {dev:.3e} > {tol:.3e}")


def rejects(fn, *args, **kwargs) -> None:
    try:
        fn(*args, **kwargs)
    except ref.Mismatch:
        return
    raise AssertionError(f"{fn.__name__} accepted a perturbed output")


# ---------------------------------------------------------------------------
# Reference pairs
# ---------------------------------------------------------------------------


def test_cycle_dft_matches_jacobi_and_dense():
    for n in (9, 10, 31, 64):
        model = ("cycle", n)
        c, b = ref.model_array(model)
        jac = ref._jacobi_amplitudes(c, b, TIMES, 1.0)
        close(ref.amplitudes(model, TIMES), jac, 1e-10, f"cycle {n} DFT vs Jacobi")
        adjacency = cycle_adjacency(n)
        dense = project(dense_walk(adjacency, TIMES), bfs_strata(adjacency))
        close(ref.amplitudes(model, TIMES), dense, 1e-10, f"cycle {n} DFT vs dense")


def test_hamming_product_matches_jacobi():
    for d, q in ((1, 7), (3, 2), (4, 3), (5, 4), (12, 2)):
        model = ("hamming", d, q)
        c, b = ref.model_array(model)
        close(ref.amplitudes(model, TIMES), ref._jacobi_amplitudes(c, b, TIMES, 1.0), 1e-10,
              f"hamming {d},{q} product vs Jacobi")
    close(ref.amplitudes(("complete", 6), TIMES), ref.amplitudes(("hamming", 1, 6), TIMES),
          0.0, "complete graph is Hamming d=1")


def test_jacobi_matches_dense_petersen():
    adjacency = petersen()
    strata = bfs_strata(adjacency)
    dense = project(dense_walk(adjacency, TIMES), strata)
    close(ref.amplitudes(("fixed", "petersen"), TIMES), dense, 1e-10, "Petersen Jacobi vs dense")
    close(ref.amplitudes(("srg", 10, 3, 0, 1), TIMES), dense, 1e-10, "srg(10,3,0,1) vs dense")
    close(ref.averages(("fixed", "petersen")), dense_average(adjacency, strata), 1e-12,
          "Petersen averages")
    evals = np.linalg.eigvalsh(adjacency.astype(float))
    atoms, weights = ref.spectrum(("fixed", "petersen"))
    close(atoms, [-2.0, 1.0, 3.0], 1e-12, "Petersen atoms")
    close(weights, [np.mean(np.abs(evals - x) < 1e-8) for x in atoms], 1e-12, "Petersen weights")


def test_dihedral_closed_form_matches_dense():
    for m in (5, 6, 9):
        adjacency, strata = dihedral_kmm(m)
        dense = project(dense_walk(adjacency, TIMES), strata)
        close(ref.amplitudes(("dihedral", m), TIMES), dense, 1e-10, f"D_{2 * m} amplitudes")
        close(ref.averages(("dihedral", m)), dense_average(adjacency, strata), 1e-12,
              f"D_{2 * m} averages")
        assert tuple(len(s) for s in strata) == ref.stratum_sizes(("dihedral", m))


def test_symmetric_origin_matches_dense():
    for n in (3, 4, 5):
        adjacency, strata = cayley_symmetric(n)
        dense = project(dense_walk(adjacency, TIMES), strata)
        reference = ref.amplitudes(("symmetric", n), TIMES)
        close(reference[:, 0], dense[:, 0], 1e-10, f"S_{n} origin amplitude")
        close(ref.averages(("symmetric", n))[0], dense_average(adjacency, strata)[0], 1e-12,
              f"S_{n} origin average")
        assert tuple(len(s) for s in strata) == ref.stratum_sizes(("symmetric", n))


def test_bessel_matches_power_series_and_long_cycle():
    z = np.linspace(0.0, 8.0, 17)
    for k in (0, 1, 5, 10):
        series = [math.fsum((-1) ** m * (x / 2) ** (2 * m + k) / (math.factorial(m) *
                            math.factorial(m + k)) for m in range(60)) for x in z]
        close(ref.bessel_j(k, z), series, 1e-12, f"J_{k}")
    times = np.linspace(0.0, 15.0, 31)
    cycle = ref.amplitudes(("cycle", 400), times)[:, :21]
    close(ref.line_amplitudes(times, 20), cycle, 1e-10, "line vs long cycle")


def test_line_measure_moments():
    n = 256
    theta = (np.arange(n) + 0.5) * math.pi / n
    ref.check_line_measure(2.0 * np.cos(theta), np.full(n, 1.0 / n))
    rejects(ref.check_line_measure, 2.0 * np.cos(theta), np.full(n, 1.0 / n) * (1 + 1e-9))


# ---------------------------------------------------------------------------
# Checks reject perturbed outputs
# ---------------------------------------------------------------------------


def test_amplitude_check_rejects_perturbation():
    for model in (("cycle", 40), ("hamming", 6, 3), ("johnson", 10, 4), ("dihedral", 8),
                  ("symmetric", 5), ("gen_octagon", 2, 1)):
        amps = ref.amplitudes(model, TIMES)
        if model[0] == "symmetric":  # only the origin has a reference; fill the rest unitarily
            rest = np.sqrt(np.maximum(0.0, 1.0 - np.abs(amps[:, 0]) ** 2))
            rest[TIMES == 0.0] = 0.0
            amps = np.where(np.isnan(amps.real), 0.0, amps)
            amps[:, 1] = rest
        ref.check_amplitudes(model, TIMES, amps)
        tol = ref.amplitude_tol(model, TIMES)
        bumped = amps.copy()
        bumped[len(TIMES) // 2, 0] += 10j * tol
        rejects(ref.check_amplitudes, model, TIMES, bumped)
        scale = np.sqrt(np.asarray(ref.stratum_sizes(model), dtype=float))
        ref.check_amplitudes(model, TIMES, amps / scale, vertex_level=True)
        rejects(ref.check_amplitudes, model, TIMES, amps * (1 + 10 * tol))


def test_average_and_spectrum_checks_reject_perturbation():
    for model in (("cycle", 30), ("hamming", 21, 2), ("dihedral", 7), ("johnson", 12, 5)):
        values = ref.averages(model)
        if model[0] != "dihedral":
            atoms, weights = ref.spectrum(model)
            ref.check_spectrum(model, atoms, weights)
            rejects(ref.check_spectrum, model, atoms + 1e-8, weights)
            rejects(ref.check_spectrum, model, atoms, weights * (1 + 1e-8))
        ref.check_averages(model, values)
        sizes = np.asarray(ref.stratum_sizes(model), dtype=float)
        ref.check_averages(model, values / sizes, vertex_level=True)
        swapped = values.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        rejects(ref.check_averages, model, swapped)
    # The magnitude schemewalk prints for `average --graph catalog:hamming:21,2`.
    bad = ref.averages(("hamming", 21, 2))
    bad[10] = 17.69
    rejects(ref.check_averages, ("hamming", 21, 2), bad)


def test_other_checks_reject_perturbation():
    times = np.linspace(0.0, 10.0, 21)
    line = ref.line_amplitudes(times, 12)
    ref.check_line_walk(times, 12, line)
    rejects(ref.check_line_walk, times, 12, line * (1 + 1e-8))
    ref.check_ladder(("cycle", 24), ref.model_array(("cycle", 24)), 1e-16)
    rejects(ref.check_ladder, ("cycle", 24), ref.model_array(("cycle", 25)), 0.0)
    rejects(ref.check_ladder, ("cycle", 24), ref.model_array(("cycle", 24)), 1e-9)
    n = 7
    dft = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    ref.check_characters(("cyclic", n), dft)
    rejects(ref.check_characters, ("cyclic", n), dft * np.exp(1e-8j))
    s3 = np.array([[1, 1, 1], [2, 0, -1], [1, -1, 1]], dtype=complex)
    ref.check_characters(("symmetric", 3), s3)
    broken = s3.copy()
    broken[1, 2] = -0.9
    rejects(ref.check_characters, ("symmetric", 3), broken)
    table = ("check                         max_dev   threshold  status\n"
             "unitarity                  1.000e-15       1e-09  PASS\n"
             "oracle_agreement           2.000e-13       1e-08  PASS\n")
    ref.check_verify_table(0, table)
    rejects(ref.check_verify_table, 1, table)
    rejects(ref.check_verify_table, 0, table.replace("2.000e-13       1e-08  PASS",
                                                     "2.000e-07       1e-08  PASS"))
    rejects(ref.check_verify_table, 0, table.replace("PASS\n", "FAIL\n", 1))
    csv = "0.000000000000,0,1.000000000000,0.000000000000,1.000000000000\n"
    ref.parse_walk(csv, "csv")
    rejects(ref.parse_walk, csv.replace(",1.000000000000\n", ",0.999000000000\n"), "csv")


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
    print(f"{len(tests) - failures}/{len(tests)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
