import math

import numpy as np
import pytest

from schemewalk import oracle, walk
from schemewalk.catalog import (
    catalog,
    catalog_names,
    cycle_intersection_array,
    hamming_distribution,
    hamming_intersection_array,
    johnson_intersection_array,
)
from schemewalk.errors import BadParams, UnknownCatalogName
from schemewalk.schemes import (
    FromCatalog,
    FromGroup,
    FromIntersectionArray,
    FromSRG,
    GroupDescriptor,
)
from schemewalk.spectral import DiscreteDistribution, golub_welsch, jacobi_from_intersection

# One admissible parameter point per tabulated family.
TABULATED = [
    ("m22", ()),
    ("incidence_pg", (4,)),
    ("incidence_pg", (5,)),
    ("incidence_pg", (7,)),
    ("incidence_pg", (8,)),
    ("doubly_truncated_binary_golay", ()),
    ("extended_ternary_golay", ()),
    ("wells", ()),
    ("three_cover_gq22", ()),
    ("double_hoffman_singleton", ()),
    ("foster", ()),
    ("petersen", ()),
    ("complete", (6,)),
    ("cycle", (7,)),
    ("cycle", (8,)),
    ("hamming", (2, 3)),
]

# One valid parameter point per catalog name; line has no finite array.
VALID = {**dict(TABULATED), "johnson": (6, 2), "gen_octagon": (2, 1), "gen_dodecagon": (2,),
         "line": ()}


@pytest.mark.parametrize("name,params", TABULATED)
def test_expected_distribution_matches_quadrature(name, params):
    entry = catalog(name, params)
    dist = golub_welsch(jacobi_from_intersection(entry.array))
    assert np.max(np.abs(dist.atoms - entry.expected.atoms)) < 1e-9
    assert np.max(np.abs(dist.weights - entry.expected.weights)) < 1e-9


def test_gen_octagon_22_pinned_by_quadrature():
    # No scheme exists at (s,t) = (2,2) (the multiplicities are not integers),
    # but the quadrature of the formal array is still well defined and agrees
    # with the sign-resolved closed forms.
    entry = catalog("gen_octagon", (2, 2))
    assert entry.expected is None
    dist = golub_welsch(jacobi_from_intersection(entry.array))
    s, t = 2, 2
    root = math.sqrt(2 * s * t)
    atoms = sorted(
        [s * (t + 1), s - 1 + root, s - 1, s - 1 - root, -(t + 1)]
    )
    assert np.max(np.abs(dist.atoms - atoms)) < 1e-9
    weights = {
        s * (t + 1): 1 / ((s + 1) * (s * t + 1) * (s**2 * t**2 + 1)),
        s - 1 + root: s * t * (t + 1) / (4 * (s * t + 1 - root) * (s + t + root)),
        s - 1: s * t * (t + 1) / (2 * (s * t + 1) * (s + t)),
        s - 1 - root: s * t * (t + 1) / (4 * (s * t + 1 + root) * (s + t - root)),
        -(t + 1): s**4 / ((s + 1) * (s + t) * (s**2 + t**2)),
    }
    for atom, weight in zip(dist.atoms, dist.weights):
        closed = weights[min(weights, key=lambda x: abs(x - atom))]
        assert weight == pytest.approx(closed, abs=1e-9)


def test_gen_dodecagon_2_pinned_by_quadrature():
    entry = catalog("gen_dodecagon", (2,))
    assert entry.expected is None
    dist = golub_welsch(jacobi_from_intersection(entry.array))
    s = 2
    atoms = sorted(
        [
            2 * s,
            s - 1 + math.sqrt(3 * s),
            s - 1 - math.sqrt(3 * s),
            s - 1 + math.sqrt(s),
            s - 1 - math.sqrt(s),
            s - 1,
            -2.0,
        ]
    )
    assert np.max(np.abs(dist.atoms - atoms)) < 1e-9
    # n = 189 with integral multiplicities: a genuine scheme.
    mults = 189 * dist.weights
    assert np.allclose(mults, np.round(mults), atol=1e-9)
    assert sorted(int(round(m)) for m in mults) == [1, 21, 21, 27, 27, 28, 64]


def test_wells_weights_are_the_known_multiplicities():
    entry = catalog("wells", ())
    mults = 32 * entry.expected.weights
    assert sorted(int(round(m)) for m in mults) == [1, 5, 8, 8, 10]


def test_johnson_arrays_match_oracle_bfs():
    for v, d in [(4, 2), (5, 2), (6, 3)]:
        _, bfs_ia = oracle.bfs_strata(oracle.johnson_graph(v, d))
        assert johnson_intersection_array(v, d) == bfs_ia


def test_cycle_arrays_match_oracle_bfs():
    for n in (5, 6, 7, 8):
        _, bfs_ia = oracle.bfs_strata(oracle.cycle_graph(n))
        assert cycle_intersection_array(n) == bfs_ia


def test_line_entry_is_continuous():
    entry = catalog("line", ())
    assert entry.array is None
    assert isinstance(entry.expected, DiscreteDistribution)
    assert len(entry.expected.atoms) == 256
    assert np.sum(entry.expected.weights) == pytest.approx(1.0, abs=1e-12)


def test_every_closed_form_is_a_discrete_distribution_or_none():
    assert sorted(VALID) == list(catalog_names())
    for name, params in VALID.items():
        expected = catalog(name, params).expected
        assert (expected is None) == (name in ("johnson", "gen_octagon", "gen_dodecagon"))
        assert expected is None or isinstance(expected, DiscreteDistribution)
        routed = walk.closed_form(FromCatalog(name, params))
        assert routed is None if expected is None else np.array_equal(routed.atoms, expected.atoms)
    specs = {
        FromSRG(10, 3, 0, 1): True,
        FromCatalog("hamming", (2, 3)): True,
        FromGroup(GroupDescriptor("cyclic", 7)): True,
        FromGroup(GroupDescriptor("symmetric", 4)): True,
        FromGroup(GroupDescriptor("cyclic", 7), 2): False,
        FromGroup(GroupDescriptor("dihedral", 5)): False,
        FromIntersectionArray(cycle_intersection_array(7)): False,
    }
    for spec, has_closed_form in specs.items():
        dist = walk.closed_form(spec)
        assert isinstance(dist, DiscreteDistribution) if has_closed_form else dist is None


def test_catalog_rejects_non_integer_parameters():
    for name, params in (("cycle", (4.5,)), ("hamming", (3.7, 2.2)), ("johnson", (6, 2.5))):
        with pytest.raises(BadParams, match="must be integers"):
            catalog(name, params)
    with pytest.raises(BadParams):
        walk.resolve(FromCatalog("cycle", (7.9,)))
    assert catalog("cycle", (7.0,)).array == catalog("cycle", (np.int64(7),)).array


def test_closed_form_is_built_on_first_read():
    entry = catalog("cycle", (4001,))
    assert "expected" not in vars(entry)
    assert entry.expected is entry.expected
    assert np.array_equal(entry.expected.atoms, catalog("cycle", (4001,)).expected.atoms)
    assert len(entry.expected.atoms) == 2001


def test_catalog_errors():
    with pytest.raises(UnknownCatalogName):
        catalog("moebius_kantor", ())
    with pytest.raises(BadParams):
        catalog("petersen", (3,))
    with pytest.raises(BadParams):
        catalog("johnson", (3, 2))  # needs 2d <= v
    with pytest.raises(BadParams):
        catalog("incidence_pg", (6,))


def test_catalog_names_sorted_and_complete():
    names = catalog_names()
    assert list(names) == sorted(names)
    assert {"petersen", "wells", "foster", "line", "hamming"} <= set(names)


def test_hamming_builders_live_in_the_catalog():
    entry = catalog("hamming", (3, 4))
    assert entry.array == hamming_intersection_array(3, 4)
    assert np.array_equal(entry.expected.atoms, hamming_distribution(3, 4).atoms)
    assert entry.array == oracle.bfs_strata(oracle.hamming_graph(3, 4))[1]
    with pytest.raises(BadParams):
        hamming_intersection_array(0, 3)
