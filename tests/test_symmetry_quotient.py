"""Property-based soundness of the symmetry quotient (satellite of the
vectorized-checker PR).

Three layers of guarantees, each pinned against the unreduced checker:

* the canonicalization itself — idempotent, orbit-minimal, orbit-invariant,
  and the array path (:meth:`SymmetryReducer.canonicalize_index_matrix`)
  agrees with the pure-Python :meth:`SymmetryReducer.canonical_key`;
* the quotient game — identical ``exact_worst_case`` / ``stabilizes`` /
  per-configuration values to the full product on rings, paths, stars and
  complete bipartite graphs, for all three daemon classes, and to the
  concrete region closure on the Petersen and Shrikhande graphs (the
  non-ring shapes go through the generic ``Graph.automorphisms`` search);
* the certificates — divergence lassos concretized out of the quotient
  still replay transition-by-transition on concrete configurations.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vector import numpy_available
from repro.exceptions import VerificationError
from repro.graphs import (
    complete_bipartite_graph,
    path_graph,
    petersen_graph,
    ring_graph,
    star_graph,
)
from repro.mutex import SSME, MutualExclusionSpec
from repro.unison import AsynchronousUnison, AsynchronousUnisonSpec
from repro.verify import StateSpace, verify_stabilization
from repro.verify.symmetry import SymmetryReducer, ring_automorphisms


def unison_instance(n: int, alpha: int = 1, K: int = 3):
    """A small symmetric instance (parameters below the paper's validity
    threshold on purpose — the quotient must be exact either way)."""
    protocol = AsynchronousUnison(
        ring_graph(n), alpha=alpha, K=K, validate_parameters=False
    )
    return protocol, AsynchronousUnisonSpec(protocol)


def reducer_for(n: int):
    protocol, specification = unison_instance(n)
    space = StateSpace(protocol)
    reducer = SymmetryReducer.for_instance(protocol, specification, space)
    assert reducer is not None
    return protocol, specification, space, reducer


# --------------------------------------------------------------------- #
# The automorphism group
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_ring_automorphisms_are_the_dihedral_group(n):
    graph = ring_graph(n)
    maps = ring_automorphisms(graph)
    assert maps is not None
    distinct = {tuple(sorted(m.items())) for m in maps}
    assert len(distinct) == 2 * n
    edges = {frozenset(edge) for edge in graph.edges}
    for vertex_map in maps:
        assert sorted(vertex_map) == sorted(vertex_map.values())
        mapped = {frozenset((vertex_map[u], vertex_map[v])) for u, v in graph.edges}
        assert mapped == edges


def test_non_rings_are_rejected():
    from repro.graphs import path_graph, star_graph

    assert ring_automorphisms(path_graph(5)) is None
    assert ring_automorphisms(star_graph(4)) is None


# --------------------------------------------------------------------- #
# Canonicalization properties
# --------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(st.integers(3, 7), st.integers(0, 10_000_000))
def test_canonical_key_is_idempotent_and_orbit_minimal(n, raw):
    _, _, space, reducer = reducer_for(n)
    key = raw % space.size
    canonical = reducer.canonical_key(key)
    orbit = reducer.orbit_keys(key)
    assert canonical == min(orbit)
    assert reducer.canonical_key(canonical) == canonical
    # Every orbit member canonicalizes to the same representative, and the
    # orbit size divides the group order (orbit-stabilizer).
    assert all(reducer.canonical_key(member) == canonical for member in orbit)
    assert reducer.group_size % len(orbit) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6), st.integers(0, 10_000), st.integers(1, 30))
def test_canonicalization_commutes_with_rotation(n, seed, extra):
    """g·γ and γ share a canonical key for every automorphism g."""
    protocol, _, space, reducer = reducer_for(n)
    rng = random.Random(seed)
    gamma = protocol.random_configuration(rng)
    maps = ring_automorphisms(protocol.graph)
    vertex_map = maps[extra % len(maps)]
    rotated = protocol.configuration(
        {vertex_map[v]: gamma[v] for v in protocol.graph.vertices}
    )
    assert reducer.canonical_key(space.encode(rotated)) == reducer.canonical_key(
        space.encode(gamma)
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 6), st.integers(0, 10_000))
def test_array_canonicalization_matches_python(n, seed):
    if not numpy_available():
        pytest.skip("array path requires NumPy")
    from repro.verify.batched import ArrayPacker

    protocol, _, space, reducer = reducer_for(n)
    packer = ArrayPacker(space, protocol.array_codec())
    rng = random.Random(seed)
    keys = [rng.randrange(space.size) for _ in range(32)]
    canonical = packer.python_keys(
        reducer.canonicalize_index_matrix(packer.indices_of_keys(keys), packer)
    )
    assert canonical == reducer.canonical_keys(keys)


# --------------------------------------------------------------------- #
# Quotient game == full game
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "daemon_class,n",
    [
        ("synchronous", 4),
        ("synchronous", 6),
        ("central", 4),
        ("central", 5),
        ("distributed", 4),
    ],
)
def test_quotient_matches_full_exact_values(daemon_class, n):
    protocol, specification = unison_instance(n)
    full = verify_stabilization(protocol, specification, daemon_class)
    quotient = verify_stabilization(
        protocol, specification, daemon_class, symmetry=True
    )
    assert quotient.stabilizes == full.stabilizes
    assert quotient.exact_worst_case == full.exact_worst_case
    # Quotient counts are per-orbit: strictly fewer states than the full
    # product whenever the group is non-trivial.
    assert quotient.state_count < full.state_count
    rng = random.Random(n)
    maps = ring_automorphisms(protocol.graph)
    for _ in range(10):
        gamma = protocol.random_configuration(rng)
        expected = full.value_of(gamma)
        assert quotient.value_of(gamma) == expected
        # and the value is constant on the whole orbit
        vertex_map = rng.choice(maps)
        rotated = protocol.configuration(
            {vertex_map[v]: gamma[v] for v in protocol.graph.vertices}
        )
        assert quotient.value_of(rotated) == expected


#: Non-ring graphs small enough for the full product of unison α=1, K=3.
NONRING_FULL_PRODUCT = {
    "path5": lambda: path_graph(5),
    "star4": lambda: star_graph(4),
    "k2-3": lambda: complete_bipartite_graph(2, 3),
}


def unison_on(graph):
    protocol = AsynchronousUnison(graph, alpha=1, K=3, validate_parameters=False)
    return protocol, AsynchronousUnisonSpec(protocol)


def assert_orbit_values_agree(protocol, full, quotient, configurations, seed):
    """The quotient's value of every configuration and of a random
    automorphic image equals the concrete value of the configuration."""
    maps = protocol.graph.automorphisms()
    assert len(maps) > 1
    rng = random.Random(seed)
    for gamma in configurations:
        expected = full.value_of(gamma)
        assert quotient.value_of(gamma) == expected
        vertex_map = rng.choice(maps)
        image = protocol.configuration(
            {vertex_map[v]: gamma[v] for v in protocol.graph.vertices}
        )
        assert quotient.value_of(image) == expected


@pytest.mark.parametrize("daemon_class", ["synchronous", "central", "distributed"])
@pytest.mark.parametrize("graph_name", sorted(NONRING_FULL_PRODUCT))
def test_quotient_matches_full_product_beyond_rings(graph_name, daemon_class):
    graph = NONRING_FULL_PRODUCT[graph_name]()
    assert ring_automorphisms(graph) is None
    protocol, specification = unison_on(graph)
    full = verify_stabilization(protocol, specification, daemon_class)
    quotient = verify_stabilization(
        protocol, specification, daemon_class, symmetry=True
    )
    assert quotient.stabilizes == full.stabilizes
    assert quotient.exact_worst_case == full.exact_worst_case
    assert quotient.state_count < full.state_count
    rng = random.Random(graph.n)
    configurations = [protocol.random_configuration(rng) for _ in range(10)]
    assert_orbit_values_agree(protocol, full, quotient, configurations, graph.n)


@pytest.mark.parametrize("graph_name", ["petersen", "shrikhande"])
def test_quotient_matches_region_closure_beyond_rings(request, graph_name):
    graph = (
        petersen_graph()
        if graph_name == "petersen"
        else request.getfixturevalue("shrikhande")
    )
    assert ring_automorphisms(graph) is None
    protocol, specification = unison_on(graph)
    rng = random.Random(7)
    initial = [protocol.random_configuration(rng) for _ in range(20)]
    full = verify_stabilization(
        protocol, specification, "synchronous", initial=initial
    )
    quotient = verify_stabilization(
        protocol, specification, "synchronous", initial=initial, symmetry=True
    )
    assert quotient.stabilizes == full.stabilizes
    assert quotient.exact_worst_case == full.exact_worst_case
    assert quotient.state_count <= full.state_count
    assert_orbit_values_agree(protocol, full, quotient, initial, 7)


def test_quotient_agrees_across_engines():
    if not numpy_available():
        pytest.skip("engine comparison requires NumPy")
    protocol, specification = unison_instance(4, alpha=2, K=8)
    results = {
        engine: verify_stabilization(
            protocol, specification, "synchronous", symmetry=True, engine=engine
        )
        for engine in ("dict", "batched")
    }
    assert results["dict"].state_count == results["batched"].state_count
    assert results["dict"].exact_worst_case == results["batched"].exact_worst_case
    assert (
        results["dict"].legitimate_count == results["batched"].legitimate_count
    )


# --------------------------------------------------------------------- #
# Concretized certificates
# --------------------------------------------------------------------- #
def replay_lasso(counterexample, protocol):
    configs = list(counterexample.stem) + list(counterexample.cycle)
    selections = list(counterexample.stem_selections) + list(
        counterexample.cycle_selections
    )
    sequence = configs + [counterexample.cycle[0]]
    for i, selection in enumerate(selections):
        if not selection:
            assert sequence[i] == sequence[i + 1]
            continue
        successor, _ = protocol.apply(sequence[i], selection)
        assert successor == sequence[i + 1], f"replay mismatch at step {i}"


@pytest.mark.parametrize("engine", ["dict", "batched"])
def test_quotient_lassos_replay_concretely(engine):
    if engine == "batched" and not numpy_available():
        pytest.skip("batched engine requires NumPy")
    # alpha = 1 < hole - 2: genuinely diverging under the distributed
    # daemon, so the quotient must hand back a concrete replayable lasso.
    protocol, specification = unison_instance(5)
    result = verify_stabilization(
        protocol, specification, "distributed", symmetry=True, engine=engine
    )
    assert not result.stabilizes
    assert result.counterexample is not None
    replay_lasso(result.counterexample, protocol)
    full = verify_stabilization(protocol, specification, "distributed")
    assert result.exact_worst_case == full.exact_worst_case


# --------------------------------------------------------------------- #
# Soundness gates
# --------------------------------------------------------------------- #
def test_asymmetric_instances_refuse_the_quotient():
    # SSME's privileged values are spaced by vertex identity: quotienting
    # it would be unsound, and the capability flag says so.
    protocol = SSME(ring_graph(4))
    specification = MutualExclusionSpec(protocol)
    assert SymmetryReducer.for_instance(protocol, specification) is None
    with pytest.raises(VerificationError, match="symmetry"):
        verify_stabilization(
            protocol, specification, "synchronous", symmetry=True
        )
