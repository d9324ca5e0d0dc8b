import random
from itertools import accumulate, count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsec import (
    CadProvider,
    EntourageSequence,
    Family,
    GroundSet,
    PropertyCWitness,
    Relation,
    array_index,
    brute_force_witness,
    check_witness,
    column_witness,
    components_witness,
    generate,
    is_disjoint,
    is_uniformly_bounded,
    squares_union,
)

from oracles import (
    o_brute_force_witness,
    o_disjoint_offense,
    o_equivalence_closure,
    o_is_disjoint,
    o_is_uniformly_bounded,
)


def rel(n, pairs):
    return Relation(GroundSet(n), frozenset(pairs))


def fam(n, *members):
    return Family(GroundSet(n), tuple(frozenset(m) for m in members))


def random_structure(rng, n, generator_count=1, pair_count=3):
    gens = [
        rel(n, {(rng.randrange(n), rng.randrange(n)) for _ in range(pair_count)})
        for _ in range(generator_count)
    ]
    return generate(GroundSet(n), gens)


class TestFamily:
    def test_rejects_empty_member(self):
        with pytest.raises(ValueError):
            fam(3, set())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            fam(3, {0}, {0})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            fam(2, {0, 2})

    def test_rejects_non_int_points(self):
        for member in ({1.5}, {True}, {0, 2.0}):
            with pytest.raises(ValueError, match="not an int"):
                Family(GroundSet(3), (frozenset(member),))

    def test_empty_family_allowed(self):
        f = Family(GroundSet(3), ())
        assert f.covered() == frozenset()


class TestEntourageSequence:
    def test_must_be_nondecreasing(self):
        g = GroundSet(2)
        with pytest.raises(ValueError):
            EntourageSequence(g, (g.full(), g.diagonal()))

    def test_must_be_nonempty(self):
        with pytest.raises(ValueError):
            EntourageSequence(GroundSet(2), ())

    def test_extend_by_last(self):
        g = GroundSet(2)
        seq = EntourageSequence(g, (g.diagonal(), g.full()))
        assert seq.at(1) == g.diagonal()
        assert seq.at(2) == g.full()
        assert seq.at(99) == g.full()
        with pytest.raises(ValueError):
            seq.at(0)

    @pytest.mark.parametrize("k", [2.5, 1.0, True, "1"])
    def test_rejects_non_int_index(self, k):
        g = GroundSet(2)
        seq = EntourageSequence(g, (g.diagonal(), g.full()))
        with pytest.raises(ValueError, match="sequence index must be an int"):
            seq.at(k)


def chain(length):
    """A sequence of `length` distinct nested relations: item t joins points 0..t-1."""
    g = GroundSet(length + 1)
    items = tuple(
        g.diagonal().union(rel(length + 1, {(a, b) for a in range(t) for b in range(t)}))
        for t in range(1, length + 1)
    )
    return EntourageSequence(g, items)


def old_k_sequence(l_seq, dim_at):
    """The K-sequence loop cad_to_sfcdc used before subsequence existed."""
    k_terms = []
    cum = 0
    j = 1
    while True:
        cum += dim_at(j)
        k_terms.append(l_seq.at(cum))
        if cum >= len(l_seq):
            break
        j += 1
    return EntourageSequence(l_seq.ground, tuple(k_terms))


def old_column(factor_seq, i):
    """The array-column loop column_witness used before subsequence existed."""
    entries = []
    j = 1
    while True:
        k = array_index(i, j)
        entries.append(factor_seq.at(k))
        if k >= len(factor_seq):
            break
        j += 1
    return EntourageSequence(factor_seq.ground, tuple(entries))


class TestSubsequence:
    def test_stops_at_last_position(self):
        seq = chain(5)
        sub = seq.subsequence([1, 3, 5, 7])
        assert sub.items == (seq.at(1), seq.at(3), seq.at(5))

    def test_jump_past_the_end_reads_the_last_item(self):
        seq = chain(5)
        assert seq.subsequence([2, 9, 12]).items == (seq.at(2), seq.items[-1])

    def test_one_item_sequence(self):
        seq = chain(1)
        assert seq.subsequence(count(1)).items == seq.items
        assert seq.subsequence([4]).items == seq.items

    def test_generator_is_read_only_up_to_the_stop(self):
        seq = chain(5)
        positions = (2 * j for j in count(1))
        assert seq.subsequence(positions).items == (seq.at(2), seq.at(4), seq.at(5))
        assert next(positions) == 8

    def test_empty_positions_rejected(self):
        with pytest.raises(ValueError, match="entourage sequence must be nonempty"):
            chain(3).subsequence([])

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=4),
    )
    def test_matches_the_loops_it_replaced(self, length, dims, i):
        seq = chain(length)
        provider = CadProvider(tuple(dims), lambda structure, k_seq: ((), ()))
        k_seq = seq.subsequence(accumulate(map(provider.dim_at, count(1))))
        assert k_seq == old_k_sequence(seq, provider.dim_at)
        structure = generate(seq.ground, [seq.ground.full()])
        record = column_witness(structure, components_witness, seq, i)
        assert record.entourages == old_column(seq, i)


class TestIsDisjoint:
    def test_single_member_always_disjoint(self):
        f = fam(3, {0, 1, 2})
        assert is_disjoint(f, GroundSet(3).full())

    def test_joined_pair(self):
        f = fam(2, {0}, {1})
        assert not is_disjoint(f, rel(2, {(0, 1)}))

    def test_overlapping_members_with_reflexive_entourage(self):
        f = fam(3, {0, 1}, {1, 2})
        assert not is_disjoint(f, GroundSet(3).diagonal())
        assert is_disjoint(f, rel(3, set()))

    def test_matches_double_loop_oracle(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(1, 5)
            members = set()
            for _ in range(rng.randint(0, 3)):
                m = frozenset(
                    rng.randrange(n) for _ in range(rng.randint(1, n))
                )
                if m:
                    members.add(m)
            f = Family(GroundSet(n), tuple(members))
            pairs = frozenset(
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 6))
            )
            assert is_disjoint(f, rel(n, pairs)) == o_is_disjoint(f.members, pairs)

    @settings(max_examples=60)
    @given(st.data())
    def test_antimonotone_in_entourage(self, data):
        n = data.draw(st.integers(1, 5))
        g = GroundSet(n)
        small = data.draw(
            st.frozensets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)
        )
        extra = data.draw(
            st.frozensets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)
        )
        members = data.draw(
            st.sets(
                st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n), max_size=3
            )
        )
        f = Family(g, tuple(members))
        e_small, e_big = rel(n, small), rel(n, small | extra)
        if is_disjoint(f, e_big):
            assert is_disjoint(f, e_small)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_witness_failure_names_first_sorted_pair(self, data):
        n = data.draw(st.integers(1, 8))
        point = st.integers(0, n - 1)
        members = data.draw(st.sets(st.frozensets(point, min_size=1, max_size=n), max_size=5))
        pairs = data.draw(st.frozensets(st.tuples(point, point), max_size=12))
        g = GroundSet(n)
        f = Family(g, tuple(members))
        f = Family(g, f.members + tuple(frozenset({p}) for p in range(n) if p not in f.covered()))
        seq = EntourageSequence(g, (Relation(g, pairs),))
        report = check_witness(generate(g, [g.full()]), seq, PropertyCWitness((f,)))
        offense = o_disjoint_offense(f.members, pairs)
        assert report.disjoint_ok == (offense is None)
        assert report.failure == (None if offense is None else ("not-disjoint", 1) + offense)


class TestUniformlyBounded:
    def test_singletons_always_bounded(self):
        s = generate(GroundSet(4), [])
        f = fam(4, {0}, {1}, {2}, {3})
        assert is_uniformly_bounded(f, s)

    def test_whole_space_iff_full(self):
        full = generate(GroundSet(3), [GroundSet(3).full()])
        sparse = generate(GroundSet(3), [])
        f = fam(3, {0, 1, 2})
        assert is_uniformly_bounded(f, full)
        assert not is_uniformly_bounded(f, sparse)

    def test_member_straddling_classes(self):
        s = generate(GroundSet(3), [rel(3, {(0, 1)})])
        assert not is_uniformly_bounded(fam(3, {0, 2}), s)

    def test_squares_union(self):
        f = fam(3, {0, 1})
        assert squares_union(f) == rel(3, {(0, 0), (0, 1), (1, 0), (1, 1)})


@st.composite
def structure_and_family(draw, max_size=12):
    """A generated structure and a family whose members may overlap."""
    n = draw(st.integers(1, max_size))
    point = st.integers(0, n - 1)
    gens = draw(st.lists(st.frozensets(st.tuples(point, point), max_size=n), max_size=3))
    members = draw(st.sets(st.frozensets(point, min_size=1, max_size=n), max_size=6))
    g = GroundSet(n)
    return generate(g, [Relation(g, p) for p in gens]), Family(g, tuple(members)), gens


class TestAnchorStars:
    """is_uniformly_bounded tests anchor stars; the reference is member squares."""

    @settings(max_examples=200, deadline=None)
    @given(structure_and_family())
    def test_matches_squares_oracle(self, case):
        s, f, gens = case
        emax = o_equivalence_closure(s.ground.size, frozenset().union(*gens))
        expected = o_is_uniformly_bounded(f.members, emax)
        assert is_uniformly_bounded(f, s) == expected
        assert squares_union(f).is_subset(s.emax) == expected

    @settings(max_examples=60, deadline=None)
    @given(structure_and_family(max_size=40))
    def test_matches_squares_union_up_to_40_points(self, case):
        s, f, _ = case
        assert is_uniformly_bounded(f, s) == s.contains(squares_union(f))

    def test_member_bounded_only_through_its_own_least_point(self):
        # {1, 2} is bounded; the least point of the family, 0, is in another class
        s = generate(GroundSet(4), [rel(4, {(1, 2)})])
        assert is_uniformly_bounded(fam(4, {0}, {1, 2}), s)
        assert not is_uniformly_bounded(fam(4, {0}, {1, 2, 3}), s)
        assert not is_uniformly_bounded(fam(4, {0, 3}, {1, 2}), s)


class TestCheckWitness:
    def test_components_witness_passes(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randint(1, 8)
            s = random_structure(rng, n, generator_count=rng.randint(0, 2))
            items = []
            e = s.ground.diagonal()
            for _ in range(rng.randint(1, 3)):
                e = e.union(
                    rel(n, {(rng.randrange(n), rng.randrange(n))}).intersect(s.emax)
                ).union(e)
                items.append(e)
            seq = EntourageSequence(s.ground, tuple(items))
            w = components_witness(s, seq)
            assert check_witness(s, seq, w).ok

    def test_missing_point_fails_cover(self):
        s = generate(GroundSet(3), [GroundSet(3).full()])
        seq = EntourageSequence(s.ground, (s.ground.diagonal(),))
        w = PropertyCWitness((fam(3, {0, 1}),))
        report = check_witness(s, seq, w)
        assert not report.cover_ok
        assert report.failure == ("uncovered-point", 2)

    def test_single_family_whole_space(self):
        s = generate(GroundSet(2), [GroundSet(2).full()])
        seq = EntourageSequence(s.ground, (s.ground.diagonal(),))
        w = PropertyCWitness((fam(2, {0, 1}),))
        assert check_witness(s, seq, w).ok

    def test_prefix_monotone(self):
        rng = random.Random(33)
        for _ in range(25):
            n = rng.randint(2, 6)
            s = random_structure(rng, n)
            e1 = s.ground.diagonal()
            e2 = s.emax
            seq = EntourageSequence(s.ground, (e1, e2))
            w = components_witness(s, seq)
            extended = PropertyCWitness(w.families + (Family(s.ground, ()),))
            if check_witness(s, seq, extended).ok:
                prefix = EntourageSequence(s.ground, (e1,))
                assert check_witness(s, prefix, extended).ok

    def test_ground_mismatch_raises(self):
        s = generate(GroundSet(3), [])
        seq = EntourageSequence(GroundSet(4), (GroundSet(4).diagonal(),))
        with pytest.raises(ValueError):
            check_witness(s, seq, PropertyCWitness((fam(4, {0}),)))

    def test_disjoint_failure_datum(self):
        s = generate(GroundSet(2), [GroundSet(2).full()])
        seq = EntourageSequence(s.ground, (rel(2, {(0, 1)}),))
        w = PropertyCWitness((fam(2, {0}, {1}),))
        report = check_witness(s, seq, w)
        assert not report.disjoint_ok
        assert report.failure == ("not-disjoint", 1, [0], [1], [0, 1])


class TestComponentsWitness:
    def test_full_structure(self):
        s = generate(GroundSet(3), [GroundSet(3).full()])
        seq = EntourageSequence(s.ground, (s.emax,))
        w = components_witness(s, seq)
        assert [sorted(m) for f in w.families for m in f.members] == [[0, 1, 2]]

    def test_discrete_structure(self):
        s = generate(GroundSet(3), [])
        seq = EntourageSequence(s.ground, (s.ground.diagonal(),))
        w = components_witness(s, seq)
        assert [sorted(m) for f in w.families for m in f.members] == [[0], [1], [2]]

    def test_two_classes(self):
        s = generate(GroundSet(3), [rel(3, {(0, 1)})])
        seq = EntourageSequence(s.ground, (s.ground.diagonal(),))
        w = components_witness(s, seq)
        assert [sorted(m) for f in w.families for m in f.members] == [[0, 1], [2]]

    def test_rejects_outside_sequence(self):
        s = generate(GroundSet(3), [])
        seq = EntourageSequence(s.ground, (rel(3, {(0, 1)}).union(s.ground.diagonal()),))
        with pytest.raises(ValueError):
            components_witness(s, seq)


class TestBruteForceWitness:
    def test_guards(self):
        s = generate(GroundSet(7), [])
        seq = EntourageSequence(s.ground, (s.ground.diagonal(),))
        with pytest.raises(ValueError):
            brute_force_witness(s, seq, 1)
        s6 = generate(GroundSet(3), [])
        seq6 = EntourageSequence(s6.ground, (s6.ground.diagonal(),))
        with pytest.raises(ValueError):
            brute_force_witness(s6, seq6, 4)

    @pytest.mark.parametrize("max_n", [True, 2.5, 2.0])
    def test_max_n_must_be_an_int(self, max_n):
        s = generate(GroundSet(3), [])
        seq = EntourageSequence(s.ground, (s.ground.diagonal(),))
        with pytest.raises(ValueError, match="max_n"):
            brute_force_witness(s, seq, max_n)

    def test_always_finds_when_sequence_inside(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 5)
            s = random_structure(rng, n)
            seq = EntourageSequence(s.ground, (s.emax,))
            w = brute_force_witness(s, seq, 1)
            assert w is not None
            assert check_witness(s, seq, w).ok

    def test_full_structure_found_with_one_family(self):
        s = generate(GroundSet(4), [GroundSet(4).full()])
        seq = EntourageSequence(s.ground, (s.ground.full(),))
        w = brute_force_witness(s, seq, 1)
        assert w is not None and len(w.families) == 1

    def test_not_found_case(self):
        # discrete structure on 3 points, full entourage, at most 2 families:
        # members must be singletons (boundedness), so some family holds two,
        # and the full entourage joins them
        s = generate(GroundSet(3), [])
        seq = EntourageSequence(s.ground, (s.ground.full(),))
        assert brute_force_witness(s, seq, 2) is None

    def test_singleton_families_sidestep_disjointness(self):
        # one member per family is vacuously disjoint, so two points always work
        s = generate(GroundSet(2), [])
        seq = EntourageSequence(s.ground, (s.ground.full(),))
        w = brute_force_witness(s, seq, 2)
        assert w is not None and len(w.families) == 2
        assert check_witness(s, seq, w).ok

    def test_found_implies_components_passes(self):
        rng = random.Random(8)
        for _ in range(15):
            s = random_structure(rng, 4)
            seq = EntourageSequence(s.ground, (s.ground.diagonal(), s.emax))
            found = brute_force_witness(s, seq, 2)
            if found is not None:
                w = components_witness(s, seq)
                assert check_witness(s, seq, w).ok

    def test_deterministic_without_seed(self):
        s = generate(GroundSet(4), [rel(4, {(0, 1)})])
        seq = EntourageSequence(s.ground, (s.ground.diagonal(),))
        assert brute_force_witness(s, seq, 2) == brute_force_witness(s, seq, 2)

    def test_matches_oracle_search_order(self):
        # the returned witness, families, members and their order, is the first
        # candidate of the oracle's enumeration, seeded or not
        rng = random.Random(19)
        found_count = reordered = 0
        for _ in range(200):
            n = rng.randint(1, 5)
            s = random_structure(rng, n, generator_count=rng.randint(0, 2))
            raw = [
                frozenset((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 4)))
                for _ in range(rng.randint(1, 3))
            ]
            items = list(accumulate(raw, frozenset.union))
            seq = EntourageSequence(s.ground, tuple(rel(n, e) for e in items))
            max_n = rng.randint(1, 2)
            results = []
            for seed in (None, 0, 7, rng.randrange(10**6)):
                found = brute_force_witness(s, seq, max_n, seed=seed)
                got = None if found is None else tuple(f.members for f in found.families)
                assert got == o_brute_force_witness(n, s.emax.pairs, items, max_n, seed)
                results.append(got)
            found_count += results[0] is not None
            reordered += any(r != results[0] for r in results[1:])
        assert found_count >= 100 and reordered >= 10

    def test_seeded_search_still_finds(self):
        s = generate(GroundSet(4), [rel(4, {(0, 1)})])
        seq = EntourageSequence(s.ground, (s.ground.diagonal(),))
        w = brute_force_witness(s, seq, 2, seed=99)
        assert w is not None
        assert check_witness(s, seq, w).ok
