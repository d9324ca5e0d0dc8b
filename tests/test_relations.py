import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsec import GroundSet, ProductGroundSet, Relation, product_relation, project

from oracles import (
    o_compose,
    o_equivalence_closure,
    o_fixpoint_closure,
    o_inverse,
    o_is_transitive,
    o_project,
)


def rel(n, pairs):
    return Relation(GroundSet(n), frozenset(pairs))


@st.composite
def relations(draw, max_size=6, max_pairs=10):
    n = draw(st.integers(1, max_size))
    pairs = draw(
        st.frozensets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=max_pairs
        )
    )
    return Relation(GroundSet(n), pairs)


@st.composite
def relation_triples(draw, max_size=5):
    n = draw(st.integers(1, max_size))
    g = GroundSet(n)
    out = []
    for _ in range(3):
        pairs = draw(
            st.frozensets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8)
        )
        out.append(Relation(g, pairs))
    return tuple(out)


def class_pairs(labels):
    return frozenset(
        (a, b) for a, la in enumerate(labels) for b, lb in enumerate(labels) if la == lb
    )


@st.composite
def equivalence_pairs(draw, max_size=40, max_classes=4):
    """Two equivalence relations of 1 to max_classes classes on one ground set."""
    n = draw(st.integers(1, max_size))
    out = []
    for _ in range(2):
        k = draw(st.integers(1, min(max_classes, n)))
        labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        out.append(Relation(GroundSet(n), class_pairs(labels)))
    return tuple(out)


@st.composite
def dense_relation_pairs(draw, max_size=20, max_pairs=200):
    n = draw(st.integers(1, max_size))
    point = st.integers(0, n - 1)
    return tuple(
        Relation(GroundSet(n), draw(st.frozensets(st.tuples(point, point), max_size=max_pairs)))
        for _ in range(2)
    )


class TestGroundSet:
    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            GroundSet(0)
        with pytest.raises(ValueError):
            GroundSet(-2)

    @pytest.mark.parametrize("size", [True, False, 1.0])
    def test_size_must_be_an_int_not_a_bool_or_float(self, size):
        with pytest.raises(ValueError, match="ground set size must be a positive integer"):
            GroundSet(size)

    def test_immutable(self):
        g = GroundSet(3)
        with pytest.raises(Exception):
            g.size = 5

    def test_product_index_bijection(self):
        pg = ProductGroundSet(GroundSet(3), GroundSet(4))
        assert pg.size == 12
        seen = set()
        for x in range(3):
            for y in range(4):
                k = pg.index(x, y)
                assert divmod(k, pg.right.size) == (x, y)
                seen.add(k)
        assert seen == set(range(12))

    def test_product_equality_distinguishes_factors(self):
        assert ProductGroundSet(GroundSet(2), GroundSet(3)) != ProductGroundSet(
            GroundSet(3), GroundSet(2)
        )
        assert ProductGroundSet(GroundSet(2), GroundSet(3)) != GroundSet(6)
        assert GroundSet(6) != ProductGroundSet(GroundSet(2), GroundSet(3))
        a = ProductGroundSet(GroundSet(2), GroundSet(3))
        b = ProductGroundSet(GroundSet(2), GroundSet(3))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "ProductGroundSet(GroundSet(size=2), GroundSet(size=3))"
        with pytest.raises(TypeError):
            ProductGroundSet(GroundSet(2), GroundSet(3), 6)
        with pytest.raises(AttributeError):
            a.size = 7
        assert a.size == 6


class TestCompose:
    def test_diagonal_is_identity(self):
        r = rel(4, {(0, 1), (2, 3), (3, 3)})
        d = r.ground.diagonal()
        assert d.compose(r) == r
        assert r.compose(d) == r

    def test_empty_absorbs(self):
        r = rel(3, {(0, 1), (1, 2)})
        assert r.ground.empty().compose(r) == r.ground.empty()
        assert r.compose(r.ground.empty()) == r.ground.empty()

    def test_chain(self):
        # brute-force enumeration of all (a, b, c) triples gives exactly {(0, 2)}
        assert rel(3, {(0, 1)}).compose(rel(3, {(1, 2)})) == rel(3, {(0, 2)})

    def test_ground_mismatch(self):
        with pytest.raises(ValueError):
            rel(3, set()).compose(rel(4, set()))

    @given(relation_triples())
    def test_associative(self, triple):
        r, s, t = triple
        assert r.compose(s).compose(t) == r.compose(s.compose(t))

    @given(relations())
    def test_matches_oracle(self, r):
        rng = random.Random(17)
        other = Relation(
            r.ground,
            frozenset(
                (rng.randrange(r.ground.size), rng.randrange(r.ground.size))
                for _ in range(6)
            ),
        )
        assert r.compose(other).pairs == o_compose(r.pairs, other.pairs)


class TestComposeKernel:
    """compose and is_transitive against straight loops, up to 40-point equivalences."""

    @settings(max_examples=40, deadline=None)
    @given(equivalence_pairs())
    def test_equivalences_up_to_40_points(self, rs):
        r, s = rs
        # r with itself shares one successor index; an equal copy and s do not
        assert r.compose(r).pairs == o_compose(r.pairs, r.pairs) == r.pairs
        assert r.compose(Relation(r.ground, r.pairs)).pairs == r.pairs
        assert r.compose(s).pairs == o_compose(r.pairs, s.pairs)

    @settings(max_examples=100, deadline=None)
    @given(dense_relation_pairs())
    def test_dense_relations_up_to_20_points(self, rs):
        r, s = rs
        assert r.compose(s).pairs == o_compose(r.pairs, s.pairs)
        assert r.compose(r).pairs == o_compose(r.pairs, r.pairs)

    @settings(max_examples=100, deadline=None)
    @given(dense_relation_pairs(max_pairs=60), st.data())
    def test_middles_without_successors(self, rs, data):
        r, s = rs
        middles = sorted({b for _, b in r.pairs})
        if not middles:
            middles = [0]
            r = Relation(r.ground, frozenset({(0, 0)}))
        dead = data.draw(st.sets(st.sampled_from(middles), min_size=1))
        s = Relation(s.ground, frozenset((b, c) for b, c in s.pairs if b not in dead))
        assert r.compose(s).pairs == o_compose(r.pairs, s.pairs)

    @settings(max_examples=150, deadline=None)
    @given(dense_relation_pairs(max_size=12, max_pairs=40))
    def test_is_transitive_matches_triple_loop(self, rs):
        r, _ = rs
        assert r.is_transitive() == o_is_transitive(r.ground.size, r.pairs)

    @settings(max_examples=40, deadline=None)
    @given(equivalence_pairs(max_size=20), st.data())
    def test_is_transitive_on_equivalences_less_one_pair(self, rs, data):
        r, _ = rs
        assert r.is_transitive() and r.is_equivalence()
        dropped = data.draw(st.sampled_from(sorted(r.pairs)))
        less = Relation(r.ground, r.pairs - {dropped})
        assert less.is_transitive() == o_is_transitive(r.ground.size, less.pairs)


class TestInverse:
    def test_diagonal_fixed(self):
        d = GroundSet(3).diagonal()
        assert d.inverse() == d

    def test_single_pair(self):
        assert rel(2, {(0, 1)}).inverse() == rel(2, {(1, 0)})

    @given(relations())
    def test_involution(self, r):
        assert r.inverse().inverse() == r

    @given(relation_triples())
    def test_antihomomorphism(self, triple):
        r, s, _ = triple
        assert r.compose(s).inverse() == s.inverse().compose(r.inverse())

    @given(relations())
    def test_matches_oracle(self, r):
        assert r.inverse().pairs == o_inverse(r.pairs)


class TestSetOperations:
    def test_union_with_empty(self):
        r = rel(3, {(0, 1)})
        assert r.union(r.ground.empty()) == r

    def test_subset_of_union(self):
        g = GroundSet(3)
        d = g.diagonal()
        assert d.is_subset(d.union(rel(3, {(0, 1)})))

    def test_intersect(self):
        assert rel(2, {(0, 1), (1, 0)}).intersect(rel(2, {(0, 1)})) == rel(2, {(0, 1)})

    def test_ground_mismatch(self):
        for op in ("union", "intersect", "is_subset"):
            with pytest.raises(ValueError):
                getattr(rel(3, set()), op)(rel(4, set()))


class TestEquivalenceClosure:
    def test_empty_gives_diagonal(self):
        g = GroundSet(4)
        assert g.empty().equivalence_closure() == g.diagonal()

    def test_single_pair_size_three(self):
        # fixpoint of union/compose/inverse: all pairs within {0, 1} plus (2, 2)
        expected = rel(3, {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)})
        assert rel(3, {(0, 1)}).equivalence_closure() == expected

    def test_full_is_fixed(self):
        f = GroundSet(3).full()
        assert f.equivalence_closure() == f

    @given(relations())
    def test_idempotent_and_valid(self, r):
        c = r.equivalence_closure()
        assert c.equivalence_closure() == c
        assert c.is_reflexive() and c.is_symmetric() and c.is_transitive()
        assert r.is_subset(c)

    @given(relations(max_size=5))
    def test_monotone(self, r):
        extra = Relation(r.ground, frozenset({(0, 0), (r.ground.size - 1, 0)}))
        s = r.union(extra)
        assert r.equivalence_closure().is_subset(s.equivalence_closure())

    @given(relations())
    def test_matches_oracle(self, r):
        assert r.equivalence_closure().pairs == o_equivalence_closure(
            r.ground.size, r.pairs
        )


class TestDisjointSetClosure:
    """The disjoint-set closure against Warshall and against the old fixpoint."""

    @settings(max_examples=150, deadline=None)
    @given(relations(max_size=30, max_pairs=40))
    def test_matches_warshall_up_to_30_points(self, r):
        assert r.equivalence_closure().pairs == o_equivalence_closure(r.ground.size, r.pairs)

    @settings(max_examples=40, deadline=None)
    @given(relations(max_size=200, max_pairs=90))
    def test_matches_pair_set_fixpoint_up_to_200_points(self, r):
        assert r.equivalence_closure().pairs == o_fixpoint_closure(r.ground.size, r.pairs)

    @pytest.mark.parametrize("n", [1, 2, 64, 200])
    def test_path_in_any_order_is_one_class(self, n):
        rng = random.Random(n)
        steps = [(p + 1, p) if p % 2 else (p, p + 1) for p in range(n - 1)]
        rng.shuffle(steps)
        assert rel(n, steps).equivalence_closure() == GroundSet(n).full()

    def test_classes_are_squares(self):
        r = rel(7, {(0, 3), (3, 5), (6, 1), (2, 2)})
        classes = [{0, 3, 5}, {1, 6}, {2}, {4}]
        expected = {(a, b) for c in classes for a in c for b in c}
        assert r.equivalence_closure().pairs == expected


class TestProductAndProject:
    def test_diagonal_box(self):
        gx, gy = GroundSet(2), GroundSet(3)
        box = product_relation(gx.diagonal(), gy.diagonal())
        assert box == ProductGroundSet(gx, gy).diagonal()

    def test_pair_count_multiplies(self):
        k = rel(3, {(0, 1), (1, 2), (2, 2)})
        l = rel(2, {(0, 0), (1, 0)})
        assert len(product_relation(k, l).pairs) == len(k.pairs) * len(l.pairs)

    def test_single_box_pair(self):
        # ((0,1),(1,0)) under the pairing index x*2+y becomes (1, 2)
        k = rel(2, {(0, 1)})
        l = rel(2, {(1, 0)})
        assert sorted(product_relation(k, l).pairs) == [(1, 2)]

    def test_project_recovers_factors(self):
        k = rel(2, {(0, 1), (1, 1)})
        l = rel(3, {(2, 0)})
        box = product_relation(k, l)
        assert project(box, 1) == k
        assert project(box, 2) == l

    def test_project_empty(self):
        pg = ProductGroundSet(GroundSet(2), GroundSet(2))
        e = Relation(pg, frozenset())
        assert project(e, 1) == GroundSet(2).empty()

    def test_project_requires_product_ground(self):
        with pytest.raises(ValueError):
            project(rel(4, {(0, 1)}), 1)
        pg = ProductGroundSet(GroundSet(2), GroundSet(2))
        with pytest.raises(ValueError):
            project(Relation(pg, frozenset()), 3)

    def test_project_matches_oracle_on_random_relations(self):
        rng = random.Random(5)
        pg = ProductGroundSet(GroundSet(3), GroundSet(3))
        for _ in range(50):
            pairs = frozenset(
                (rng.randrange(9), rng.randrange(9)) for _ in range(rng.randint(0, 12))
            )
            e = Relation(pg, pairs)
            for axis in (1, 2):
                assert project(e, axis).pairs == o_project(3, pairs, axis)

    @settings(max_examples=30)
    @given(relations(max_size=3, max_pairs=5), relations(max_size=3, max_pairs=5))
    def test_project_of_box_roundtrips(self, k, l):
        box = product_relation(k, l)
        if l.pairs:
            assert project(box, 1) == k
        if k.pairs:
            assert project(box, 2) == l


def test_pairs_validated_against_ground():
    with pytest.raises(ValueError):
        rel(2, {(0, 2)})
    with pytest.raises(ValueError):
        rel(2, {(-1, 0)})


def test_pairs_must_be_ints():
    # neither truncated through int() nor accepted as bools
    for pairs in ({(1.7, 0)}, {(True, 2)}, {(0, 1.0)}):
        with pytest.raises(ValueError, match="not an int"):
            Relation(GroundSet(3), frozenset(pairs))


def test_out_of_range_message():
    with pytest.raises(ValueError, match=r"^pair \(0, 2\) outside ground set of size 2$"):
        rel(2, {(0, 2)})


def test_given_frozenset_is_kept_and_other_iterables_frozen():
    pairs = frozenset({(0, 1)})
    assert Relation(GroundSet(2), pairs).pairs is pairs
    assert Relation(GroundSet(2), [(0, 1), (0, 1)]).pairs == pairs
