import dataclasses
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coarsec import (
    CoarseStructure,
    FiniteMetric,
    GroundSet,
    Relation,
    generate,
    max_metric_product,
    metric_entourage,
    product_relation,
    product_structure,
    project,
    structure_from_metric,
)

from oracles import (
    o_closure_relations,
    o_closure_union_free,
    o_max_metric_product,
    o_metric_entourage,
    o_metric_violation,
)


def rel(n, pairs):
    return Relation(GroundSet(n), frozenset(pairs))


PATH3 = FiniteMetric.from_rows([[0, 1, 2], [1, 0, 1], [2, 1, 0]])


class TestGenerate:
    def test_no_generators_gives_diagonal(self):
        g = GroundSet(3)
        assert generate(g, []).emax == g.diagonal()

    def test_single_pair_generator(self):
        # exhaustive closure under the four axioms: {0,1}^2 plus (2,2)
        s = generate(GroundSet(3), [rel(3, {(0, 1)})])
        assert s.emax == rel(3, {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)})

    def test_full_generator(self):
        g = GroundSet(4)
        assert generate(g, [g.full()]).emax == g.full()

    def test_generator_ground_mismatch(self):
        with pytest.raises(ValueError):
            generate(GroundSet(3), [rel(4, set())])

    def test_emax_is_equivalence(self):
        rng = random.Random(2)
        for _ in range(30):
            n = rng.randint(1, 6)
            gens = [
                rel(n, {(rng.randrange(n), rng.randrange(n)) for _ in range(3)})
                for _ in range(rng.randint(0, 2))
            ]
            emax = generate(GroundSet(n), gens).emax
            assert emax.is_reflexive() and emax.is_symmetric() and emax.is_transitive()

    def test_membership_matches_literal_closure(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(1, 4)
            gens = [
                frozenset(
                    (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))
                )
                for _ in range(rng.randint(0, 2))
            ]
            s = generate(GroundSet(n), [rel(n, g) for g in gens])
            closure = o_closure_union_free(n, gens)
            biggest = frozenset().union(*closure)
            assert s.emax.pairs == biggest

    def test_union_free_closure_agrees_with_fully_literal(self):
        # on tiny instances the exploding literal closure is feasible and
        # must induce the same membership predicate
        rng = random.Random(10)
        for _ in range(10):
            n = rng.randint(1, 2)
            gens = [
                frozenset(
                    (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2))
                )
            ]
            literal = o_closure_relations(n, gens)
            union_free = o_closure_union_free(n, gens)
            assert frozenset().union(*literal) == frozenset().union(*union_free)

    def test_membership_predicate_full_sweep_small(self):
        # every relation on a 3-point set, against the literal closure set
        rng = random.Random(11)
        all_pairs = [(a, b) for a in range(3) for b in range(3)]
        for _ in range(5):
            gens = [
                frozenset(
                    (rng.randrange(3), rng.randrange(3)) for _ in range(rng.randint(0, 2))
                )
            ]
            s = generate(GroundSet(3), [rel(3, g) for g in gens])
            closure = o_closure_relations(3, gens)
            for mask in range(1 << 9):
                e = frozenset(p for i, p in enumerate(all_pairs) if mask >> i & 1)
                in_structure = s.contains(rel(3, e))
                in_closure = any(e <= a for a in closure)
                assert in_structure == in_closure


class TestContains:
    def test_diagonal_always_member(self):
        s = generate(GroundSet(3), [])
        assert s.contains(s.ground.diagonal())

    def test_emax_member(self):
        s = generate(GroundSet(3), [rel(3, {(0, 1)})])
        assert s.contains(s.emax)

    def test_outside_pair(self):
        s = generate(GroundSet(3), [rel(3, {(0, 1)})])
        assert not s.contains(rel(3, {(0, 2)}))

    def test_ground_mismatch(self):
        s = generate(GroundSet(3), [])
        with pytest.raises(ValueError):
            s.contains(rel(4, set()))


class TestCoarseStructureInvariants:
    def test_rejects_non_equivalence_emax(self):
        g = GroundSet(2)
        with pytest.raises(ValueError):
            CoarseStructure(g, emax=rel(2, {(0, 1)}))

    def test_classes(self):
        s = generate(GroundSet(5), [rel(5, {(0, 1), (3, 4)})])
        assert [sorted(c) for c in s.classes()] == [[0, 1], [2], [3, 4]]


class TestStructureIsItsEmax:
    def test_fields_are_ground_and_emax(self):
        assert [f.name for f in dataclasses.fields(CoarseStructure)] == ["ground", "emax"]

    def test_nested_metric_scales_give_equal_structures(self):
        a, b = structure_from_metric(PATH3, [1, 2]), structure_from_metric(PATH3, [2])
        assert a == b
        assert hash(a) == hash(b)

    def test_repeated_generator_gives_an_equal_structure(self):
        g, r = GroundSet(4), rel(4, {(0, 1), (2, 3)})
        a, b = generate(g, [r]), generate(g, [r, r])
        assert a == b
        assert hash(a) == hash(b)

    def test_constructions_pass_emax_by_keyword(self, monkeypatch):
        # bench/tracing.py's CoarseStructure hook reads the emax argument by name
        keywords = []
        init = CoarseStructure.__init__

        def recording_init(self, *args, **kwargs):
            keywords.append(sorted(kwargs))
            init(self, *args, **kwargs)

        monkeypatch.setattr(CoarseStructure, "__init__", recording_init)
        s = structure_from_metric(PATH3, [1])
        product_structure(s, generate(GroundSet(2), []))
        assert keywords == [["emax"]] * 3


class TestFiniteMetric:
    def test_validation(self):
        with pytest.raises(ValueError, match=r"^asymmetric distances at \(0, 1\)$"):
            FiniteMetric.from_rows([[0, 1], [2, 0]])
        with pytest.raises(ValueError, match=r"^nonzero diagonal entry at \(0, 0\)$"):
            FiniteMetric.from_rows([[1, 1], [1, 0]])
        with pytest.raises(ValueError, match=r"^negative distance at \(0, 1\)$"):
            FiniteMetric.from_rows([[0, -1], [-1, 0]])
        with pytest.raises(
            ValueError, match=r"^triangle inequality fails: d\(0,2\) > d\(0,1\) \+ d\(1,2\)$"
        ):
            FiniteMetric.from_rows([[0, 1, 5], [1, 0, 1], [5, 1, 0]])

    def test_entourage_at_zero(self):
        assert metric_entourage(PATH3, 0) == GroundSet(3).diagonal()

    def test_entourage_at_diameter(self):
        assert metric_entourage(PATH3, max(PATH3.scales())) == GroundSet(3).full()

    def test_path_metric_unit_ball(self):
        expected = rel(3, {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)})
        assert metric_entourage(PATH3, 1) == expected

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            metric_entourage(PATH3, -1)

    def test_exact_fractions(self):
        m = FiniteMetric.from_rows([["0", "1/3"], ["1/3", "0"]])
        below = metric_entourage(m, Fraction(1, 3) - Fraction(1, 10**12))
        at = metric_entourage(m, Fraction(1, 3))
        assert below == m.ground.diagonal()
        assert at == m.ground.full()

    def test_structure_from_metric_joins_path(self):
        s = structure_from_metric(PATH3, [1])
        assert s.emax == GroundSet(3).full()


class TestProductStructure:
    def test_diagonal_only_factors(self):
        s1 = generate(GroundSet(2), [])
        s2 = generate(GroundSet(3), [])
        p = product_structure(s1, s2)
        assert p.emax == p.ground.diagonal()

    def test_full_factors(self):
        s1 = generate(GroundSet(2), [GroundSet(2).full()])
        s2 = generate(GroundSet(2), [GroundSet(2).full()])
        p = product_structure(s1, s2)
        assert p.emax == p.ground.full()

    def test_emax_is_box_of_factor_emaxes(self):
        s1 = generate(GroundSet(3), [rel(3, {(0, 1)})])
        s2 = generate(GroundSet(2), [rel(2, {(0, 1)})])
        assert product_structure(s1, s2).emax == product_relation(s1.emax, s2.emax)

    def test_membership_biconditional_exhaustive_two_by_two(self):
        # every one of the 2^16 relations on a 2x2 product ground set
        s1 = generate(GroundSet(2), [rel(2, {(0, 1)})])
        s2 = generate(GroundSet(2), [])
        p = product_structure(s1, s2)
        all_pairs = [(a, b) for a in range(4) for b in range(4)]
        for mask in range(1 << 16):
            e = Relation(
                p.ground,
                frozenset(q for i, q in enumerate(all_pairs) if mask >> i & 1),
            )
            expected = (not e.pairs) or (
                s1.contains(project(e, 1)) and s2.contains(project(e, 2))
            )
            assert p.contains(e) == expected

    def test_membership_biconditional(self):
        rng = random.Random(3)
        for _ in range(40):
            n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
            s1 = generate(
                GroundSet(n1),
                [rel(n1, {(rng.randrange(n1), rng.randrange(n1)) for _ in range(2)})],
            )
            s2 = generate(
                GroundSet(n2),
                [rel(n2, {(rng.randrange(n2), rng.randrange(n2)) for _ in range(2)})],
            )
            p = product_structure(s1, s2)
            size = p.ground.size
            e = Relation(
                p.ground,
                frozenset(
                    (rng.randrange(size), rng.randrange(size))
                    for _ in range(rng.randint(0, 10))
                ),
            )
            both = (not e.pairs) or (
                s1.contains(project(e, 1)) and s2.contains(project(e, 2))
            )
            if e.pairs:
                assert p.contains(e) == both
            else:
                assert p.contains(e)


class TestMaxMetricProduct:
    def test_single_points(self):
        one = FiniteMetric.from_rows([[0]])
        prod = max_metric_product(one, one)
        assert prod.ground.size == 1
        assert prod.dist[0][0] == 0

    def test_one_point_factor_reproduces_other(self):
        one = FiniteMetric.from_rows([[0]])
        prod = max_metric_product(PATH3, one)
        assert prod.dist == PATH3.dist

    def test_two_by_two_distances(self):
        unit = FiniteMetric.from_rows([[0, 1], [1, 0]])
        prod = max_metric_product(unit, unit)
        values = [x for row in prod.dist for x in row]
        assert set(values) == {Fraction(0), Fraction(1)}
        assert values.count(Fraction(0)) == 4

    def test_bounded_structure_agrees_with_product(self):
        # full scale lists on the factors and the product give the same emax
        rng = random.Random(7)
        from gen import random_metric

        for _ in range(10):
            m1 = random_metric(rng, rng.randint(1, 4))
            m2 = random_metric(rng, rng.randint(1, 4))
            s1 = structure_from_metric(m1, m1.scales())
            s2 = structure_from_metric(m2, m2.scales())
            prod_metric = max_metric_product(m1, m2)
            bounded = structure_from_metric(prod_metric, prod_metric.scales())
            assert bounded.emax == product_structure(s1, s2).emax

    def test_bounded_structure_agrees_on_partial_scales(self):
        unit = FiniteMetric.from_rows([[0, 1, 3], [1, 0, 2], [3, 2, 0]])
        s = structure_from_metric(unit, [1])
        prod_metric = max_metric_product(unit, unit)
        bounded = structure_from_metric(prod_metric, [1])
        assert bounded.emax == product_structure(s, s).emax


# Mixed denominators: halves, thirds, sevenths and integers.
WEIGHTS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(1), Fraction(2), Fraction(5, 2))
# Numerators near 10**60 over denominators near 10**30: on the common scale
# the entries need hundreds of bits.
WIDE = (
    Fraction(10**60 + 1, 10**30 + 3),
    Fraction(10**60 - 7, 10**30 - 1),
    Fraction(3 * 10**59 + 1, 7 * 10**29 + 1),
    Fraction(10**60),
)
ZERO = (Fraction(0),)
# Product factors: scale 2 against 3, 7 or 21 once a non-integer entry shows.
HALVES = (Fraction(1, 2), Fraction(3, 2), Fraction(1), Fraction(2))
THIRDS_SEVENTHS = (Fraction(1, 3), Fraction(2, 7), Fraction(1), Fraction(2))
DEFECTS = ("none", "triangle", "asymmetry", "diagonal", "negative")


@st.composite
def distance_matrices(draw, defects=DEFECTS, weight_sets=(WEIGHTS, WIDE, ZERO), max_size=12):
    """Shortest-path metric over random edge weights, then at most one defect.

    The edge weights come from one of weight_sets; ZERO gives all-zero
    off-diagonal entries.  A "triangle" defect raises one symmetric pair of
    entries, which breaks the triangle inequality unless no detour is
    shorter; the others break symmetry, the diagonal or the sign of one entry.
    """
    n = draw(st.integers(1, max_size))
    weights = draw(st.sampled_from(weight_sets))
    d = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            d[a][b] = d[b][a] = draw(st.sampled_from(weights))
    for k in range(n):
        for a in range(n):
            for b in range(n):
                if d[a][k] + d[k][b] < d[a][b]:
                    d[a][b] = d[a][k] + d[k][b]
    defect = draw(st.sampled_from(defects))
    a = draw(st.integers(0, n - 1))
    b = draw(st.integers(0, n - 1).filter(lambda b: n == 1 or b != a))
    delta = draw(st.sampled_from(weights + WEIGHTS))
    if defect == "diagonal":
        d[a][a] = delta
    elif defect == "triangle" and a != b:
        d[a][b] = d[b][a] = d[a][b] + delta
    elif defect == "asymmetry" and a != b:
        d[a][b] += delta
    elif defect == "negative" and a != b:
        d[a][b] = d[b][a] = -delta
    return tuple(tuple(row) for row in d)


def path_rows(n, unit):
    return tuple(tuple(abs(x - y) * unit for y in range(n)) for x in range(n))


def kernel_verdict(rows):
    try:
        FiniteMetric(GroundSet(len(rows)), rows)
    except ValueError as exc:
        return str(exc)
    return None


class TestIntegerKernel:
    """The integer kernel against straight Fraction loops."""

    @settings(max_examples=300, deadline=None)
    @given(distance_matrices())
    def test_accepts_and_rejects_like_fraction_loops(self, rows):
        assert kernel_verdict(rows) == o_metric_violation(rows)

    def test_first_triangle_failure_is_lexicographic(self):
        # (0,1,2), (0,1,3) and more fail; the first triple in (a, b, c) order wins
        m = [[0, 1, 5, 5], [1, 0, 1, 1], [5, 1, 0, 1], [5, 1, 1, 0]]
        rows = tuple(tuple(Fraction(x) for x in row) for row in m)
        assert kernel_verdict(rows) == o_metric_violation(rows)
        assert kernel_verdict(rows) == "triangle inequality fails: d(0,2) > d(0,1) + d(1,2)"

    @pytest.mark.parametrize("unit", [Fraction(1), Fraction(10**60 + 1, 10**30 + 3)])
    @pytest.mark.parametrize("n", [5, 12])
    @pytest.mark.parametrize("first", [True, False])
    def test_planted_violation_at_first_and_last_triple(self, unit, n, first):
        # a path with one distance two steps long raised by one step: the first
        # failing triple is (a, a+1, a+2), either the first possible triple
        # (0, 1, 2) or the last one any report can name, (n-3, n-2, n-1)
        a = 0 if first else n - 3
        d = [list(row) for row in path_rows(n, unit)]
        d[a][a + 2] = d[a + 2][a] = 3 * unit
        rows = tuple(map(tuple, d))
        b, c = a + 1, a + 2
        expected = f"triangle inequality fails: d({a},{c}) > d({a},{b}) + d({b},{c})"
        assert kernel_verdict(rows) == o_metric_violation(rows) == expected

    @pytest.mark.parametrize(
        "rows, expected",
        [
            (((0,),), None),
            (((Fraction(1, 3),),), "nonzero diagonal entry at (0, 0)"),
            (((0,) * 4,) * 4, None),
            (
                ((0, 0, 1), (0, 0, 0), (1, 0, 0)),
                "triangle inequality fails: d(0,2) > d(0,1) + d(1,2)",
            ),
        ],
    )
    def test_one_point_and_all_zero_spaces(self, rows, expected):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        assert kernel_verdict(rows) == o_metric_violation(rows) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        distance_matrices(defects=("none",), weight_sets=(HALVES,), max_size=6),
        distance_matrices(defects=("none",), weight_sets=(THIRDS_SEVENTHS,), max_size=6),
    )
    # steps of 1/2 and of 1/3 tie at 0 and at 1
    @example(path_rows(4, Fraction(1, 2)), path_rows(4, Fraction(1, 3)))
    @example(path_rows(4, Fraction(1, 3)), path_rows(4, Fraction(1, 2)))
    def test_max_product_matches_fraction_max(self, rows1, rows2):
        # neither factor's scale divides the other's, and the integer weights
        # both weight sets share give ties between factor distances
        s1, s2 = (lcm(*(x.denominator for row in rows for x in row)) for rows in (rows1, rows2))
        assume(s1 % s2 and s2 % s1)
        m1 = FiniteMetric(GroundSet(len(rows1)), rows1)
        m2 = FiniteMetric(GroundSet(len(rows2)), rows2)
        dist = max_metric_product(m1, m2).dist
        assert dist == o_max_metric_product(rows1, rows2)
        assert all(type(x) is Fraction for row in dist for x in row)

    @settings(max_examples=150, deadline=None)
    @given(distance_matrices(defects=("none",)), st.data())
    def test_entourage_matches_fraction_filter(self, rows, data):
        m = FiniteMetric(GroundSet(len(rows)), rows)
        values = sorted({x for row in rows for x in row})
        r = data.draw(
            st.one_of(
                st.sampled_from(values),
                st.sampled_from(values).map(lambda x: x + Fraction(1, 10**9)),
                st.sampled_from(values).map(lambda x: max(x - Fraction(1, 10**9), Fraction(0))),
                st.fractions(
                    min_value=0, max_value=int(max(m.scales())) + 2, max_denominator=60
                ),
            )
        )
        assert metric_entourage(m, r).pairs == o_metric_entourage(m.dist, r)

    @pytest.mark.parametrize("r", ["0", "1/3", "1/2", "2/3", "1", "7/6", "3/2", "100"])
    def test_entourage_between_representable_distances(self, r):
        # every distance is a multiple of 1/2; radii off that grid round down
        m = FiniteMetric.from_rows(
            [["0", "1/2", "1"], ["1/2", "0", "3/2"], ["1", "3/2", "0"]]
        )
        radius = Fraction(r)
        assert metric_entourage(m, radius).pairs == o_metric_entourage(m.dist, radius)
        assert metric_entourage(m, r) == metric_entourage(m, radius)

    def test_integer_matrix_is_not_part_of_the_value(self):
        half = Fraction(1, 2)
        a = FiniteMetric.from_rows([["0", "1/2"], ["1/2", "0"]])
        b = FiniteMetric(GroundSet(2), ((0, half), (half, 0)))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == (
            "FiniteMetric(ground=GroundSet(size=2), dist=((Fraction(0, 1), Fraction(1, 2)),"
            " (Fraction(1, 2), Fraction(0, 1))))"
        )
