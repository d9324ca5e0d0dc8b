import random

import pytest

from coarsec import (
    EntourageSequence,
    Family,
    GroundSet,
    ProductGroundSet,
    PropertyCWitness,
    ProviderError,
    Relation,
    array_index,
    array_position,
    brute_force_witness,
    check_witness,
    column_witness,
    components_witness,
    factor_sequences,
    generate,
    is_disjoint,
    monotonize,
    product_relation,
    product_structure,
    product_witness,
    product_witness_trace,
    project,
    structure_from_metric,
    union_all,
)

from gen import box_sequence, random_metric, random_scales


def rel(n, pairs):
    return Relation(GroundSet(n), frozenset(pairs))


class TestArrayIndex:
    def test_base(self):
        assert array_index(1, 1) == 1

    def test_small_values_match_formula(self):
        # direct evaluation of (i+j-2)(i+j-1)/2 + i
        assert array_index(1, 2) == 2
        assert array_index(2, 1) == 3
        assert array_index(1, 3) == 4
        assert array_index(2, 2) == 5
        assert array_index(3, 1) == 6

    def test_rejects_nonpositive(self):
        for bad in ((0, 1), (1, 0), (-1, 2)):
            with pytest.raises(ValueError):
                array_index(*bad)
        with pytest.raises(ValueError):
            array_position(0)

    @pytest.mark.parametrize("bad", [(1.5, 1), (1, 2.0), (True, 1), (1, "2")])
    def test_rejects_non_int_coordinates(self, bad):
        with pytest.raises(ValueError, match="array coordinates must be ints"):
            array_index(*bad)

    @pytest.mark.parametrize("k", [2.5, 1.0, True])
    def test_position_rejects_non_int_index(self, k):
        with pytest.raises(ValueError, match="array index must be an int"):
            array_position(k)

    def test_bijection_small(self):
        for i in range(1, 21):
            for j in range(1, 21):
                assert array_position(array_index(i, j)) == (i, j)

    @pytest.mark.parametrize("s", [1, 2, 3, 10**3, 2**31 - 1, 10**9 - 1, 10**9, 10**9 + 7])
    def test_bijection_at_large_triangular_boundaries(self, s):
        # k = s(s+1)/2 ends diagonal s-1 at (s, 1); k + 1 starts diagonal s at (1, s+1)
        k = s * (s + 1) // 2
        assert array_position(k) == (s, 1)
        assert array_position(k + 1) == (1, s + 1)
        for k in range(max(k - 1, 1), k + 3):
            assert array_index(*array_position(k)) == k

    def test_positions_consecutive(self):
        values = sorted(array_index(i, j) for i in range(1, 30) for j in range(1, 30) if i + j <= 30)
        assert values == list(range(1, len(values) + 1))

    def test_monotone(self):
        for i in range(1, 15):
            for j in range(1, 15):
                assert array_index(i + 1, j) > array_index(i, j)
                assert array_index(i, j + 1) > array_index(i, j)


class TestFactorSequences:
    def test_boxes_recover_factors(self):
        kx = [rel(2, {(0, 0)}), rel(2, {(0, 0), (0, 1)})]
        ly = [rel(3, {(1, 1)}), rel(3, {(1, 1), (2, 2)})]
        seq = EntourageSequence(
            ProductGroundSet(GroundSet(2), GroundSet(3)),
            tuple(product_relation(k, l) for k, l in zip(kx, ly)),
        )
        k_seq, l_seq = factor_sequences(seq)
        assert list(k_seq.items) == kx
        assert list(l_seq.items) == ly

    def test_constant_sequence(self):
        box = product_relation(rel(2, {(0, 1)}), rel(2, {(1, 1)}))
        seq = EntourageSequence(box.ground, (box, box))
        k_seq, l_seq = factor_sequences(seq)
        assert k_seq.items[0] == k_seq.items[1]
        assert l_seq.items[0] == l_seq.items[1]

    def test_random_monotone_matches_enumeration(self):
        rng = random.Random(4)
        pg = ProductGroundSet(GroundSet(2), GroundSet(2))
        for _ in range(25):
            pairs = set()
            items = []
            for _ in range(3):
                pairs |= {
                    (rng.randrange(4), rng.randrange(4)) for _ in range(rng.randint(0, 3))
                }
                items.append(Relation(pg, frozenset(pairs)))
            seq = EntourageSequence(pg, tuple(items))
            k_seq, l_seq = factor_sequences(seq)
            for e, k, l in zip(seq.items, k_seq.items, l_seq.items):
                expected_k = {(a // 2, b // 2) for a, b in e.pairs}
                expected_l = {(a % 2, b % 2) for a, b in e.pairs}
                assert k.pairs == frozenset(expected_k)
                assert l.pairs == frozenset(expected_l)

    def test_requires_product_ground(self):
        g = GroundSet(4)
        with pytest.raises(ValueError):
            factor_sequences(EntourageSequence(g, (g.diagonal(),)))


class TestMonotonize:
    def test_already_monotone_unchanged(self):
        g = GroundSet(3)
        terms = (g.diagonal(), g.full())
        assert monotonize(terms) == terms

    def test_cumulative_union(self):
        terms = (rel(2, {(0, 1)}), rel(2, set()))
        assert monotonize(terms) == (rel(2, {(0, 1)}), rel(2, {(0, 1)}))

    def test_output_contains_input_and_is_monotone(self):
        rng = random.Random(6)
        g = GroundSet(4)
        for _ in range(30):
            terms = [
                rel(4, {(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randint(0, 4))})
                for _ in range(rng.randint(1, 5))
            ]
            out = monotonize(terms)
            assert len(out) == len(terms)
            for t, o in zip(terms, out):
                assert t.is_subset(o)
            for a, b in zip(out, out[1:]):
                assert a.is_subset(b)


class TestColumnWitness:
    def _setup(self):
        m = random_metric(random.Random(1), 4)
        s = structure_from_metric(m, m.scales())
        items = tuple(
            rel(4, set()).union(s.ground.diagonal())
            if k == 0
            else s.emax
            for k in range(2)
        )
        return s, EntourageSequence(s.ground, items)

    def test_constant_column_matches_direct_call(self):
        s, _ = self._setup()
        seq = EntourageSequence(s.ground, (s.emax,))
        record = column_witness(s, components_witness, seq, 3)
        direct = components_witness(s, EntourageSequence(s.ground, (s.emax,)))
        assert record.families == direct.families

    def test_components_gives_single_family(self):
        s, seq = self._setup()
        for i in (1, 2, 3):
            record = column_witness(s, components_witness, seq, i)
            assert record.n == 1

    def test_families_disjoint_against_column_entries(self):
        from coarsec import metric_entourage

        rng = random.Random(44)
        for _ in range(10):
            m = random_metric(rng, rng.randint(2, 5))
            s = structure_from_metric(m, m.scales())
            scales = sorted(rng.choice(m.scales()) for _ in range(3))
            seq = EntourageSequence(
                s.ground, tuple(metric_entourage(m, r) for r in scales)
            )
            record = column_witness(s, components_witness, seq, rng.randint(1, 3))
            for j, family in enumerate(record.families, start=1):
                assert is_disjoint(family, record.entourages.at(j))

    def test_invalid_provider_rejected(self):
        s, seq = self._setup()

        def junk_provider(structure, column):
            return PropertyCWitness((Family(structure.ground, ()),))

        with pytest.raises(ProviderError):
            column_witness(s, junk_provider, seq, 1)


def boxes_for(mx, my, count, rng):
    return box_sequence(mx, my, random_scales(rng, mx, count), random_scales(rng, my, count))


class TestProductWitness:
    def test_single_point_factors(self):
        one = generate(GroundSet(1), [])
        pg = ProductGroundSet(one.ground, one.ground)
        seq = EntourageSequence(pg, (pg.diagonal(),))
        w = product_witness(one, one, seq, components_witness, components_witness)
        assert check_witness(product_structure(one, one), seq, w).ok

    def test_two_by_two_exhaustive(self):
        # unit-distance two-point factors, sequence [diagonal box, full box]
        from coarsec import FiniteMetric

        m = FiniteMetric.from_rows([[0, 1], [1, 0]])
        s = structure_from_metric(m, [1])
        pg = ProductGroundSet(s.ground, s.ground)
        seq = EntourageSequence(
            pg,
            (
                product_relation(s.ground.diagonal(), s.ground.diagonal()),
                product_relation(s.ground.full(), s.ground.full()),
            ),
        )
        w = product_witness(s, s, seq, components_witness, components_witness)
        covered = set()
        for f in w.families:
            for m_ in f.members:
                covered |= m_
        assert covered == {0, 1, 2, 3}
        for k, f in enumerate(w.families, start=1):
            assert is_disjoint(f, seq.at(k))
        assert check_witness(product_structure(s, s), seq, w).ok

    def test_randomized_soundness(self):
        rng = random.Random(10)
        for trial in range(15):
            mx = random_metric(rng, rng.randint(1, 6))
            my = random_metric(rng, rng.randint(1, 6))
            sx = structure_from_metric(mx, mx.scales())
            sy = structure_from_metric(my, my.scales())
            seq = boxes_for(mx, my, rng.randint(3, 5), rng)

            def bf_provider(structure, column):
                found = brute_force_witness(structure, column, 2)
                assert found is not None
                return found

            provider_x = bf_provider if trial % 3 == 0 and mx.ground.size <= 5 else components_witness
            w = product_witness(sx, sy, seq, provider_x, components_witness)
            assert check_witness(product_structure(sx, sy), seq, w).ok

    def test_reindexing_totality(self):
        rng = random.Random(12)
        mx = random_metric(rng, 3)
        my = random_metric(rng, 4)
        sx = structure_from_metric(mx, mx.scales())
        sy = structure_from_metric(my, my.scales())
        seq = boxes_for(mx, my, 4, rng)
        w = product_witness(sx, sy, seq, components_witness, components_witness)
        assert len(w.families) >= len(seq)

    def test_disjointness_transfer_case_split(self):
        rng = random.Random(14)
        for _ in range(8):
            mx = random_metric(rng, rng.randint(2, 4))
            my = random_metric(rng, rng.randint(2, 4))
            sx = structure_from_metric(mx, mx.scales())
            sy = structure_from_metric(my, my.scales())
            seq = boxes_for(mx, my, 3, rng)
            trace = product_witness_trace(
                sx, sy, seq, components_witness, components_witness
            )
            k_seq, l_seq = factor_sequences(seq)
            pg = seq.ground
            for k, family in enumerate(trace.witness.families, start=1):
                if not family.members:
                    continue
                i, j = array_position(k)
                record = trace.columns[min(i, trace.stabilization_column) - 1]
                k_ij = record.entourages.at(j)
                l_ini = l_seq.at(array_index(i, record.n))
                # column entries below the terminal stay inside it
                assert l_seq.at(array_index(i, j)).is_subset(l_ini)
                boxes = [
                    (
                        frozenset(p // pg.right.size for p in member),
                        frozenset(p % pg.right.size for p in member),
                    )
                    for member in family.members
                ]
                for a in range(len(boxes)):
                    for b in range(len(boxes)):
                        if a == b:
                            continue
                        u1, v1 = boxes[a]
                        u2, v2 = boxes[b]
                        if u1 != u2:
                            assert not any(
                                (x, y) in k_ij.pairs for x in u1 for y in u2
                            )
                        else:
                            assert v1 != v2
                            assert not any(
                                (x, y) in l_ini.pairs for x in v1 for y in v2
                            )

    def test_boundedness_projection_identity(self):
        rng = random.Random(15)
        mx = random_metric(rng, 3)
        my = random_metric(rng, 3)
        sx = structure_from_metric(mx, mx.scales())
        sy = structure_from_metric(my, my.scales())
        seq = boxes_for(mx, my, 3, rng)
        w = product_witness(sx, sy, seq, components_witness, components_witness)
        pg = seq.ground
        for family in w.families:
            if not family.members:
                continue
            squares = [
                Relation(pg, frozenset((a, b) for a in m for b in m))
                for m in family.members
            ]
            total = union_all(pg, squares)
            for axis, factor_structure in ((1, sx), (2, sy)):
                image_of_union = project(total, axis)
                union_of_images = union_all(
                    factor_structure.ground, [project(sq, axis) for sq in squares]
                )
                assert image_of_union == union_of_images
                assert factor_structure.contains(image_of_union)

    def test_rejects_sequence_outside_product(self):
        s1 = generate(GroundSet(2), [])
        s2 = generate(GroundSet(2), [])
        pg = ProductGroundSet(s1.ground, s2.ground)
        seq = EntourageSequence(pg, (pg.full(),))
        with pytest.raises(ValueError):
            product_witness(s1, s2, seq, components_witness, components_witness)

    def test_rejects_wrong_ground(self):
        s1 = generate(GroundSet(2), [])
        s2 = generate(GroundSet(2), [])
        g = GroundSet(4)
        seq = EntourageSequence(g, (g.diagonal(),))
        with pytest.raises(ValueError):
            product_witness(s1, s2, seq, components_witness, components_witness)

    def test_rejects_invalid_second_factor_provider(self):
        s1 = generate(GroundSet(2), [GroundSet(2).full()])
        s2 = generate(GroundSet(2), [GroundSet(2).full()])
        pg = ProductGroundSet(s1.ground, s2.ground)
        seq = EntourageSequence(pg, (pg.diagonal(),))

        def junk(structure, column):
            return PropertyCWitness((Family(structure.ground, ()),))

        with pytest.raises(ProviderError):
            product_witness(s1, s2, seq, components_witness, junk)

    def test_stabilized_columns_share_record(self):
        rng = random.Random(16)
        mx = random_metric(rng, 3)
        my = random_metric(rng, 3)
        sx = structure_from_metric(mx, mx.scales())
        sy = structure_from_metric(my, my.scales())
        seq = boxes_for(mx, my, 3, rng)
        trace = product_witness_trace(sx, sy, seq, components_witness, components_witness)
        stab = trace.stabilization_column
        assert array_index(stab, 1) > len(seq)
        assert array_index(stab - 1, 1) <= len(seq)
        assert [r.column for r in trace.columns] == list(range(1, stab + 1))
        k_seq, _ = factor_sequences(seq)
        later = column_witness(sx, components_witness, k_seq, stab + 5)
        assert later.entourages == trace.columns[-1].entourages
