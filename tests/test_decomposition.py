import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsec import (
    CadProvider,
    Decomposition,
    EntourageSequence,
    Family,
    GroundSet,
    ProductGroundSet,
    ProviderError,
    Relation,
    SfcdcCertificate,
    cad_to_sfcdc,
    check_decomposition,
    check_sfcdc_certificate,
    closure_class_cad_provider,
    find_decomposition,
    generate,
    metric_entourage,
    refine_chain,
    refine_to_partition,
    structure_from_metric,
)
from coarsec.documents import build_sequence, parse_certificate, parse_space, realize_sfcdc

from gen import clash_instance, random_cad_provider, random_metric
from oracles import o_check_decomposition, o_find_decomposition, o_unroll


def rel(n, pairs):
    return Relation(GroundSet(n), frozenset(pairs))


def fam(n, *members):
    return Family(GroundSet(n), tuple(frozenset(m) for m in members))


def k_sequence(seq, provider):
    """K_j = the sequence entry at position n_1 + ... + n_j, as cad_to_sfcdc reads it."""
    cum = 0
    k_terms = []
    j = 1
    while True:
        cum += provider.dim_at(j)
        k_terms.append(seq.at(cum))
        if cum >= len(seq):
            break
        j += 1
    return EntourageSequence(seq.ground, tuple(k_terms))


def raw_chain(families, rows):
    """Families as member tuples and rows as (target, parts) pairs."""
    return (
        tuple(f.members for f in families),
        tuple(tuple((d.target, d.parts) for d in row) for row in rows),
    )


SINGLETONS4 = fam(4, {0}, {1}, {2}, {3})
E01 = rel(4, {(0, 1), (1, 0)})


class TestCheckDecomposition:
    def test_empty_target_zero_parts(self):
        d = Decomposition(frozenset(), ())
        assert check_decomposition(frozenset(), E01, 1, d, SINGLETONS4).ok

    def test_single_member_is_its_own_decomposition(self):
        f = fam(4, {0, 1})
        d = Decomposition(frozenset({0, 1}), ((frozenset({0, 1}),),))
        for e in (rel(4, set()), E01, GroundSet(4).full()):
            assert check_decomposition(frozenset({0, 1}), e, 1, d, f).ok

    def test_two_parts_pass_merged_fails(self):
        target = frozenset({0, 1})
        split = Decomposition(target, ((frozenset({0}),), (frozenset({1}),)))
        merged = Decomposition(target, ((frozenset({0}), frozenset({1})),))
        assert check_decomposition(target, E01, 2, split, SINGLETONS4).ok
        report = check_decomposition(target, E01, 2, merged, SINGLETONS4)
        assert not report.ok and not report.disjoint_ok
        assert report.failure == ("part-not-disjoint", 1, [0], [1], [0, 1])

    def test_duplicate_piece(self):
        target = frozenset({0, 1})
        d = Decomposition(target, ((frozenset({1}),), (frozenset({0}), frozenset({0}))))
        report = check_decomposition(target, rel(4, set()), 2, d, SINGLETONS4)
        assert not report.ok and not report.disjoint_ok
        assert report.failure == ("duplicate-piece", 2, [0])

    def test_duplicate_piece_reported_ahead_of_disjointness(self):
        target = frozenset({0, 1})
        d = Decomposition(
            target, ((frozenset({0}), frozenset({1})), (frozenset({1}), frozenset({1})))
        )
        report = check_decomposition(target, E01, 2, d, SINGLETONS4)
        assert report.failure == ("duplicate-piece", 2, [1])

    def test_too_many_parts(self):
        target = frozenset({0, 1})
        d = Decomposition(target, ((frozenset({0}),), (frozenset({1}),)))
        assert not check_decomposition(target, E01, 1, d, SINGLETONS4).parts_ok

    def test_union_mismatch(self):
        d = Decomposition(frozenset({0, 1}), ((frozenset({0}),),))
        assert not check_decomposition(frozenset({0, 1}), E01, 2, d, SINGLETONS4).union_ok

    def test_member_not_in_family(self):
        d = Decomposition(frozenset({0, 1}), ((frozenset({0, 1}),),))
        report = check_decomposition(frozenset({0, 1}), E01, 2, d, SINGLETONS4)
        assert not report.members_ok

    @pytest.mark.parametrize(
        "declared, parts, expected",
        [
            pytest.param(
                {0}, [[{0}]],
                (True, False, True, True, ["target-mismatch", [0], [0, 1]]),
                id="target-mismatch",
            ),
            pytest.param(
                {0, 1}, [[{0, 1}]],
                (True, True, True, False, ["not-a-member", 1, [0, 1]]),
                id="not-a-member",
            ),
        ],
    )
    def test_failure_tags_documents_cannot_reach(self, declared, parts, expected):
        # realize_sfcdc takes targets from the family and pieces from the next family
        d = Decomposition(frozenset(declared), tuple(tuple(map(frozenset, p)) for p in parts))
        report = check_decomposition(frozenset({0, 1}), E01, 2, d, SINGLETONS4)
        keys = ("parts_ok", "union_ok", "disjoint_ok", "members_ok", "failure")
        assert report.to_json() == {**dict(zip(keys, expected)), "ok": False}

    def test_monotone_in_entourage_and_parts(self):
        target = frozenset({0, 1})
        d = Decomposition(target, ((frozenset({0}),), (frozenset({1}),)))
        big = GroundSet(4).full()
        assert check_decomposition(target, big, 2, d, SINGLETONS4).ok
        assert check_decomposition(target, E01, 3, d, SINGLETONS4).ok

    def test_ground_mismatch_raises(self):
        d = Decomposition(frozenset({0}), ((frozenset({0}),),))
        with pytest.raises(ValueError):
            check_decomposition(frozenset({0}), rel(3, set()), 1, d, SINGLETONS4)

    @pytest.mark.parametrize("n", [True, 2.5, 2.0, "2"])
    def test_part_count_must_be_an_int(self, n):
        target = frozenset({0, 1})
        d = Decomposition(target, ((frozenset({0}),), (frozenset({1}),)))
        with pytest.raises(ValueError, match="part count"):
            check_decomposition(target, E01, n, d, SINGLETONS4)


@st.composite
def decomposition_cases(draw, max_size=8):
    """Overlapping members and non-reflexive E.

    Half the cases break only disjointness, if anything: their parts hold
    distinct family members, cover the target and fit the part count.  The
    rest may break any clause.
    """
    n = draw(st.integers(1, max_size))
    point = st.integers(0, n - 1)
    subset = st.frozensets(point, min_size=1, max_size=n)
    members = draw(st.sets(subset, max_size=7))
    family = Family(GroundSet(n), tuple(members))
    pairs = draw(st.frozensets(st.tuples(point, point), min_size=1, max_size=3 * n))
    if len(members) > 1 and draw(st.booleans()):
        piece = st.sampled_from(family.members)
        part = st.lists(piece, min_size=2, max_size=5, unique=True)
        parts = draw(st.lists(part, min_size=1, max_size=3))
        target = frozenset().union(*(m for part in parts for m in part))
        d = Decomposition(target, parts)
        return target, rel(n, pairs), max(len(parts), 1), d, family
    piece = st.sampled_from(family.members) | subset if members else subset
    parts = draw(st.lists(st.lists(piece, max_size=5), max_size=4))
    union = frozenset().union(*(m for part in parts for m in part))
    target = draw(st.just(union) | st.frozensets(point))
    declared = draw(st.just(target) | st.frozensets(point))
    parts_allowed = draw(st.integers(1, 4))
    return target, rel(n, pairs), parts_allowed, Decomposition(declared, parts), family


def agrees_with_pair_scan(target, e, parts_allowed, d, family):
    report = check_decomposition(target, e, parts_allowed, d, family)
    expected = o_check_decomposition(
        target, e.pairs, parts_allowed, d.target, d.parts, family.members
    )
    got = (report.parts_ok, report.union_ok, report.disjoint_ok, report.members_ok, report.failure)
    assert got == expected
    return report


class TestIndexedDisjointness:
    """check_decomposition's indexed clause against the O(m^2 |E|) pair scan."""

    @settings(max_examples=400, deadline=None)
    @given(decomposition_cases())
    def test_report_matches_pair_scan(self, case):
        agrees_with_pair_scan(*case)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_failure_tuple_matches_on_40_point_partitions(self, data):
        n = data.draw(st.integers(2, 40))
        labels = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
        blocks = {}
        for p, label in enumerate(labels):
            blocks.setdefault(label, set()).add(p)
        family = Family(GroundSet(n), tuple(frozenset(b) for b in blocks.values()))
        point = st.integers(0, n - 1)
        pairs = data.draw(st.frozensets(st.tuples(point, point), max_size=4 * n))
        order = data.draw(st.permutations(family.members))
        target = frozenset(range(n))
        d = Decomposition(target, (tuple(order),))
        report = agrees_with_pair_scan(target, rel(n, pairs), 1, d, family)
        if report.failure is not None:
            assert report.failure[0] == "part-not-disjoint"

    def test_reverse_direction_hit(self):
        # E only runs from the later member to the earlier one
        target = frozenset({0, 1, 2})
        f = fam(4, {0}, {1}, {2})
        d = Decomposition(target, ((frozenset({0}), frozenset({1}), frozenset({2})),))
        report = check_decomposition(target, rel(4, {(2, 1)}), 1, d, f)
        assert report.failure == ("part-not-disjoint", 1, [1], [2], [2, 1])

    def test_least_member_pair_wins_over_first_pair_of_e(self):
        target = frozenset({0, 1, 2, 3})
        f = fam(4, {0}, {1}, {2}, {3})
        order = (frozenset({3}), frozenset({0}), frozenset({2}), frozenset({1}))
        d = Decomposition(target, (order,))
        report = check_decomposition(target, rel(4, {(0, 1), (1, 3)}), 1, d, f)
        # member pairs by position: ({3}, {1}) at (0, 3) precedes ({0}, {1}) at (1, 3)
        assert report.failure == ("part-not-disjoint", 1, [3], [1], [1, 3])

    def test_hit_does_not_depend_on_the_order_of_e(self):
        # one E, realized from scales and from a shuffled explicit pair list:
        # equal relations built in different orders iterate differently
        def report(space, seq, cert):
            parsed = parse_space(json.dumps(space))
            ground = parsed.structure.ground
            parsed_cert = parse_certificate(json.dumps({**cert, "sequence": seq}))
            certificate = realize_sfcdc(parsed_cert, ground)
            l_seq = build_sequence(seq, ground, parsed.metric)
            return check_sfcdc_certificate(parsed.structure, l_seq, certificate)

        # seeds 108 and 171 reported different hits when the scan took E's iteration order
        for seed in [108, 171, *range(30)]:
            space, scales, shuffled, cert = clash_instance(random.Random(seed), 10)
            expected = report(space, scales, cert)
            assert report(space, shuffled, cert) == expected
            _, _, _, (tag, _, a, b, hit) = expected.failure
            e = metric_entourage(parse_space(json.dumps(space)).metric, scales["scales"][0])
            joins = [p for p in sorted(e.pairs) if p[0] in a and p[1] in b]
            assert (tag, tuple(hit)) == ("part-not-disjoint", joins[0])

    def test_overlapping_members_under_non_reflexive_e(self):
        target = frozenset({0, 1, 2})
        f = fam(3, {0, 1}, {1, 2})
        d = Decomposition(target, ((frozenset({0, 1}), frozenset({1, 2})),))
        assert check_decomposition(target, rel(3, {(0, 0), (2, 2)}), 1, d, f).ok
        report = check_decomposition(target, rel(3, {(1, 1)}), 1, d, f)
        assert report.failure == ("part-not-disjoint", 1, [0, 1], [1, 2], [1, 1])


class TestFindDecomposition:
    def test_single_covering_member(self):
        f = fam(4, {0, 1, 2, 3})
        d = find_decomposition(frozenset({0, 1, 2, 3}), GroundSet(4).full(), 1, f)
        assert d is not None
        assert check_decomposition(frozenset({0, 1, 2, 3}), GroundSet(4).full(), 1, d, f).ok

    def test_empty_family_not_found(self):
        f = Family(GroundSet(4), ())
        assert find_decomposition(frozenset({0}), E01, 2, f) is None

    def test_found_passes_checker(self):
        rng = random.Random(20)
        for _ in range(40):
            n = rng.randint(2, 5)
            members = set()
            for _ in range(rng.randint(1, 6)):
                m = frozenset(rng.randrange(n) for _ in range(rng.randint(1, 3)))
                if m:
                    members.add(m)
            f = Family(GroundSet(n), tuple(members))
            target = frozenset(rng.randrange(n) for _ in range(rng.randint(0, n)))
            e = rel(n, {(rng.randrange(n), rng.randrange(n)) for _ in range(3)})
            parts = rng.randint(1, 3)
            d = find_decomposition(target, e, parts, f)
            if d is not None:
                assert check_decomposition(target, e, parts, d, f).ok

    @settings(max_examples=200, deadline=None)
    @given(decomposition_cases(max_size=6))
    def test_clash_table_agrees_with_oracle(self, case):
        target, e, _, _, family = case
        for parts_allowed in (1, 2, 3):
            found = find_decomposition(target, e, parts_allowed, family)
            assert (found is not None) == o_find_decomposition(
                target, e.pairs, parts_allowed, family.members
            )
            if found is not None:
                assert check_decomposition(target, e, parts_allowed, found, family).ok

    def test_guard_on_candidates(self):
        members = tuple(frozenset({i}) for i in range(13))
        f = Family(GroundSet(13), members)
        with pytest.raises(ValueError):
            find_decomposition(frozenset(range(13)), GroundSet(13).empty(), 2, f)

    def test_guard_on_parts(self):
        with pytest.raises(ValueError):
            find_decomposition(frozenset({0}), E01, 4, SINGLETONS4)

    @pytest.mark.parametrize("n", [True, 2.5, 2.0])
    def test_part_count_must_be_an_int(self, n):
        with pytest.raises(ValueError, match="part count"):
            find_decomposition(frozenset({0}), E01, n, SINGLETONS4)

    def test_agrees_with_straight_loop_oracle(self):
        rng = random.Random(22)
        for _ in range(60):
            n = rng.randint(2, 5)
            members = set()
            for _ in range(rng.randint(0, 6)):
                m = frozenset(rng.randrange(n) for _ in range(rng.randint(1, 3)))
                if m:
                    members.add(m)
            f = Family(GroundSet(n), tuple(members))
            target = frozenset(rng.randrange(n) for _ in range(rng.randint(0, n)))
            pairs = frozenset(
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 4))
            )
            parts = rng.randint(1, 3)
            found = find_decomposition(target, rel(n, pairs), parts, f) is not None
            assert found == o_find_decomposition(target, pairs, parts, f.members)


class TestRefineToPartition:
    def test_partition_unchanged(self):
        f = fam(3, {0, 1}, {2})
        assert refine_to_partition([f]) == (f,)

    def test_lowest_index_tie_break(self):
        f = fam(3, {0, 1}, {1, 2})
        assert refine_to_partition([f]) == (fam(3, {0, 1}, {2}),)

    def test_outputs_are_partitions(self):
        rng = random.Random(25)
        for _ in range(30):
            n = rng.randint(1, 6)
            members = []
            covered = set()
            for _ in range(rng.randint(1, 4)):
                m = frozenset(rng.randrange(n) for _ in range(rng.randint(1, n)))
                if m and m not in members:
                    members.append(m)
                    covered |= m
            missing = set(range(n)) - covered
            if missing:
                members.append(frozenset(missing))
            f = Family(GroundSet(n), tuple(members))
            (refined,) = refine_to_partition([f])
            union = set()
            for m in refined.members:
                assert not (union & m)
                union |= m
            assert union == set(range(n))
            for m in refined.members:
                assert any(m <= old for old in f.members)

    def test_rejects_non_cover(self):
        with pytest.raises(ValueError):
            refine_to_partition([fam(3, {0, 1})])


class TestRefineChain:
    def test_preserves_decomposability_where_naive_breaks(self):
        # level families [{X}], [{1,2},{0}], [{0,1},{1,2},{0}]: refining the
        # last family alone would leave {1,2} with no decomposition, because
        # point 1 migrates into the block {0,1}.
        g = GroundSet(3)
        whole = g.all_points()
        v1 = fam(3, whole)
        v2 = fam(3, {1, 2}, {0})
        v3 = fam(3, {0, 1}, {1, 2}, {0})
        empty = rel(3, set())
        d_x = Decomposition(whole, ((frozenset({1, 2}),), (frozenset({0}),)))
        d_12 = Decomposition(frozenset({1, 2}), ((frozenset({1, 2}),),))
        d_0 = Decomposition(frozenset({0}), ((frozenset({0}),),))
        families, rows = refine_chain((v1, v2, v3), ((d_x,), (d_12, d_0)))
        assert families[0] == v1
        assert families[1] == v2  # already a partition
        for level in range(2):
            next_family = families[level + 1]
            for member, d in zip(families[level].members, rows[level]):
                assert check_decomposition(member, empty, 2, d, next_family).ok
        # the naive refinement of v3 loses decomposability for {1, 2}
        naive = refine_to_partition([v3])[0]
        assert find_decomposition(frozenset({1, 2}), empty, 2, naive) is None

    def test_outputs_partitions_refining_originals(self):
        rng = random.Random(27)
        for _ in range(15):
            m = random_metric(rng, rng.randint(2, 6))
            s = structure_from_metric(m, m.scales())
            scales = sorted(rng.choice(m.scales()) for _ in range(3))
            seq = EntourageSequence(s.ground, tuple(metric_entourage(m, r) for r in scales))
            provider = random_cad_provider(rng, levels=2, inflate=True)
            k_seq = EntourageSequence(
                s.ground, (seq.at(provider.dim_at(1)), seq.at(provider.dim_at(1) + provider.dim_at(2)))
            )
            families, rows = provider.build(s, k_seq)
            refined, refined_rows = refine_chain(families, rows)
            n = s.ground.size
            for original, new in zip(families, refined):
                union = set()
                for m_ in new.members:
                    assert not (union & m_)
                    union |= m_
                    assert any(m_ <= old for old in original.members)
                assert union == set(range(n))


class TestCheckSfcdc:
    def test_single_point(self):
        s = generate(GroundSet(1), [])
        seq = EntourageSequence(s.ground, (s.ground.diagonal(),))
        cert = SfcdcCertificate((fam(1, {0}),), ())
        assert check_sfcdc_certificate(s, seq, cert).ok

    def test_full_structure_root_only(self):
        s = generate(GroundSet(3), [GroundSet(3).full()])
        seq = EntourageSequence(s.ground, (s.ground.diagonal(),))
        cert = SfcdcCertificate((fam(3, {0, 1, 2}),), ())
        assert check_sfcdc_certificate(s, seq, cert).ok

    def test_root_must_be_whole_space(self):
        s = generate(GroundSet(2), [GroundSet(2).full()])
        seq = EntourageSequence(s.ground, (s.ground.diagonal(),))
        cert = SfcdcCertificate((fam(2, {0}, {1}),), ())
        report = check_sfcdc_certificate(s, seq, cert)
        assert not report.root_ok

    def test_unbounded_terminal_fails(self):
        s = generate(GroundSet(2), [])
        seq = EntourageSequence(s.ground, (s.ground.diagonal(),))
        cert = SfcdcCertificate((fam(2, {0, 1}),), ())
        report = check_sfcdc_certificate(s, seq, cert)
        assert not report.bounded_ok

    def test_ground_mismatch_raises(self):
        s = generate(GroundSet(2), [GroundSet(2).full()])
        seq = EntourageSequence(GroundSet(3), (GroundSet(3).diagonal(),))
        cert = SfcdcCertificate((fam(2, {0, 1}),), ())
        with pytest.raises(ValueError):
            check_sfcdc_certificate(s, seq, cert)

    def test_one_part_over_separated_singletons_passes(self):
        g = GroundSet(2)
        s = generate(g, [])
        seq = EntourageSequence(g, (g.diagonal(),))
        whole = g.all_points()
        cert = SfcdcCertificate(
            (fam(2, whole), fam(2, {0}, {1})),
            ((Decomposition(whole, ((frozenset({0}), frozenset({1})),)),),),
        )
        # the diagonal has no cross pairs, so the two singletons share a part
        assert check_sfcdc_certificate(s, seq, cert).ok

    def test_tampered_decomposition_fails(self):
        g = GroundSet(2)
        s = generate(g, [])
        seq = EntourageSequence(g, (g.full(),))
        whole = g.all_points()
        bad = SfcdcCertificate(
            (fam(2, whole), fam(2, {0}, {1})),
            ((Decomposition(whole, ((frozenset({0}), frozenset({1})),)),),),
        )
        report = check_sfcdc_certificate(s, seq, bad)
        assert not report.decompositions_ok  # the full entourage joins the parts


class TestCadToSfcdc:
    def test_trivial_when_root_bounded(self):
        s = generate(GroundSet(3), [GroundSet(3).full()])
        seq = EntourageSequence(s.ground, (s.ground.diagonal(),))
        cert = cad_to_sfcdc(s, seq, closure_class_cad_provider())
        assert len(cert.families) == 1
        assert check_sfcdc_certificate(s, seq, cert).ok

    def test_canonical_provider_two_levels(self):
        s = generate(GroundSet(4), [rel(4, {(0, 1), (2, 3)})])
        seq = EntourageSequence(s.ground, (s.ground.diagonal(), s.emax))
        cert = cad_to_sfcdc(s, seq, closure_class_cad_provider())
        assert len(cert.families) == 2
        assert [sorted(m) for m in cert.families[1].members] == [[0], [1], [2], [3]]
        assert check_sfcdc_certificate(s, seq, cert).ok

    def test_all_ones_dims_reproduce_provider_chain(self):
        s = generate(GroundSet(4), [rel(4, {(0, 1), (2, 3)})])
        e1 = s.ground.diagonal()
        e2 = rel(4, {(0, 1), (1, 0)}).union(e1)
        e3 = s.emax
        seq = EntourageSequence(s.ground, (e1, e2, e3))
        provider = random_cad_provider(random.Random(0), levels=2, dims=(1, 1))
        cert = cad_to_sfcdc(s, seq, provider)
        families, _ = provider.build(
            s, EntourageSequence(s.ground, (seq.at(1), seq.at(2)))
        )
        assert cert.families == families

    def test_level_identities(self):
        rng = random.Random(31)
        for _ in range(10):
            m = random_metric(rng, rng.randint(3, 6))
            s = structure_from_metric(m, m.scales())
            scales = sorted(rng.choice(m.scales()) for _ in range(rng.randint(2, 4)))
            seq = EntourageSequence(s.ground, tuple(metric_entourage(m, r) for r in scales))
            levels = rng.randint(1, 2)
            provider = random_cad_provider(rng, levels=levels, inflate=rng.random() < 0.5)
            cert = cad_to_sfcdc(s, seq, provider)
            assert check_sfcdc_certificate(s, seq, cert).ok

            families, rows = provider.build(s, k_sequence(seq, provider))
            refined, _ = refine_chain(families, rows)
            total = 0
            for level in range(len(refined) - 1):
                total += provider.dim_at(level + 1)
                assert cert.families[total] == refined[level + 1]
            assert len(cert.families) == total + 1

    def test_rejects_bad_provider_root(self):
        s = generate(GroundSet(2), [GroundSet(2).full()])
        seq = EntourageSequence(s.ground, (s.ground.diagonal(),))
        bad = CadProvider(dims=(1,), build=lambda st, ks: ((fam(2, {0}, {1}),), ()))
        with pytest.raises(ProviderError):
            cad_to_sfcdc(s, seq, bad)

    def test_rejects_invalid_provider_decomposition(self):
        g = GroundSet(2)
        s = generate(g, [g.full()])
        seq = EntourageSequence(g, (g.full(),))
        whole = g.all_points()

        def build(structure, k_seq):
            families = (fam(2, whole), fam(2, {0}, {1}))
            # single part but the two singletons are joined by the full entourage
            d = Decomposition(whole, ((frozenset({0}), frozenset({1})),))
            return families, ((d,),)

        with pytest.raises(ProviderError):
            cad_to_sfcdc(s, seq, CadProvider(dims=(1,), build=build))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 3),
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
        st.booleans(),
    )
    def test_unroll_matches_role_table_oracle(self, seed, levels, dims, inflate):
        rng = random.Random(seed)
        m = random_metric(rng, rng.randint(2, 7))
        s = structure_from_metric(m, m.scales())  # bounded: every chain terminates
        scales = sorted(rng.choice(m.scales()) for _ in range(rng.randint(1, 6)))
        seq = EntourageSequence(s.ground, tuple(metric_entourage(m, r) for r in scales))
        provider = random_cad_provider(rng, levels=levels, dims=dims, inflate=inflate)
        cert = cad_to_sfcdc(s, seq, provider)
        families, rows = provider.build(s, k_sequence(seq, provider))
        refined = raw_chain(*refine_chain(families, rows))
        expected = o_unroll(*refined, provider.dims)
        assert raw_chain(cert.families, cert.decompositions) == expected


def cad_with(build):
    """cad_to_sfcdc on a 2-point space whose only entourages are the diagonal."""
    g = GroundSet(2)
    s = generate(g, [])
    seq = EntourageSequence(g, (g.diagonal(),))
    return cad_to_sfcdc(s, seq, CadProvider(dims=(1,), build=build))


class TestProviderFailures:
    """Provider data fails with ProviderError naming the chain check's reason."""

    WHOLE = frozenset({0, 1})
    SPLIT = Decomposition(WHOLE, ((frozenset({0}), frozenset({1})),))

    def test_no_families(self):
        with pytest.raises(ProviderError, match="at least one family"):
            cad_with(lambda s, k: ((), ()))

    def test_row_shape_mismatch(self):
        families = (fam(2, self.WHOLE), fam(2, {0}, {1}))
        with pytest.raises(ProviderError, match="row 1 does not match its family"):
            cad_with(lambda s, k: (families, ((self.SPLIT, self.SPLIT),)))

    def test_root_not_whole_space(self):
        with pytest.raises(ProviderError, match=re.escape("('root-not-whole-space',)")):
            cad_with(lambda s, k: ((fam(2, {0}, {1}),), ()))

    def test_failing_decomposition(self):
        families = (fam(2, self.WHOLE), fam(2, {0}, {1}))
        d = Decomposition(self.WHOLE, ((frozenset({0}),),))
        expected = re.escape("('level', 1, 0, ('union-mismatch', 1))")
        with pytest.raises(ProviderError, match=expected):
            cad_with(lambda s, k: (families, ((d,),)))

    def test_unbounded_terminal(self):
        with pytest.raises(ProviderError, match=re.escape("('terminal-not-bounded',)")):
            cad_with(lambda s, k: ((fam(2, self.WHOLE),), ()))

    def test_families_on_another_ground_set(self):
        pg = ProductGroundSet(GroundSet(1), GroundSet(2))
        families = (Family(pg, (self.WHOLE,)), Family(pg, (frozenset({0}), frozenset({1}))))
        with pytest.raises(ProviderError, match="different ground sets"):
            cad_with(lambda s, k: (families, ((self.SPLIT,),)))

    def test_same_space_passes_with_valid_data(self):
        families = (fam(2, self.WHOLE), fam(2, {0}, {1}))
        assert cad_with(lambda s, k: (families, ((self.SPLIT,),))).families == families


class TestCadProviderStubs:
    def test_provider_random_builds_are_deterministic_given_rng(self):
        m = random_metric(random.Random(40), 4)
        s = structure_from_metric(m, m.scales())
        seq = EntourageSequence(s.ground, (metric_entourage(m, 0), s.emax))
        provider = random_cad_provider(random.Random(41), levels=1, dims=(2,))
        fams, rows = provider.build(s, seq)
        assert fams[0].members == (s.ground.all_points(),)
        for member, d in zip(fams[0].members, rows[0]):
            assert check_decomposition(member, seq.at(1), 2, d, fams[1]).ok

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            CadProvider(dims=(), build=lambda s, k: ((), ()))
        with pytest.raises(ValueError):
            CadProvider(dims=(0,), build=lambda s, k: ((), ()))

    @pytest.mark.parametrize("i", [2.5, 1.0, True, "1"])
    def test_dim_at_rejects_non_int_index(self, i):
        provider = CadProvider(dims=(1, 2), build=lambda s, k: ((), ()))
        with pytest.raises(ValueError, match="piece-count index must be an int"):
            provider.dim_at(i)

    @pytest.mark.parametrize("dims", [(1.7,), (True,), ("2",), (1, 2.0)])
    def test_dims_must_be_ints(self, dims):
        with pytest.raises(ValueError, match="piece-count"):
            CadProvider(dims=dims, build=lambda s, k: ((), ()))
