"""Independent brute-force reference implementations.

Everything here works on raw frozensets and integers with straight loops and
shares no code with the library; tests compare library results against these.
"""

import itertools
import random


def o_compose(pairs_a, pairs_b):
    out = set()
    for a, b in pairs_a:
        for b2, c in pairs_b:
            if b == b2:
                out.add((a, c))
    return frozenset(out)


def o_is_transitive(n, pairs):
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if (a, b) in pairs and (b, c) in pairs and (a, c) not in pairs:
                    return False
    return True


def o_inverse(pairs):
    return frozenset((b, a) for a, b in pairs)


def o_equivalence_closure(n, pairs):
    """Reflexive-symmetric closure followed by Warshall's transitive closure."""
    adj = [[False] * n for _ in range(n)]
    for a in range(n):
        adj[a][a] = True
    for a, b in pairs:
        adj[a][b] = True
        adj[b][a] = True
    for k in range(n):
        for a in range(n):
            for b in range(n):
                if adj[a][k] and adj[k][b]:
                    adj[a][b] = True
    return frozenset((a, b) for a in range(n) for b in range(n) if adj[a][b])


def o_closure_relations(n, generator_pair_sets):
    """Closure of the generators and the diagonal under union, inverse, compose.

    Fully literal worklist enumeration; the set can blow up, so this is only
    usable on very small instances.  The library's membership predicate must
    be the downward (subset) closure of this set.
    """
    diagonal = frozenset((p, p) for p in range(n))
    items = {diagonal}
    items.update(frozenset(g) for g in generator_pair_sets)
    queue = list(items)
    while queue:
        a = queue.pop()
        new = []
        inv = o_inverse(a)
        if inv not in items:
            new.append(inv)
        for b in list(items):
            for c in (a | b, o_compose(a, b), o_compose(b, a)):
                if c not in items and c not in new:
                    new.append(c)
        for c in new:
            items.add(c)
            queue.append(c)
    return items


def o_closure_union_free(n, generator_pair_sets):
    """Closure of the generators and the diagonal under inverse and compose.

    Both operations distribute over union, so the closure that also allows
    unions is exactly the set of finite unions of these elements, and the
    subset-closed membership predicate of the generated structure is
    "contained in the union of this set".
    """
    diagonal = frozenset((p, p) for p in range(n))
    items = {diagonal}
    items.update(frozenset(g) for g in generator_pair_sets)
    queue = list(items)
    while queue:
        a = queue.pop()
        new = [o_inverse(a)]
        for b in list(items):
            new.append(o_compose(a, b))
            new.append(o_compose(b, a))
        for c in new:
            if c not in items:
                items.add(c)
                queue.append(c)
    return items


def o_project(right_size, pairs, axis):
    out = set()
    for a, b in pairs:
        xa, ya = divmod(a, right_size)
        xb, yb = divmod(b, right_size)
        if axis == 1:
            out.add((xa, xb))
        else:
            out.add((ya, yb))
    return frozenset(out)


def o_is_disjoint(members, pairs):
    """Literal double loop over distinct member pairs and their point pairs."""
    for u in members:
        for v in members:
            if u == v:
                continue
            for a in u:
                for b in v:
                    if (a, b) in pairs:
                        return False
    return True


def o_set_partitions(points):
    """Set partitions of a point tuple in canonical order: for each partition of
    points[1:], points[0] joins each block in turn, then stands alone."""
    if not points:
        return [()]
    first = points[0]
    out = []
    for sub in o_set_partitions(points[1:]):
        for k in range(len(sub)):
            out.append(sub[:k] + (sub[k] | {first},) + sub[k + 1 :])
        out.append(sub + (frozenset({first}),))
    return out


def o_brute_force_witness(n, emax_pairs, items, max_n, seed=None):
    """The exhaustive witness search on raw data, candidate by candidate.

    For witness lengths 1..max_n, the point-to-family assignments (shuffled by
    random.Random(seed) when a seed is given) each split the points into
    fibers; a candidate takes one set partition of each fiber as that family's
    members.  Family i (0-based) must be disjoint at items[min(i, len - 1)] and
    uniformly bounded.  Returns the first passing candidate as a tuple of
    member tuples, or None.
    """
    for count in range(1, max_n + 1):
        assignments = list(itertools.product(range(count), repeat=n))
        if seed is not None:
            random.Random(seed).shuffle(assignments)
        for assignment in assignments:
            options = []
            for t in range(count):
                fiber = tuple(p for p in range(n) if assignment[p] == t)
                options.append(o_set_partitions(fiber))
            for families in itertools.product(*options):
                covered = set()
                for members in families:
                    for m in members:
                        covered |= m
                if covered != set(range(n)):
                    continue
                if all(
                    o_is_disjoint(members, items[min(i, len(items) - 1)])
                    and o_is_uniformly_bounded(members, emax_pairs)
                    for i, members in enumerate(families)
                ):
                    return families
    return None


def o_find_decomposition(target, pairs, n, members):
    """Exhaustive assignment search: every candidate goes to a part or unused.

    Straight nested loops, no pruning; exact on guard-sized instances.
    """
    target = frozenset(target)
    candidates = [m for m in members if m <= target]
    for assignment in itertools.product(range(n + 1), repeat=len(candidates)):
        union = set()
        for m, slot in zip(candidates, assignment):
            if slot > 0:
                union |= m
        if union != target:
            continue
        ok = True
        for slot in range(1, n + 1):
            chosen = [m for m, s in zip(candidates, assignment) if s == slot]
            for i in range(len(chosen)):
                for j in range(len(chosen)):
                    if i == j:
                        continue
                    for a in chosen[i]:
                        for b in chosen[j]:
                            if (a, b) in pairs:
                                ok = False
            if not ok:
                break
        if ok:
            return True
    return False


def o_metric_violation(rows):
    """First metric-axiom failure of a square Fraction matrix, or None.

    Straight loops in the order the library reports: per row the diagonal,
    then sign and symmetry entry by entry; then every triple (a, b, c) in
    lexicographic order for the triangle inequality.
    """
    n = len(rows)
    for a in range(n):
        if rows[a][a] != 0:
            return f"nonzero diagonal entry at ({a}, {a})"
        for b in range(n):
            if rows[a][b] < 0:
                return f"negative distance at ({a}, {b})"
            if rows[a][b] != rows[b][a]:
                return f"asymmetric distances at ({a}, {b})"
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rows[a][c] > rows[a][b] + rows[b][c]:
                    return f"triangle inequality fails: d({a},{c}) > d({a},{b}) + d({b},{c})"
    return None


def o_metric_entourage(rows, r):
    """Pairs at distance at most r, compared as Fractions."""
    n = len(rows)
    return frozenset((a, b) for a in range(n) for b in range(n) if rows[a][b] <= r)


def o_fixpoint_closure(n, pairs):
    """The pair-set fixpoint the equivalence closure used before it became a
    disjoint-set forest, on raw pair sets: seed with the diagonal and the
    inverse, then union in self-compositions until stable.
    """
    seed = set(pairs)
    seed.update((p, p) for p in range(n))
    seed.update((b, a) for a, b in pairs)
    current = frozenset(seed)
    while True:
        successors = {}
        for b, c in current:
            successors.setdefault(b, set()).add(c)
        step = current | frozenset((a, c) for a, b in current for c in successors.get(b, ()))
        if step == current:
            return current
        current = step


def o_is_uniformly_bounded(members, emax_pairs):
    """Every member square lies in the maximal entourage."""
    return all((a, b) in emax_pairs for m in members for a in m for b in m)


def o_check_decomposition(target, pairs, n, decomposition_target, parts, members):
    """The O(m^2 |E|) decomposition check, clause by clause, on raw data.

    Returns (parts_ok, union_ok, disjoint_ok, members_ok, failure).  For each
    member pair (a, b), a < b, of a part it scans the sorted pairs, first from
    a to b and then from b to a, for the first hit.
    """
    target = frozenset(target)
    parts_ok = len(parts) <= n
    failure = None
    if not parts_ok:
        failure = ("too-many-parts", len(parts), n)

    union = set()
    for part in parts:
        for m in part:
            union |= m
    union_ok = union == target and decomposition_target == target
    if not union_ok and failure is None:
        if decomposition_target != target:
            failure = ("target-mismatch", sorted(decomposition_target), sorted(target))
        else:
            diff = sorted(union ^ target)
            failure = ("union-mismatch", diff[0])

    disjoint_ok = True
    for t, part in enumerate(parts, start=1):
        if len(set(part)) < len(part):
            disjoint_ok = False
            if failure is None:
                repeated = next(m for i, m in enumerate(part) if m in part[:i])
                failure = ("duplicate-piece", t, sorted(repeated))
            break
    for t, part in enumerate(parts, start=1):
        if not disjoint_ok:
            break
        for a in range(len(part)):
            for b in range(a + 1, len(part)):
                hit = next(
                    ((x, y) for x, y in sorted(pairs) if x in part[a] and y in part[b]),
                    None,
                )
                if hit is None:
                    hit = next(
                        ((x, y) for x, y in sorted(pairs) if x in part[b] and y in part[a]),
                        None,
                    )
                if hit is not None:
                    disjoint_ok = False
                    if failure is None:
                        failure = (
                            "part-not-disjoint",
                            t,
                            sorted(part[a]),
                            sorted(part[b]),
                            [hit[0], hit[1]],
                        )
                    break
            if not disjoint_ok:
                break

    member_set = set(members)
    members_ok = True
    for t, part in enumerate(parts, start=1):
        for m in part:
            if m not in member_set:
                members_ok = False
                if failure is None:
                    failure = ("not-a-member", t, sorted(m))
                break
        if not members_ok:
            break

    return parts_ok, union_ok, disjoint_ok, members_ok, failure


def o_disjoint_offense(members, pairs):
    """First (U, V, [a, b]) over the sorted pairs, then U's and V's indices."""
    for a, b in sorted(pairs):
        for i, u in enumerate(members):
            for j, v in enumerate(members):
                if i != j and a in u and b in v:
                    return sorted(u), sorted(v), [a, b]
    return None


def o_unroll(families, rows, dims):
    """The role-table unroll of a refined chain into binary steps, on raw data.

    families is a tuple of member tuples (frozensets); rows[i][k] is the
    (target, parts) pair decomposing families[i][k] over families[i + 1].
    Level j (1-based) takes dims[min(j, len(dims)) - 1] steps.  Every member
    of the chain under construction is tagged as a parent, a bundle (p, s) of
    parent p's parts s.. or a finished piece, and its row is read off the tag.
    Returns (families, rows) of the binary chain in the same raw shape.
    """
    out_families = [tuple(families[0])]
    out_rows = []
    for level in range(len(families) - 1):
        n_j = dims[min(level + 1, len(dims)) - 1]
        parents = families[level]
        padded = []
        for _, parts in rows[level]:
            padded.append(tuple(parts) + ((),) * (n_j - len(parts)))
        suffixes = []
        for parts in padded:
            suffix = [frozenset()] * (n_j + 1)
            for t in range(n_j - 1, -1, -1):
                layer = frozenset()
                for piece in parts[t]:
                    layer = layer | piece
                suffix[t] = suffix[t + 1] | layer
            suffixes.append(suffix)

        roles = {member: ("parent", p) for p, member in enumerate(parents)}
        for s in range(1, n_j + 1):
            if s < n_j:
                members = []
                new_roles = {}
                for p in range(len(parents)):
                    for t in range(s):
                        for piece in padded[p][t]:
                            members.append(piece)
                            new_roles[piece] = ("piece",)
                    bundle = suffixes[p][s]
                    if bundle:
                        members.append(bundle)
                        new_roles[bundle] = ("bundle", p, s)
                next_members = tuple(members)
            else:
                next_members = tuple(families[level + 1])
                new_roles = {m: ("piece",) for m in next_members}

            row = []
            for member in out_families[-1]:
                role = roles[member]
                if role[0] == "piece":
                    row.append((member, ((member,),)))
                    continue
                p = role[1]
                start = 0 if role[0] == "parent" else role[2]
                parts = []
                if padded[p][start]:
                    parts.append(tuple(padded[p][start]))
                if suffixes[p][start + 1]:
                    parts.append((suffixes[p][start + 1],))
                row.append((member, tuple(parts)))
            out_rows.append(tuple(row))
            out_families.append(next_members)
            roles = new_roles
    return tuple(out_families), tuple(out_rows)
