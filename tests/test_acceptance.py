"""End-to-end acceptance checks.

Each test covers one advertised guarantee, prints its own pass/fail
line (run with -s to see them), and enforces a wall-clock budget.
"""

import itertools
import random
import time

from ccreconfig import (
    InvalidInstanceError,
    Rule,
    bfs_distances,
    build_conflict_graph,
    cc_multiset,
    connected_components,
    expand_moves,
    oracle_solve,
    path_graph,
    reachability_partition,
    solve_cograph_cs,
    solve_equal_size_cj,
    solve_path_cj,
    solve_path_cs,
    verify_sequence,
)
from ccreconfig.generators import (
    gen_cograph_instance,
    gen_path_instance,
    random_chordal_graph,
    sample_spread_components,
)
from ccreconfig.oracle import enumerate_states, neighbors, vertices_of

from helpers import all_graphs, random_connected_graph

MINUTE = 60.0


def _finish(name, start, budget, failures):
    elapsed = time.monotonic() - start
    verdict = "PASS" if not failures and elapsed <= budget else "FAIL"
    print(f"criterion {name}: {verdict} ({elapsed:.1f}s of {budget:.0f}s budget)")
    assert not failures, failures[:5]
    assert elapsed <= budget, f"budget exceeded: {elapsed:.1f}s"


def _canonical_form(g):
    best = None
    for perm in itertools.permutations(range(g.n)):
        key = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))
        if best is None or key < best:
            best = key
    return g.n, best


def _relation_graphs(total=500):
    graphs, seen = [], set()
    for n in range(1, 6):
        for g in all_graphs(n):
            if len(connected_components(g, range(n))) != 1:
                continue
            canon = _canonical_form(g)
            if canon not in seen:
                seen.add(canon)
                graphs.append(g)
    rng = random.Random(101)
    edge_sets = set()
    while len(graphs) < total:
        g = random_connected_graph(rng, 6, rng.choice([0.25, 0.4, 0.6]))
        if g.edges not in edge_sets:
            edge_sets.add(g.edges)
            graphs.append(g)
    return graphs


def test_criterion_rule_relations():
    """Slide moves imply jump moves; one-vertex slides decide the same
    reachability as whole-component slides."""
    start = time.monotonic()
    failures = []
    rules = [Rule.TJ, Rule.TS, Rule.CJ, Rule.CS, Rule.CS1]
    for g in _relation_graphs():
        groups = {}
        for size in range(g.n + 1):
            for sub in itertools.combinations(range(g.n), size):
                groups.setdefault(cc_multiset(g, sub), None)
        for multiset in groups:
            space = enumerate_states(g, multiset)
            nbrs = {
                rule: [set(neighbors(space, i, rule)) for i in range(len(space))]
                for rule in rules
            }
            for i in range(len(space)):
                if not nbrs[Rule.CS1][i] <= nbrs[Rule.CS][i]:
                    failures.append((g.edges, multiset, i, "CS1 step not a CS step"))
                if not nbrs[Rule.CS][i] <= nbrs[Rule.CJ][i]:
                    failures.append((g.edges, multiset, i, "CS step not a CJ step"))
                if not nbrs[Rule.CS1][i] <= nbrs[Rule.TJ][i]:
                    failures.append((g.edges, multiset, i, "CS1 step not a TJ step"))
                if not nbrs[Rule.TS][i] <= nbrs[Rule.TJ][i]:
                    failures.append((g.edges, multiset, i, "TS step not a TJ step"))
            labels = {
                rule: reachability_partition(space, rule) for rule in rules
            }
            for i in range(len(space)):
                if labels[Rule.CS][i] != labels[Rule.CS1][i]:
                    failures.append((g.edges, multiset, i, "CS and CS1 disagree"))
                if labels[Rule.CJ][i] != labels[Rule.CJ][labels[Rule.CS][i]]:
                    failures.append((g.edges, multiset, i, "CS class splits CJ"))
                if labels[Rule.TJ][i] != labels[Rule.TJ][labels[Rule.CS][i]]:
                    failures.append((g.edges, multiset, i, "CS class splits TJ"))
                if labels[Rule.TJ][i] != labels[Rule.TJ][labels[Rule.TS][i]]:
                    failures.append((g.edges, multiset, i, "TS class splits TJ"))
        if failures:
            break
    _finish("1 rule relations", start, 5 * MINUTE, failures)


def test_criterion_path_solver_vs_oracle():
    """Path solvers agree with exhaustive search, exhaustively to n=7
    and on 1000 sampled larger instances."""
    start = time.monotonic()
    failures = []
    for n in range(1, 8):
        g = path_graph(n)
        groups = {}
        for size in range(n + 1):
            for sub in itertools.combinations(range(n), size):
                groups.setdefault(cc_multiset(g, sub), []).append(sub)
        for multiset, subs in groups.items():
            space = enumerate_states(g, multiset)
            for rule, solve in ((Rule.CS, solve_path_cs), (Rule.CJ, solve_path_cj)):
                labels = reachability_partition(space, rule)
                for a, b in itertools.combinations(subs, 2):
                    expected = (
                        labels[space.index[sum(1 << v for v in a)]]
                        == labels[space.index[sum(1 << v for v in b)]]
                    )
                    res = solve(g, a, b)
                    if res.reachable != expected:
                        failures.append((n, rule.value, a, b, "decision"))
                        continue
                    if res.reachable:
                        seq = expand_moves(g, a, res.moves, rule)
                        if seq.states[-1] != b or not verify_sequence(
                            g, seq.states, multiset, rule=rule
                        ):
                            failures.append((n, rule.value, a, b, "witness"))
    rng = random.Random(102)
    for _ in range(1000):
        g, a, b = gen_path_instance(rng, rng.choice([8, 9]))
        rule, solve = rng.choice(
            [(Rule.CS, solve_path_cs), (Rule.CJ, solve_path_cj)]
        )
        res = solve(g, a, b)
        against = oracle_solve(g, a, b, rule)
        if res.reachable != against.reachable:
            failures.append((g.n, rule.value, a, b, "sampled decision"))
        elif res.reachable:
            seq = expand_moves(g, a, res.moves, rule)
            if not verify_sequence(g, seq.states, cc_multiset(g, a), rule=rule):
                failures.append((g.n, rule.value, a, b, "sampled witness"))
    _finish("2 path solver vs oracle", start, 2 * MINUTE, failures)


def test_criterion_buffer_boundary():
    """One spare vertex lets <1,3> reorder into <3,1>; none does not."""
    start = time.monotonic()
    failures = []
    a, b = (0, 2, 3, 4), (0, 1, 2, 4)
    roomy = solve_path_cj(path_graph(7), a, b)
    if not roomy.reachable:
        failures.append("n=7 should be reorderable")
    else:
        seq = expand_moves(path_graph(7), a, roomy.moves, Rule.CJ)
        if seq.states[-1] != b or not verify_sequence(
            path_graph(7), seq.states, rule=Rule.CJ
        ):
            failures.append("n=7 witness invalid")
    tight = solve_path_cj(path_graph(6), a, b)
    if tight.reachable or tight.reason != "buffer-exceeded":
        failures.append("n=6 should fail on the buffer")
    against = oracle_solve(path_graph(6), a, b, Rule.CJ)
    if against.reachable:
        failures.append("oracle disagrees at n=6")
    if not oracle_solve(path_graph(7), a, b, Rule.CJ).reachable:
        failures.append("oracle disagrees at n=7")
    _finish("3 buffer boundary", start, 1 * MINUTE, failures)


def test_criterion_cograph_solver():
    """Cograph slide decisions match exhaustive search, one-exchange
    sequences are shortest, and single-component distances stay in
    {0, 1, 2}; all sequences are short."""
    start = time.monotonic()
    failures = []
    rng = random.Random(104)
    for _ in range(500):
        g, a, b = gen_cograph_instance(rng, rng.randint(2, 8))
        multiset = cc_multiset(g, a)
        space = enumerate_states(g, multiset)
        ia = space.index[sum(1 << v for v in a)]
        ib = space.index[sum(1 << v for v in b)]
        labels = reachability_partition(space, Rule.CS)
        expected = labels[ia] == labels[ib]
        for variant in (Rule.CS, Rule.CS1):
            res = solve_cograph_cs(g, a, b, variant=variant)
            if res.reachable != expected:
                failures.append((g.edges, a, b, variant.value, "decision"))
                continue
            if not res.reachable:
                continue
            if res.states[0] != a or res.states[-1] != b:
                failures.append((g.edges, a, b, variant.value, "endpoints"))
            if not verify_sequence(g, res.states, multiset, rule=variant):
                failures.append((g.edges, a, b, variant.value, "sequence"))
            if res.distance > 2 * g.n:
                failures.append((g.edges, a, b, variant.value, "too long"))
            if variant is Rule.CS1:
                exact = bfs_distances(space, ia, Rule.CS1)[ib]
                if res.distance != exact:
                    failures.append((g.edges, a, b, "not shortest"))
        # single-component spot check on the same cograph
        s = rng.randint(1, max(1, min(4, g.n)))
        one = enumerate_states(g, (s,))
        pool = one.states
        if len(pool) >= 2 and len(cc_multiset(g, range(g.n))) == 1:
            x, y = (vertices_of(m) for m in rng.sample(pool, 2))
            ix = one.index[sum(1 << v for v in x)]
            iy = one.index[sum(1 << v for v in y)]
            d_cs = solve_cograph_cs(g, x, y).distance
            if d_cs not in (0, 1, 2):
                failures.append((g.edges, x, y, "distance out of range"))
            if d_cs != bfs_distances(one, ix, Rule.CS)[iy]:
                failures.append((g.edges, x, y, "one-component CS distance"))
            d_cs1 = solve_cograph_cs(g, x, y, variant=Rule.CS1).distance
            if d_cs1 != bfs_distances(one, ix, Rule.CS1)[iy]:
                failures.append((g.edges, x, y, "one-component CS1 distance"))
        if failures:
            break
    _finish("4 cograph solver", start, 5 * MINUTE, failures)


def test_criterion_chordal_solver():
    """Equal-size jump instances on chordal graphs always peel: one jump
    per displaced component, matching exhaustive shortest paths."""
    start = time.monotonic()
    failures = []
    rng = random.Random(105)
    done = 0
    while done < 500:
        n = rng.randint(5, 9)
        g = random_chordal_graph(rng, n)
        s = rng.choice([1, 2, 3])
        k = rng.choice([1, 2])
        try:
            a = sample_spread_components(rng, g, s, k, tries=40)
            b = sample_spread_components(rng, g, s, k, tries=40)
        except InvalidInstanceError:
            continue
        done += 1
        res = solve_equal_size_cj(g, a, b)
        if res.answer != "yes":
            failures.append((g.edges, a, b, "not yes"))
            continue
        if not res.conflicts.is_forest():
            failures.append((g.edges, a, b, "conflict cycle on chordal"))
        displaced = len(res.conflicts.a_only)
        if len(res.jumps) != displaced:
            failures.append((g.edges, a, b, "jump count"))
        if res.states[0] != a or res.states[-1] != b:
            failures.append((g.edges, a, b, "endpoints"))
        if not verify_sequence(g, res.states, cc_multiset(g, a), rule=Rule.CJ):
            failures.append((g.edges, a, b, "sequence"))
        space = enumerate_states(g, (s,) * k)
        exact = bfs_distances(
            space, space.index[sum(1 << v for v in a)], Rule.CJ
        )[space.index[sum(1 << v for v in b)]]
        if exact != len(res.jumps):
            failures.append((g.edges, a, b, "not shortest"))
        if failures:
            break
    _finish("5 chordal solver", start, 5 * MINUTE, failures)


def test_criterion_singleton_conflicts():
    """For size-1 components the conflict graph is exactly the classic
    vertex-level construction: nodes A\\B and B\\A, edges on adjacency."""
    start = time.monotonic()
    failures = []
    rng = random.Random(106)
    done = 0
    while done < 200:
        g = random_connected_graph(rng, rng.randint(4, 7), rng.choice([0.3, 0.5]))
        k = rng.randint(1, 3)
        try:
            a = sample_spread_components(rng, g, 1, k, tries=40)
            b = sample_spread_components(rng, g, 1, k, tries=40)
        except InvalidInstanceError:
            continue
        done += 1
        cg = build_conflict_graph(g, a, b)
        only_a = tuple((v,) for v in sorted(set(a) - set(b)))
        only_b = tuple((v,) for v in sorted(set(b) - set(a)))
        if cg.a_only != only_a or cg.b_only != only_b:
            failures.append((g.edges, a, b, "nodes"))
            continue
        expected_edges = tuple(
            sorted(
                (i, j)
                for i, (u,) in enumerate(only_a)
                for j, (w,) in enumerate(only_b)
                if w in g.adj[u]
            )
        )
        if cg.edges != expected_edges:
            failures.append((g.edges, a, b, "edges"))
        common = tuple((v,) for v in sorted(set(a) & set(b)))
        if cg.common != common:
            failures.append((g.edges, a, b, "common"))
    _finish("6 singleton conflicts", start, 1 * MINUTE, failures)


def _timed(fn, repeats=3):
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        t = time.perf_counter() - t0
        best = t if best is None else min(best, t)
    return best


def _blocks(n, size, gap, count, offset=0):
    out = []
    pos = offset
    for _ in range(count):
        out.extend(range(pos, pos + size))
        pos += size + gap
    return tuple(out)


def test_criterion_scaling():
    """Doubling the instance roughly doubles the work: path slide
    decisions and equal-size jump schedules stay near-linear, and jump
    sequences respect the quadratic move bound."""
    start = time.monotonic()
    failures = []

    ratios = []
    times = {}
    for n in (100_000, 200_000):
        g = path_graph(n)
        count = n // 40
        a = _blocks(n, 2, 2, count, offset=0)
        b = _blocks(n, 2, 2, count, offset=1)
        times[n] = _timed(lambda: solve_path_cs(g, a, b, want_moves=False))
        if not solve_path_cs(g, a, b, want_moves=False).reachable:
            failures.append((n, "path instance should be reachable"))
    ratios.append(("path CS", times[200_000] / times[100_000]))

    rng = random.Random(107)
    times = {}
    for n in (100_000, 200_000):
        g = random_chordal_graph(rng, n)

        def greedy_singletons(order, quota):
            blocked = set()
            out = []
            for v in order:
                if v in blocked:
                    continue
                out.append(v)
                blocked.add(v)
                blocked.update(g.adj[v])
                if len(out) == quota:
                    break
            return tuple(sorted(out))

        quota = n // 100
        a = greedy_singletons(range(n), quota)
        b = greedy_singletons(range(n - 1, -1, -1), quota)
        if len(a) != quota or len(b) != quota:
            failures.append((n, "could not seat singleton components"))
            continue
        times[n] = _timed(
            lambda: solve_equal_size_cj(g, a, b, want_states=False)
        )
        if solve_equal_size_cj(g, a, b, want_states=False).answer != "yes":
            failures.append((n, "chordal instance should be yes"))
    ratios.append(("equal-size CJ", times[200_000] / times[100_000]))

    for name, ratio in ratios:
        if ratio > 2.5:
            failures.append((name, f"doubling ratio {ratio:.2f} exceeds 2.5"))

    rng = random.Random(1070)
    for _ in range(200):
        n = rng.randint(10, 200)
        parts = rng.randint(1, min(8, (n + 1) // 2))
        g, a, b = gen_path_instance(rng, n, parts=parts)
        res = solve_path_cj(g, a, b)
        if not res.reachable:
            continue
        k = len(cc_multiset(g, a))
        if len(res.moves) > 3 * k * k + 2 * k:
            failures.append((n, parts, "move bound exceeded"))
    detail = ", ".join(f"{name} x{ratio:.2f}" for name, ratio in ratios)
    print(f"  scaling ratios: {detail}")
    _finish("7 scaling", start, 3 * MINUTE, failures)


def test_criterion_mutation_rejection():
    """A thousand corrupted sequences are each rejected with the right
    violation kind at the right position."""
    start = time.monotonic()
    failures = []
    rng = random.Random(108)
    corpus = []
    while len(corpus) < 160:
        n = rng.randint(6, 9)
        g, a, b = gen_path_instance(rng, n)
        for rule, solve in ((Rule.CS, solve_path_cs), (Rule.CJ, solve_path_cj)):
            res = solve(g, a, b)
            if res.reachable:
                states = expand_moves(g, a, res.moves, rule).states
                if len(states) >= 2:
                    corpus.append((g, rule, states))
        g, a, b = gen_cograph_instance(rng, rng.randint(4, 8))
        for variant in (Rule.CS, Rule.CS1):
            res = solve_cograph_cs(g, a, b, variant=variant)
            if res.reachable and len(res.states) >= 2:
                corpus.append((g, variant, res.states))
        n = rng.randint(6, 9)
        gc = random_chordal_graph(rng, n)
        try:
            a = sample_spread_components(rng, gc, rng.choice([1, 2]), 2, tries=40)
            b = sample_spread_components(rng, gc, rng.choice([1, 2]), 2, tries=40)
        except InvalidInstanceError:
            continue
        if cc_multiset(gc, a) == cc_multiset(gc, b):
            res = solve_equal_size_cj(gc, a, b)
            if res.answer == "yes" and len(res.states) >= 2:
                corpus.append((gc, Rule.CJ, res.states))

    checked = 0
    while checked < 1000:
        g, rule, states = corpus[rng.randrange(len(corpus))]
        multiset = cc_multiset(g, states[0])
        j = rng.randrange(1, len(states))
        mutated = [tuple(s) for s in states]
        kind = rng.choice(["drop", "add", "swap"])
        if kind == "drop":
            victim = rng.choice(mutated[j])
            mutated[j] = tuple(v for v in mutated[j] if v != victim)
            expect = (j, "multiset")
        elif kind == "add":
            free = [v for v in range(g.n) if v not in mutated[j]]
            if not free:
                continue
            mutated[j] = tuple(sorted(mutated[j] + (rng.choice(free),)))
            expect = (j, "multiset")
        else:
            space = enumerate_states(g, multiset)
            prev = space.index[sum(1 << v for v in mutated[j - 1])]
            near = set(neighbors(space, prev, rule)) | {prev}
            strangers = [i for i in range(len(space)) if i not in near]
            if not strangers:
                continue
            mutated[j] = space.state_vertices(rng.choice(strangers))
            expect = (j - 1, "adjacency")
        outcome = verify_sequence(g, mutated, multiset, rule=rule)
        if outcome:
            failures.append((rule.value, j, kind, "accepted a corrupt sequence"))
        elif (outcome.index, outcome.condition) != expect:
            failures.append(
                (rule.value, j, kind, (outcome.index, outcome.condition), expect)
            )
        checked += 1
        if failures:
            break
    _finish("8 mutation rejection", start, 3 * MINUTE, failures)
