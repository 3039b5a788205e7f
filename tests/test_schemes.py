"""The three scheme solvers and anhomomorphic inference."""

import hashlib
import random

import pytest

from coevents import (ALWAYS_FALSE, ALWAYS_TRUE, CONTINGENT, VACUOUS, Event,
                      GuardError, SampleSpace, ideal_generator, ideal_scheme,
                      infer, linear_scheme, multiplicative_scheme,
                      parse_coevent, parse_event)
from coevents.coevent import Coevent, _anf, _lacking
from coevents.events import bit_indices, canonical_key
from coevents.measure import PreclusionSet
from coevents.scenario import render_result
from coevents.schemes import SchemeResult, _transpose, _universe, _weight_classes


def explicit(space, *event_texts):
    return PreclusionSet.explicit(
        space, [parse_event(t, space) for t in event_texts])


def texts(coevents):
    return [str(phi) for phi in coevents]


class TestMultiplicative:

    def test_two_slit(self, two_slit):
        result = multiplicative_scheme(two_slit.preclusion_set())
        assert texts(result.coevents) == ['g2*', 'g4*']
        assert result.scheme == 'multiplicative'
        assert result.is_viable

    def test_three_slit(self, three_slit):
        result = multiplicative_scheme(three_slit.preclusion_set())
        assert texts(result.coevents) == ['a*b*']

    def test_ab_correlation(self, ab_correlation):
        result = multiplicative_scheme(ab_correlation.preclusion_set())
        assert texts(result.coevents) == ['AB*', 'ab*']

    def test_no_constraints_gives_atoms(self, abc):
        result = multiplicative_scheme(explicit(abc))
        assert texts(result.coevents) == ['a*', 'b*', 'c*']
        assert all(phi.is_homomorphism() for phi in result.coevents)

    def test_full_space_precluded(self, xy):
        result = multiplicative_scheme(explicit(xy, '{x y}'))
        assert not result.is_viable
        assert result.coevents == ()

    def test_results_are_preclusive_monomial_antichain(self, abc):
        rng = random.Random(3)
        for _ in range(40):
            p = PreclusionSet.explicit(
                abc, [ev for ev in abc.events() if rng.random() < 0.4])
            result = multiplicative_scheme(p)
            supports = [phi.support for phi in result.coevents]
            for phi in result.coevents:
                assert phi.is_multiplicative() and not phi.is_zero()
                assert phi.is_preclusive(p.events)
            for i, s in enumerate(supports):
                for j, t in enumerate(supports):
                    assert i == j or not s.issubset(t)

    def test_classical_preclusions_recover_classical_logic(self, abc):
        p = explicit(abc, '{a}', '{b}', '{a b}')
        assert p.is_classical()
        result = multiplicative_scheme(p)
        assert texts(result.coevents) == ['c*']


class TestLinear:

    def test_two_slit(self, two_slit):
        result = linear_scheme(two_slit.preclusion_set())
        assert texts(result.coevents) == ['g2*', 'g4*']

    def test_three_slit(self, three_slit):
        result = linear_scheme(three_slit.preclusion_set())
        assert texts(result.coevents) == ['a*+b*+c*']

    def test_no_constraints(self, xy):
        result = linear_scheme(explicit(xy))
        assert texts(result.coevents) == ['x*', 'y*']

    def test_full_space_precluded(self, xy):
        assert not linear_scheme(explicit(xy, '{x y}')).is_viable

    def test_transpose_matches_the_row_loop(self):
        def reference(rows, n):  # one bit at a time, as the solvers once did
            columns = [0] * n
            for k, row in enumerate(rows):
                for v in bit_indices(row):
                    columns[v] |= 1 << k
            return columns

        rng = random.Random(47)
        cases = [([], 3), ([0, 0], 2), ([1], 1)]
        cases += [([rng.getrandbits(n) for _ in range(rng.randrange(40))], n)
                  for n in rng.choices(range(1, 25), k=200)]
        cases.append(([rng.getrandbits(16) for _ in range(60_000)], 16))
        for rows, n in cases:
            assert _transpose(rows, n) == reference(rows, n)

    def test_solutions_have_even_overlap(self, three_slit):
        p = three_slit.preclusion_set()
        for phi in linear_scheme(p).coevents:
            assert phi.is_linear() and phi.is_unital()
            assert phi.is_preclusive(p.events)

    def test_nullspace_diagnostic(self, two_slit):
        result = linear_scheme(two_slit.preclusion_set())
        assert result.diagnostics['nullspace_dimension'] == 3


# -- pinned corpus against brute force over all 2^n events --------------------

def _closure(flags, n, upward):
    """Close a 2^n flag table over subsets (downward) or supersets (upward)."""
    flags = list(flags)
    for i in range(n):
        bit = 1 << i
        for a in range(1 << n):
            if a & bit:
                if upward and flags[a ^ bit]:
                    flags[a] = True
                elif not upward and flags[a]:
                    flags[a ^ bit] = True
    return flags


def _members(mask):
    return [1 << i for i in range(mask.bit_length()) if mask >> i & 1]


def full_scan_ideal(preclusions, tie_break=int.__neg__):
    """Reference ideal scheme: weigh and sort every candidate table, then search.

    The solver before weight classes were built lazily.  Candidates of one
    weight are ordered by `tie_break` of their truth table; with the
    default, descending table, `ideal_scheme` must reproduce its answers
    and its search counters exactly, and with any other order its answers.
    """
    space = preclusions.space
    n = space.size
    universe = _universe(preclusions)
    if universe == 0:
        return SchemeResult(
            scheme='ideal', coevents=(), total_complexity=None,
            generating_sets=(),
            diagnostics={'candidates': 0, 'nodes': 0, 'optimal_sets': 0})
    everything = (1 << (1 << n)) - 1
    containing = [everything ^ lacking for lacking in _lacking(n)]
    candidates = []
    tt = universe
    while tt:
        anf = _anf(tt, n)
        weight = sum(map(int.bit_count, map(anf.__and__, containing)))
        candidates.append((weight, tie_break(tt), tt))
        tt = (tt - 1) & universe
    candidates.sort()
    weights = [c[0] for c in candidates]
    covers = [c[2] for c in candidates]
    min_weight_for = {}
    fresh = universe
    for weight, _, tt in candidates:
        for e in bit_indices(tt & fresh):
            min_weight_for[e] = weight
        fresh &= ~tt
    best = {'weight': None, 'sets': set(), 'nodes': 0}

    def search(covered, weight, chosen):
        best['nodes'] += 1
        if covered == universe:
            if best['weight'] is None or weight < best['weight']:
                best['weight'] = weight
                best['sets'].clear()
            if weight == best['weight']:
                best['sets'].add(frozenset(chosen))
            return
        uncovered = universe & ~covered
        bound = max(min_weight_for[e] for e in bit_indices(uncovered))
        if best['weight'] is not None and weight + bound > best['weight']:
            return
        element = uncovered & -uncovered
        for idx, tt in enumerate(covers):
            if best['weight'] is not None and weight + weights[idx] > best['weight']:
                break
            if tt & element:
                search(covered | tt, weight + weights[idx], chosen + (idx,))

    search(0, 0, ())
    sets_out = sorted(
        (tuple(sorted((Coevent._from_table(space, covers[idx]) for idx in s), key=str))
         for s in best['sets']),
        key=lambda members: tuple(map(str, members)))
    full_event = 1 << space.full.bits
    covered_by_unital = 0
    for s in best['sets']:
        for idx in s:
            if covers[idx] & full_event:
                covered_by_unital |= covers[idx]
    unital = sorted({phi for members in sets_out for phi in members
                     if phi.is_unital()}, key=str)
    uncovered = sorted(bit_indices(universe & ~covered_by_unital), key=canonical_key)
    return SchemeResult(
        scheme='ideal', coevents=tuple(unital), total_complexity=best['weight'],
        generating_sets=tuple(sets_out),
        uncovered_by_unital=tuple(Event(space, a) for a in uncovered),
        diagnostics={'candidates': len(candidates), 'nodes': best['nodes'],
                     'optimal_sets': len(sets_out)})


def ideal_fields(result):
    return (result.coevents, result.generating_sets, result.total_complexity,
            result.unique, result.uncovered_by_unital, dict(result.diagnostics))


def assert_order_free(preclusions, reference, seed):
    """The answers of `reference`, all but its node count, come out the same
    with weight ties broken by ascending table and by a seeded shuffle."""
    rng = random.Random(seed)
    shuffled = {}
    for tie_break in (int, lambda tt: shuffled.setdefault(tt, rng.random())):
        result = full_scan_ideal(preclusions, tie_break)
        for field in ('generating_sets', 'total_complexity', 'coevents', 'uncovered_by_unital'):
            assert getattr(result, field) == getattr(reference, field), (field, preclusions.masks)


def brute_transversals(masks, n):
    """Minimal F contained in no precluded event."""
    inside = _closure([a in masks for a in range(1 << n)], n, upward=False)
    return {f for f in range(1 << n)
            if not inside[f] and all(inside[f ^ b] for b in _members(f))}


def brute_supports(masks, n, minimal_among_unital):
    """(odd minimal supports, number of minimal supports) of the even-overlap system."""
    solution = [s and all((s & z).bit_count() % 2 == 0 for z in masks)
                and (not minimal_among_unital or s.bit_count() % 2 == 1)
                for s in range(1 << n)]
    above = _closure(solution, n, upward=True)  # some solution lies inside
    minimal = [s for s in range(1 << n)
               if solution[s] and not any(above[s ^ b] for b in _members(s))]
    return {s for s in minimal if s.bit_count() % 2 == 1}, len(minimal)


def pinned_corpus():
    """Seeded explicit preclusion sets, n = 5..12, with the kinds of column
    structure the linear class reduction distinguishes."""
    rng = random.Random(20070301)
    for n in range(5, 13):
        full = (1 << n) - 1
        for case in range(12):
            if case < 4:
                # three to five constraints and distinct columns: a reduced
                # system with many solutions
                absent, twin_of, density, count = 0, {}, 0.5, rng.randint(3, 5)
            else:
                absent = sum(1 << i for i in range(n) if rng.random() < 0.1)
                twin_of = {i: rng.randrange(i) for i in range(1, n) if rng.random() < 0.2}
                density = rng.choice((0.3, 0.5, 0.7))
                count = rng.choice((1, 2, 3, 5, 8, 16, 40))
            masks = set()
            for _ in range(count):
                m = sum(1 << i for i in range(n) if rng.random() < density)
                for i, j in twin_of.items():  # j < i, so chains copy through
                    m = m & ~(1 << i) | (m >> j & 1) << i
                masks.add(m & ~absent)
            if case == 11:
                masks.add(full)
            yield n, masks


LINEAR_RENDER_DIGEST = '121a7c652735717f0984edab287836081369b0d06eef72f95eb5d33e6006e01b'


def linear_render_corpus():
    """500 seeded explicit preclusion sets, n = 1..20, 0 to 30 events each."""
    rng = random.Random(703276)
    for k in range(500):
        n = 1 + k % 20
        if k % 4 == 0:
            # three to six constraints and no forced twins: a reduced system
            # with many solutions
            absent, twin_of, density, count = 0, {}, 0.5, rng.randint(3, 6)
        else:
            absent = sum(1 << i for i in range(n) if rng.random() < 0.1)
            twin_of = {i: rng.randrange(i) for i in range(1, n) if rng.random() < 0.2}
            density = rng.choice((0.2, 0.5, 0.8))
            count = rng.randint(0, 30)
        masks = []
        for _ in range(count):
            m = sum(1 << i for i in range(n) if rng.random() < density)
            for i, j in twin_of.items():  # j < i, so chains copy through
                m = m & ~(1 << i) | (m >> j & 1) << i
            masks.append(m & ~absent)
        yield n, masks


class TestPinnedCorpus:

    def test_both_solvers_match_brute_force(self):
        seen = {'zero column': 0, 'duplicated column': 0, 'everything precluded': 0,
                'reduced nullity >= 3': 0}
        for n, masks in pinned_corpus():
            space = SampleSpace(f'h{i}' for i in range(n))
            p = PreclusionSet.explicit(space, [Event(space, m) for m in masks])
            union = 0
            for z in p.masks:
                union |= z
            columns = [frozenset(z for z in p.masks if z >> i & 1) for i in range(n)]
            seen['zero column'] += union != (1 << n) - 1
            seen['duplicated column'] += len(set(columns)) < n
            seen['everything precluded'] += (1 << n) - 1 in p.masks

            result = multiplicative_scheme(p)
            want = brute_transversals(p.masks, n)
            assert {phi.masks for phi in result.coevents} == {frozenset([f]) for f in want}
            assert result.diagnostics['transversals'] == len(want)
            result = linear_scheme(p)
            odd, count = brute_supports(p.masks, n, False)
            # the solutions form a GF(2) subspace: if an odd solution strictly
            # contains a nonzero even solution T, it also contains the smaller
            # odd solution S+T, so judging minimality among the odd solutions
            # alone picks the same supports
            assert odd == brute_supports(p.masks, n, True)[0]
            assert ({phi.masks for phi in result.coevents}
                    == {frozenset(_members(s)) for s in odd})
            assert result.diagnostics['minimal_supports'] == count
            seen['reduced nullity >= 3'] += result.diagnostics['solutions_examined'] >= 7
        assert all(count >= 5 for count in seen.values()), seen

    def test_linear_rendered_corpus_is_pinned(self):
        # text and JSON, counters included, at sizes brute force cannot
        # reach; the digest was taken from the solver that row-reduced the
        # system and read each history's column over the pivots
        digest = hashlib.sha256()
        wide = 0
        for n, masks in linear_render_corpus():
            space = SampleSpace(f'h{i}' for i in range(n))
            result = linear_scheme(PreclusionSet.explicit(space, [Event(space, m) for m in masks]))
            digest.update(render_result(result).encode())
            digest.update(render_result(result, 'json').encode())
            wide += result.diagnostics['solutions_examined'] >= 255  # reduced nullity >= 8
        assert wide >= 5
        assert digest.hexdigest() == LINEAR_RENDER_DIGEST

    def test_class_reduction_cases(self):
        space = SampleSpace('abcdef')
        # e and f are in no precluded event; a and b always appear together
        p = explicit(space, '{a b c}', '{a b d}', '{c d}')
        result = linear_scheme(p)
        assert texts(result.coevents) == ['a*+c*+d*', 'b*+c*+d*', 'e*', 'f*']
        # {a b} is the one even minimal support
        assert result.diagnostics['minimal_supports'] == 5
        assert texts(multiplicative_scheme(p).coevents) == [
            'a*c*d*', 'b*c*d*', 'e*', 'f*']


class TestIdealGenerator:

    def test_three_slit(self, three_slit):
        g = ideal_generator(three_slit.preclusion_set())
        space = three_slit.space
        true_on = [str(ev) for ev in space.events() if g(ev) == 1]
        assert true_on == ['{a}', '{b}', '{a b}', '{c}', '{a b c}']

    def test_no_preclusions(self, xy):
        g = ideal_generator(explicit(xy))
        assert [g(ev) for ev in xy.events()] == [0, 1, 1, 1]

    def test_everything_precluded(self, xy):
        p = PreclusionSet.explicit(xy, list(xy.events()))
        assert ideal_generator(p).is_zero()

    def test_membership_criterion(self, abc):
        # psi preclusive iff psi * g == psi
        rng = random.Random(5)
        p = explicit(abc, '{a c}', '{b c}')
        g = ideal_generator(p)
        masks = list(range(1 << abc.size))
        from coevents.coevent import Coevent
        for _ in range(100):
            psi = Coevent._raw(
                abc, frozenset(rng.sample(masks, rng.randint(0, 8))))
            assert (psi * g == psi) == psi.is_preclusive(p.events)


class TestIdeal:

    def test_two_slit(self, two_slit):
        result = ideal_scheme(two_slit.preclusion_set())
        assert texts(result.coevents) == ['g2*', 'g4*']
        assert result.total_complexity == 4
        assert result.unique
        assert [texts(s) for s in result.generating_sets] == [['g1*+g3*', 'g2*', 'g4*']]
        # the extra generator is non-unital and pairs the precluded histories
        extra = result.generating_sets[0][0]
        assert not extra.is_unital()
        assert [str(e) for e in result.uncovered_by_unital] == ['{g1}', '{g3}']

    def test_three_slit(self, three_slit):
        result = ideal_scheme(three_slit.preclusion_set())
        assert texts(result.coevents) == ['a*+b*+c*', 'a*b*']
        assert result.total_complexity == 5
        assert result.unique
        assert result.uncovered_by_unital == ()

    def test_ab_correlation(self, ab_correlation):
        result = ideal_scheme(ab_correlation.preclusion_set())
        assert texts(result.coevents) == ['AB*', 'ab*']
        assert result.total_complexity == 2

    def test_no_constraints_n2(self, xy):
        result = ideal_scheme(explicit(xy))
        assert texts(result.coevents) == ['x*', 'y*']
        assert result.unique

    def test_everything_precluded(self, xy):
        p = PreclusionSet.explicit(xy, list(xy.events()))
        result = ideal_scheme(p)
        assert not result.is_viable
        assert result.generating_sets == ()
        assert result.total_complexity is None

    def test_non_unique_optimum(self, abc):
        result = ideal_scheme(explicit(abc, '{a}', '{b c}'))
        assert not result.unique
        assert result.total_complexity == 4
        assert [texts(s) for s in result.generating_sets] == [
            ['a*b*', 'b*+c*'], ['a*c*', 'b*+c*']]
        assert texts(result.coevents) == ['a*b*', 'a*c*']
        assert [str(e) for e in result.uncovered_by_unital] == ['{b}', '{c}']

    def test_uncovered_events_in_canonical_order(self):
        # {a d} before {b c}, as in every other event list
        space = SampleSpace('abcd')
        result = ideal_scheme(explicit(space, '{b c d}', '{a b c d}'))
        assert [str(e) for e in result.uncovered_by_unital] == [
            '{a}', '{b}', '{c}', '{d}', '{a b}', '{a c}', '{a d}', '{b c}', '{b d}',
            '{c d}', '{a b c}', '{a b d}', '{a c d}']

    def test_full_space_precluded_but_rest_coverable(self, abc):
        # with omega precluded nothing unital survives, yet the ideal still
        # has generating sets
        result = ideal_scheme(explicit(abc, '{a b c}'))
        assert not result.is_viable
        assert result.generating_sets
        assert not result.unique
        assert all(not phi.is_unital() for s in result.generating_sets for phi in s)

    def test_unique_follows_the_generating_sets(self, abc):
        assert 'unique' not in SchemeResult.__match_args__
        tied = ideal_scheme(explicit(abc, '{a b c}'))
        assert len(tied.generating_sets) > 1 and not tied.unique
        assert SchemeResult(tied.scheme, tied.coevents, tied.total_complexity,
                            tied.generating_sets[:1]).unique
        assert ideal_scheme(PreclusionSet.explicit(abc, abc.events())).unique  # no sets
        assert SchemeResult('linear', ()).unique  # no generating sets outside the ideal scheme

    def test_cover_and_join_properties(self, abc):
        rng = random.Random(6)
        for _ in range(30):
            p = PreclusionSet.explicit(
                abc, [ev for ev in abc.events() if rng.random() < 0.4])
            result = ideal_scheme(p)
            g = ideal_generator(p)
            if not result.generating_sets:
                assert g.is_zero()
                continue
            for members in result.generating_sets:
                # every non-precluded event is made true by some member
                for ev in abc.events():
                    if ev not in p:
                        assert any(phi(ev) == 1 for phi in members)
                # pointwise join of the set equals the ideal generator
                join = members[0]
                for phi in members[1:]:
                    join = join + phi + join * phi
                assert join == g

    def test_search_guard(self):
        space = SampleSpace('abcde')
        with pytest.raises(GuardError):
            ideal_scheme(PreclusionSet.explicit(space, []))


# re-taken when weight classes were scanned by descending table: `nodes` moved on 9 sets
IDEAL_RENDER_DIGEST = '351049f6e974951957ed45985d8aa10b297ded58eef8e059373bab194ed70a59'


class TestIdealCorpus:

    def test_seeded_n4_sets(self):
        space = SampleSpace('abcd')
        rng = random.Random(1914)
        for _ in range(200):
            density = rng.choice((0.1, 0.2, 0.3, 0.5, 0.7))
            p = PreclusionSet.explicit(
                space, [Event(space, a) for a in range(16) if rng.random() < density])
            universe = [ev for ev in space.events() if ev not in p]
            result = ideal_scheme(p)
            assert result.diagnostics['candidates'] == (1 << len(universe)) - 1
            if not universe:
                assert result.generating_sets == ()
                continue
            assert result.generating_sets
            for members in result.generating_sets:
                for ev in universe:  # the members' true sets cover the universe
                    assert any(phi(ev) for phi in members)
                assert all(phi.is_preclusive(p.events) for phi in members)
                assert sum(phi.complexity for phi in members) == result.total_complexity
            # the unital members leave uncovered exactly what they miss
            uncovered = [ev for ev in universe
                         if not any(phi(ev) for phi in result.coevents)]
            assert list(result.uncovered_by_unital) == sorted(
                uncovered, key=lambda ev: canonical_key(ev.bits))

    @pytest.mark.parametrize('precluded, diagnostics, total', [
        # nothing precluded: the empty event alone
        ((), {'candidates': 32767, 'nodes': 90, 'optimal_sets': 1}, 4),
        (('{b}', '{c}', '{d}'), {'candidates': 4095, 'nodes': 263, 'optimal_sets': 5}, 7),
        (('{a}', '{b}'), {'candidates': 8191, 'nodes': 15, 'optimal_sets': 1}, 4),
        (('{c}', '{a b c}', '{a b d}'),
         {'candidates': 4095, 'nodes': 36, 'optimal_sets': 4}, 6),
        (('{a b}', '{a b c}', '{a d}'),
         {'candidates': 4095, 'nodes': 84, 'optimal_sets': 2}, 8),
        (('{}', '{d}', '{a b d}'),
         {'candidates': 8191, 'nodes': 100, 'optimal_sets': 4}, 6),
    ])
    def test_pinned_search_counters(self, precluded, diagnostics, total):
        # values recorded from the solver before the word-parallel transform
        result = ideal_scheme(explicit(SampleSpace('abcd'), *precluded))
        assert dict(result.diagnostics) == diagnostics
        assert result.total_complexity == total

    def test_matches_full_scan_up_to_n3(self):
        # every set of nonempty events (the empty event is always precluded)
        count = 0
        for n in (1, 2, 3):
            space = SampleSpace('abc'[:n])
            for chosen in range(1 << ((1 << n) - 1)):
                p = PreclusionSet.explicit(
                    space, [Event(space, a) for a in bit_indices(chosen << 1)])
                reference = full_scan_ideal(p)
                assert ideal_fields(ideal_scheme(p)) == ideal_fields(reference), p.masks
                assert_order_free(p, reference, count)
                count += 1
        assert count == 138

    def test_matches_full_scan_seeded_n4(self):
        space = SampleSpace('abcd')
        named = [
            (),                                     # nothing precluded
            range(1, 15),                           # U = {full event}
            range(1, 16),                           # the whole space precluded
            [a for a in range(1, 16) if a != 6],    # |U| = 1, not unital
            [a for a in range(1, 16) if a not in (1, 14)],  # |U| = 2
            [a for a in range(1, 16) if a not in (3, 15)],  # |U| = 2, one unital
        ]
        rng = random.Random(606)
        seeded = [[a for a in range(1, 16) if rng.random() < density]
                  for density in (0.1, 0.2, 0.3, 0.5, 0.7, 0.9) * 50]
        sizes = set()
        for i, masks in enumerate(named + seeded):
            p = PreclusionSet.explicit(space, [Event(space, a) for a in masks])
            reference = full_scan_ideal(p)
            assert ideal_fields(ideal_scheme(p)) == ideal_fields(reference), p.masks
            if i < 20:  # within-class order: the answers do not depend on it
                assert_order_free(p, reference, i)
            sizes.add(16 - len(p))
        assert {0, 1, 2, 15} <= sizes

    def test_rendered_corpus_is_pinned(self):
        # text and JSON of 400 seeded sets at n = 1-4, the empty event
        # included; the digest was taken from the solver that built every
        # candidate's table and transform directly, before the half-tables,
        # and re-taken when uncovered_by_unital took canonical_key order
        rng = random.Random(1515)
        digest = hashlib.sha256()
        for k in range(400):
            n = 1 + k % 4
            space = SampleSpace('abcd'[:n])
            density = rng.choice((0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9))
            p = PreclusionSet.explicit(
                space, [Event(space, a) for a in range(1 << n) if rng.random() < density])
            result = ideal_scheme(p)
            digest.update(render_result(result).encode())
            digest.update(render_result(result, 'json').encode())
        assert digest.hexdigest() == IDEAL_RENDER_DIGEST

    def test_bit_plane_weights(self):
        # nothing precluded at n = 4: all 2^15 - 1 candidates
        space = SampleSpace('abcd')
        elements = list(range(1, 16))
        seen = 0
        weights = [w for w, _ in _weight_classes(elements, 4)]
        assert weights == sorted(set(weights))
        for weight, mask in _weight_classes(elements, 4):
            assert not seen & mask
            seen |= mask
            for c in bit_indices(mask):
                table = sum(1 << elements[j] for j in bit_indices(c))
                assert Coevent._from_table(space, table).complexity == weight
        assert seen == (1 << (1 << 15)) - 2


class TestInfer:

    def test_ab_correlation_inference(self, ab_correlation):
        space = ab_correlation.space
        result = multiplicative_scheme(ab_correlation.preclusion_set())
        a_fires = parse_event('{AB Ab}', space)
        b_fires = parse_event('{AB aB}', space)
        b_quiet = parse_event('{Ab ab}', space)
        assert infer(result, [(a_fires, 1)], b_fires) == ALWAYS_TRUE
        assert infer(result, [(a_fires, 1)], b_quiet) == ALWAYS_FALSE

    def test_some_slit_is_certain(self, three_slit):
        result = multiplicative_scheme(three_slit.preclusion_set())
        assert infer(result, [], three_slit.space.full) == ALWAYS_TRUE

    def test_contingent(self, two_slit):
        space = two_slit.space
        result = multiplicative_scheme(two_slit.preclusion_set())
        assert infer(result, [], parse_event('{g2}', space)) == CONTINGENT

    def test_vacuous(self, two_slit):
        space = two_slit.space
        result = multiplicative_scheme(two_slit.preclusion_set())
        given = [(parse_event('{g2}', space), 1), (parse_event('{g4}', space), 1)]
        assert infer(result, given, space.full) == VACUOUS

    def test_bad_bit(self, two_slit):
        result = multiplicative_scheme(two_slit.preclusion_set())
        with pytest.raises(ValueError):
            infer(result, [(two_slit.space.full, 2)], two_slit.space.full)
