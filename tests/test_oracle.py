"""The brute-force oracle itself, cross-checked against structural facts.

Truth tables here are raw 2^n-bit integers (bit position = event bitmask),
so these tests exercise a code path that shares nothing with the solvers
beyond the Coevent type.
"""

import hashlib
import random

import pytest

from coevents import Event, GuardError, SampleSpace, ideal_generator, ideal_scheme
from coevents import oracle
from coevents.measure import PreclusionSet


def test_table_round_trip(abc):
    n_events = 1 << abc.size
    for table in range(1 << n_events):
        phi = oracle.coevent_from_table(abc, table)
        assert oracle.table_of(phi) == table


def test_enumeration_counts():
    assert sum(1 for _ in oracle.enumerate_coevents(SampleSpace('a'))) == 4
    assert sum(1 for _ in oracle.enumerate_coevents(SampleSpace('ab'))) == 16
    assert sum(1 for _ in oracle.enumerate_coevents(SampleSpace('abc'))) == 256


def test_enumeration_guard():
    with pytest.raises(GuardError):
        next(oracle.enumerate_coevents(SampleSpace('abcde')))


def test_pairwise_multiplicative_matches_structure(abc):
    # the definitional check agrees with "zero or a single monomial"
    n_events = 1 << abc.size
    for table in range(1 << n_events):
        phi = oracle.coevent_from_table(abc, table)
        assert oracle.pairwise_multiplicative(table, n_events) == phi.is_multiplicative()


def test_pairwise_linear_matches_structure(abc):
    n_events = 1 << abc.size
    for table in range(1 << n_events):
        phi = oracle.coevent_from_table(abc, table)
        assert oracle.pairwise_linear(table, n_events) == phi.is_linear()


def test_anf_weight_matches_complexity(abc):
    n_events = 1 << abc.size
    for table in range(1 << n_events):
        phi = oracle.coevent_from_table(abc, table)
        assert oracle._anf_weight(table, n_events) == phi.complexity


def test_brute_multiplicative_three_slit(three_slit):
    found = oracle.brute_multiplicative(three_slit.preclusion_set())
    assert [str(phi) for phi in found] == ['a*b*']
    assert all(phi.is_multiplicative() for phi in found)


def test_brute_linear_two_slit(two_slit):
    found = oracle.brute_linear(two_slit.preclusion_set())
    assert [str(phi) for phi in found] == ['g2*', 'g4*']


def test_brute_guards():
    space = SampleSpace('abcde')
    p = PreclusionSet.explicit(space, [])
    with pytest.raises(GuardError):
        oracle.brute_multiplicative(p)
    with pytest.raises(GuardError):
        oracle.brute_linear(p)
    small = PreclusionSet.explicit(SampleSpace('abcd'), [])
    with pytest.raises(GuardError):
        oracle.brute_min_cover(small)
    with pytest.raises(GuardError):
        oracle.brute_ideal_closure(SampleSpace('abcd'), [])


def test_principal_ideal(three_slit):
    # the preclusive coevents form exactly the ideal generated by g
    p = three_slit.preclusion_set()
    space = three_slit.space
    g = ideal_generator(p)
    closure = oracle.brute_ideal_closure(space, [g])
    g_table = oracle.table_of(g)
    preclusive = {t for t in range(1 << (1 << space.size)) if t & ~g_table == 0}
    assert {oracle.table_of(phi) for phi in closure} == preclusive
    assert len(closure) == 32


def test_generating_set_generates_the_whole_ideal(three_slit):
    p = three_slit.preclusion_set()
    space = three_slit.space
    result = ideal_scheme(p)
    g = ideal_generator(p)
    closure = oracle.brute_ideal_closure(space, list(result.generating_sets[0]))
    assert closure == oracle.brute_ideal_closure(space, [g])


def test_brute_min_cover_three_slit(three_slit):
    sets, weight = oracle.brute_min_cover(three_slit.preclusion_set())
    assert weight == 5
    assert [[str(phi) for phi in s] for s in sets] == [['a*+b*+c*', 'a*b*']]


def test_brute_min_cover_empty_universe():
    space = SampleSpace('x')
    p = PreclusionSet.explicit(space, list(space.events()))
    sets, weight = oracle.brute_min_cover(p)
    assert sets == () and weight is None


ORACLE_ANSWER_DIGEST = 'ff18fbaa41d24d6d2c9b279dc345f2736ea9915caa9b550521655c684e54b556'


def _oracle_corpus():
    """Seeded preclusion sets: 30 at n = 1-3, 6 at n = 4 with three
    precluded events, and at n = 2 nothing but {} and everything."""
    rng = random.Random(2202)
    corpus = []
    for i in range(30):
        space = SampleSpace('abc'[:i % 3 + 1])
        density = rng.choice((0.1, 0.3, 0.5, 0.7))
        masks = [m for m in range(1 << space.size) if rng.random() < density]
        corpus.append(PreclusionSet.explicit(space, [Event(space, m) for m in masks]))
    space = SampleSpace('abcd')
    for _ in range(6):
        masks = rng.sample(range(1, 16), 3)
        corpus.append(PreclusionSet.explicit(space, [Event(space, m) for m in masks]))
    space = SampleSpace('ab')
    corpus.append(PreclusionSet.explicit(space, []))
    corpus.append(PreclusionSet.explicit(space, list(space.events())))
    return corpus


def test_oracle_answers_pinned():
    digest = hashlib.sha256()
    for p in _oracle_corpus():
        digest.update(f'{p!r}\n'.encode())
        if p.space.size <= 3:  # the walk yields each preclusive table once
            pmask = sum(1 << z for z in p.masks)
            walk = list(oracle._preclusive_tables(p, 'CLOSURE_GUARD', oracle.CLOSURE_GUARD))
            assert sorted(walk) == [t for t in range(1 << (1 << p.space.size))
                                    if t & pmask == 0]
            if p.precludes_everything():
                assert walk == [0]
        for solve in (oracle.brute_multiplicative, oracle.brute_linear):
            digest.update((' '.join(map(str, solve(p))) + '\n').encode())
        if p.space.size <= oracle.CLOSURE_GUARD:
            sets, weight = oracle.brute_min_cover(p)
            rendered = ' | '.join(' '.join(map(str, s)) for s in sets)
            digest.update(f'{rendered} ; {weight}\n'.encode())
    assert digest.hexdigest() == ORACLE_ANSWER_DIGEST
