"""Coevents as multilinear Z2 polynomials: evaluation, ring ops, text form."""

import random

import pytest

from coevents import (Coevent, GuardError, ParseError, PreclusionSet,
                      SampleSpace, SpaceMismatchError, classical, monomial,
                      parse_coevent, render_coevent)
from coevents.coevent import _anf, _lacking


def coevent_of_masks(space, masks):
    return Coevent._raw(space, frozenset(masks))


def test_constants(abc):
    zero = Coevent.zero(abc)
    one = Coevent.one(abc)
    assert zero.is_zero() and not zero.is_one()
    assert one.is_one() and not one.is_zero()
    for ev in abc.events():
        assert zero(ev) == 0
        assert one(ev) == 1


def test_monomial_evaluation(abc):
    # phi = F* is true exactly on supersets of F
    f = abc.event(['a', 'b'])
    phi = monomial(f)
    for ev in abc.events():
        assert phi(ev) == (1 if f.issubset(ev) else 0)


def test_classical_coevent(abc):
    gamma = abc.atom('b')
    phi = classical(gamma)
    assert phi.is_homomorphism()
    for ev in abc.events():
        assert phi(ev) == (1 if 'b' in ev else 0)
    with pytest.raises(ValueError):
        classical(abc.event(['a', 'b']))
    with pytest.raises(ValueError):
        classical(abc.empty)


def test_monomial_pair_cancellation(abc):
    f = abc.event(['a'])
    assert Coevent(abc, [f, f]).is_zero()
    assert Coevent(abc, [f, f, f]) == monomial(f)


def test_three_slit_linear_value(abc):
    # (a*+b*+c*)({a c}) = 1 + 0 + 1 = 0 mod 2
    phi = parse_coevent('a*+b*+c*', abc)
    assert phi(abc.event(['a', 'c'])) == 0
    assert phi(abc.event(['a'])) == 1
    assert phi(abc.full) == 1


def test_addition_is_pointwise(abc):
    rng = random.Random(11)
    masks = list(range(1 << abc.size))
    for _ in range(50):
        phi = coevent_of_masks(abc, rng.sample(masks, rng.randint(0, 8)))
        psi = coevent_of_masks(abc, rng.sample(masks, rng.randint(0, 8)))
        total = phi + psi
        for ev in abc.events():
            assert total(ev) == (phi(ev) + psi(ev)) % 2


def test_multiplication_is_pointwise(abc):
    rng = random.Random(12)
    masks = list(range(1 << abc.size))
    for _ in range(50):
        phi = coevent_of_masks(abc, rng.sample(masks, rng.randint(0, 8)))
        psi = coevent_of_masks(abc, rng.sample(masks, rng.randint(0, 8)))
        product = phi * psi
        for ev in abc.events():
            assert product(ev) == phi(ev) * psi(ev)


def test_idempotence(abc):
    rng = random.Random(13)
    masks = list(range(1 << abc.size))
    for _ in range(20):
        phi = coevent_of_masks(abc, rng.sample(masks, rng.randint(0, 8)))
        assert phi * phi == phi
        assert phi + phi == Coevent.zero(abc)


def test_from_truth_table_round_trip(xy):
    # all 16 truth tables over a 2-history space
    events = list(xy.events())
    for pattern in range(16):
        table = {ev.bits: pattern >> ev.bits & 1 for ev in events}
        phi = Coevent.from_truth_table(xy, lambda ev: table[ev.bits])
        assert [phi(ev) for ev in events] == [table[ev.bits] for ev in events]


def subset_parity(table, n):
    """ANF of a truth table by the definition: the coefficient of F is the
    parity of the table over the subsets of F."""
    anf = 0
    for f in range(1 << n):
        parity = sum(table >> s & 1 for s in range(1 << n) if s & f == s) & 1
        anf |= parity << f
    return anf


def test_anf_kernel_matches_subset_parity():
    rng = random.Random(31)
    corpus = [(3, t) for t in range(1 << 8)]
    corpus += [(4, rng.getrandbits(16)) for _ in range(2000)]
    for n, table in corpus:
        anf = _anf(table, n)
        assert anf == subset_parity(table, n), (n, table)
        assert _anf(anf, n) == table  # the transform is its own inverse
    space = SampleSpace('abcd')
    for n, table in corpus[-200:]:
        phi = Coevent.from_truth_table(space, lambda ev: table >> ev.bits & 1)
        expected = subset_parity(table, n)
        assert phi.masks == {f for f in range(1 << n) if expected >> f & 1}


def test_lacking_families():
    for n in range(1, 7):
        families = _lacking(n)
        assert len(families) == n
        for i, family in enumerate(families):
            assert family == sum(1 << a for a in range(1 << n) if not a >> i & 1)


def test_from_truth_table_queries_every_event_in_order(abc):
    asked = []
    phi = Coevent.from_truth_table(abc, lambda ev: asked.append(ev.bits) or ev.bits == 7)
    assert asked == list(range(8))
    assert phi == monomial(abc.full)
    assert Coevent.from_truth_table(abc, lambda ev: True) == Coevent.one(abc)
    assert Coevent.from_truth_table(abc, lambda ev: False) == Coevent.zero(abc)


def test_from_truth_table_rejects_bad_values(xy):
    with pytest.raises(ValueError):
        Coevent.from_truth_table(xy, lambda ev: 2)


def test_truth_table_guard():
    big = SampleSpace(f'h{i}' for i in range(17))
    with pytest.raises(GuardError):
        Coevent.from_truth_table(big, lambda ev: 0)


def test_monomials_canonical_order(abc):
    phi = parse_coevent('a*b*+c*+b*+1', abc)
    # degree first, then index tuple
    assert [m.labels for m in phi.monomials] == [(), ('b',), ('c',), ('a', 'b')]
    assert str(phi) == '1+b*+c*+a*b*'


def test_support_and_complexity(abc):
    phi = parse_coevent('a*+b*c*', abc)
    assert phi.support == abc.full
    assert phi.complexity == 3
    assert Coevent.zero(abc).complexity == 0
    assert Coevent.one(abc).complexity == 0
    assert Coevent.one(abc).support == abc.empty


def test_predicates(abc):
    linear = parse_coevent('a*+b*+c*', abc)
    assert linear.is_linear() and linear.is_unital()
    assert not linear.is_multiplicative()

    mono = parse_coevent('a*b*', abc)
    assert mono.is_multiplicative() and not mono.is_linear()
    assert mono.is_unital()

    atom = parse_coevent('b*', abc)
    assert atom.is_homomorphism()
    assert atom.is_linear() and atom.is_multiplicative() and atom.is_unital()

    assert Coevent.one(abc).is_multiplicative()
    assert not Coevent.one(abc).is_homomorphism()
    assert Coevent.zero(abc).is_linear()  # empty sum of atoms
    assert not Coevent.zero(abc).is_unital()


def test_unital_is_the_monomial_parity():
    rng = random.Random(15)
    for n in range(1, 9):
        space = SampleSpace([f'h{i}' for i in range(n)])
        for _ in range(40):
            masks = {rng.getrandbits(n) for _ in range(rng.randint(0, 12))}
            phi = coevent_of_masks(space, masks)
            assert phi.is_unital() == (phi(space.full) == 1)


def test_is_preclusive(abc):
    precluded = [abc.event(['a', 'c']), abc.event(['b', 'c'])]
    assert parse_coevent('a*b*', abc).is_preclusive(precluded)
    assert not parse_coevent('a*', abc).is_preclusive(precluded)


def test_is_preclusive_on_a_preclusion_set(abc, xy):
    # the bitmask path agrees with evaluating on the listed events
    rng = random.Random(8)
    masks = list(range(1 << abc.size))
    for _ in range(200):
        p = PreclusionSet.explicit(
            abc, [ev for ev in abc.events() if rng.random() < 0.3])
        phi = coevent_of_masks(abc, rng.sample(masks, rng.randint(0, 4)))
        assert phi.is_preclusive(p) == phi.is_preclusive(list(p.events))
    with pytest.raises(SpaceMismatchError):
        classical(xy.atom('x')).is_preclusive(PreclusionSet.explicit(abc, []))


def test_render(abc):
    assert render_coevent(Coevent.zero(abc)) == '0'
    assert render_coevent(Coevent.one(abc)) == '1'
    assert render_coevent(monomial(abc.event(['c', 'a']))) == 'a*c*'
    assert repr(monomial(abc.event(['c', 'a']))) == "Coevent('a*c*')"


def test_parse_render_round_trip(xy):
    masks = list(range(1 << xy.size))
    for pick in range(1 << len(masks)):
        phi = coevent_of_masks(xy, (m for m in masks if pick >> m & 1))
        assert parse_coevent(render_coevent(phi), xy) == phi


def test_parse_term_cancellation(abc):
    assert parse_coevent('a*+a*', abc).is_zero()
    assert parse_coevent('a*a*', abc) == parse_coevent('a*', abc)  # idempotent
    assert parse_coevent('1+1+b*', abc) == parse_coevent('b*', abc)


COEVENT_PARSE_ERRORS = {
    '': ('empty coevent text', 0),
    '0+a*': ("'0' cannot appear as a term", 0),
    'a': ("term must be '1' or labels each followed by '*'", 0),
    'a*+': ('empty term in coevent sum', 3),
    '+a*': ('empty term in coevent sum', 0),
    'q*': ("unknown history label 'q'", 0),
    'a**': ("missing label before '*'", 2),
    'a *b*': ('whitespace inside a term', 0),
    'a*1': ("term must be '1' or labels each followed by '*'", 2),
    '1a*': ("unknown history label '1a'", 0),
    'a+b': ("term must be '1' or labels each followed by '*'", 0),
    ' a* + b*q*': ("unknown history label 'q'", 8),
    '  1+ +a*': ('empty term in coevent sum', 5),
    'a*+  ': ('empty term in coevent sum', 3),
}


@pytest.mark.parametrize('bad', list(COEVENT_PARSE_ERRORS))
def test_parse_errors(bad, abc):
    with pytest.raises(ParseError) as info:
        parse_coevent(bad, abc)
    assert (info.value.message, info.value.position) == COEVENT_PARSE_ERRORS[bad]


def test_parse_error_position(abc):
    with pytest.raises(ParseError) as info:
        parse_coevent('a*+q*', abc)
    assert info.value.position == 3
