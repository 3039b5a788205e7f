"""Exact complex rationals, decoherence matrices, and preclusion sets."""

from fractions import Fraction

import pytest

from coevents import (DecoherenceMatrix, GaussianRational, GuardError,
                      ParseError, PreclusionSet, SampleSpace,
                      SpaceMismatchError, parse_complex, render_complex)
from coevents import measure


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


class TestGaussianRational:

    def test_arithmetic(self):
        a = gr(1, 2)
        b = gr(3, -1)
        assert a + b == gr(4, 1)
        assert a - b == gr(-2, 3)
        assert a * b == gr(5, 5)  # (1+2i)(3-i) = 3 - i + 6i + 2 = 5 + 5i
        assert a / b == gr(Fraction(1, 10), Fraction(7, 10))
        assert (a / b) * b == a
        assert -a == gr(-1, -2)

    def test_mixed_scalars(self):
        assert gr(1, 1) + 1 == gr(2, 1)
        assert 2 * gr(1, 1) == gr(2, 2)
        assert gr(1) * Fraction(1, 2) == gr(Fraction(1, 2))
        assert 1 - gr(0, 1) == gr(1, -1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gr(1) / gr(0)

    def test_conjugate_and_norm(self):
        a = gr(2, -3)
        assert a.conjugate() == gr(2, 3)
        assert a.norm_squared() == 13
        assert (a * a.conjugate()) == gr(13)

    def test_zero_test(self):
        assert gr(0).is_zero()
        assert not gr(0, 1).is_zero()
        assert not bool(gr(0))
        assert bool(gr(1))


@pytest.mark.parametrize('text,expected', [
    ('1', gr(1)),
    ('-1/2', gr(Fraction(-1, 2))),
    ('3/2-1/2i', gr(Fraction(3, 2), Fraction(-1, 2))),
    ('2i', gr(0, 2)),
    ('-1i', gr(0, -1)),
    ('1/3i', gr(0, Fraction(1, 3))),
    ('0', gr(0)),
    ('1+1i', gr(1, 1)),
])
def test_parse_complex(text, expected):
    assert parse_complex(text) == expected


@pytest.mark.parametrize('value,text', [
    (gr(1), '1'),
    (gr(Fraction(-1, 2)), '-1/2'),
    (gr(Fraction(3, 2), Fraction(-1, 2)), '3/2-1/2i'),
    (gr(0, 2), '2i'),
    (gr(0), '0'),
])
def test_render_complex(value, text):
    assert render_complex(value) == text
    assert parse_complex(text) == value


@pytest.mark.parametrize('bad', [
    '', 'x', '1/0', '1+', '1+2', '2i+1', '1//2', '1.5',
    'i', '-i',  # the imaginary coefficient is always written out
])
def test_parse_complex_errors(bad):
    with pytest.raises(ParseError):
        parse_complex(bad)


def two_slit_matrix():
    space = SampleSpace(['g1', 'g2', 'g3', 'g4'])
    return space, DecoherenceMatrix.from_amplitudes(
        space, [1, 1, -1, 1],
        [space.event(['g1', 'g3']), space.event(['g2', 'g4'])])


class TestDecoherenceMatrix:

    def test_from_amplitudes_entries(self):
        space, d = two_slit_matrix()
        assert d.entry(0, 2) == gr(-1)   # same block
        assert d.entry(0, 1) == gr(0)    # across blocks
        assert d.entry(1, 3) == gr(1)
        assert d.entry(2, 2) == gr(1)

    def test_hermitian_enforced(self):
        space = SampleSpace(['x', 'y'])
        with pytest.raises(ValueError):
            DecoherenceMatrix(space, [[gr(0), gr(1)], [gr(2), gr(0)]])
        with pytest.raises(ValueError):
            # diagonal must be real
            DecoherenceMatrix(space, [[gr(0, 1), gr(0)], [gr(0), gr(0)]])
        with pytest.raises(ValueError):
            DecoherenceMatrix(space, [[gr(0)]])  # wrong shape

    def test_complex_off_diagonal(self):
        space = SampleSpace(['x', 'y'])
        d = DecoherenceMatrix(space, [[gr(1), gr(0, 1)], [gr(0, -1), gr(1)]])
        assert d.entry(0, 1).conjugate() == d.entry(1, 0)

    def test_block_validation(self):
        space = SampleSpace(['x', 'y'])
        with pytest.raises(ValueError):
            DecoherenceMatrix.from_amplitudes(space, [1, 1], [space.event(['x'])])
        with pytest.raises(ValueError):
            DecoherenceMatrix.from_amplitudes(
                space, [1, 1], [space.full, space.event(['x'])])
        with pytest.raises(ValueError):
            DecoherenceMatrix.from_amplitudes(space, [1])

    def test_two_slit_measure(self):
        space, d = two_slit_matrix()
        assert d.measure(space.event(['g1'])) == 1
        assert d.measure(space.event(['g1', 'g3'])) == 0  # cancellation
        assert d.measure(space.event(['g2', 'g4'])) == 4
        assert d.measure(space.full) == 4
        assert isinstance(d.measure(space.full), Fraction)

    def test_two_slit_preclusions(self):
        space, d = two_slit_matrix()
        p = d.preclusions()
        assert p.provenance == 'measure'
        assert [str(ev) for ev in p.events] == ['{}', '{g1 g3}']

    def test_three_slit_measure(self, abc):
        d = DecoherenceMatrix.from_amplitudes(abc, [1, 1, -1])
        assert d.measure(abc.event(['a', 'b'])) == 4  # enhancement
        assert d.measure(abc.event(['a', 'c'])) == 0
        assert d.measure(abc.full) == 1
        assert [str(ev) for ev in d.preclusions().events] == ['{}', '{a c}', '{b c}']

    def test_measure_space_mismatch(self, xy):
        _, d = two_slit_matrix()
        with pytest.raises(SpaceMismatchError):
            d.measure(xy.full)

    def test_strong_positivity_of_amplitude_matrices(self, abc):
        _, d = two_slit_matrix()
        assert d.is_strongly_positive()
        assert DecoherenceMatrix.from_amplitudes(abc, [1, 1, -1]).is_strongly_positive()

    def test_indefinite_matrix_detected(self, xy):
        d = DecoherenceMatrix(xy, [[gr(1), gr(0)], [gr(0), gr(-1)]])
        assert not d.is_strongly_positive()

    def test_absorption_follows_positivity_here(self):
        _, d = two_slit_matrix()
        assert d.null_absorption_holds()

    def test_absorption_can_fail_without_positivity(self, xy):
        # mu({x}) = mu({y}) = 0 but mu({x y}) = 2: unions resurrect nulls
        d = DecoherenceMatrix(xy, [[gr(0), gr(1)], [gr(1), gr(0)]])
        assert not d.is_strongly_positive()
        assert not d.null_absorption_holds()


def over_guard_matrix():
    n = measure.MEASURE_GUARD + 1
    space = SampleSpace(f'h{i}' for i in range(n))
    return DecoherenceMatrix.from_amplitudes(space, [1, -1] * (n // 2) + [1] * (n % 2))


@pytest.mark.parametrize('method, work', [
    ('preclusions', 'preclusion derivation'),
    ('is_strongly_positive', 'strong-positivity check'),
    ('null_absorption_holds', 'null-absorption check'),
])
class TestMeasureGuard:

    def test_refused_on_entry(self, method, work):
        # 15 histories: the unguarded enumeration would run for minutes
        with pytest.raises(GuardError) as excinfo:
            getattr(over_guard_matrix(), method)()
        assert str(excinfo.value) == (
            f'{work} over 15 histories would enumerate 2^15 = 32768 events, '
            'past MEASURE_GUARD of 14 histories')

    def test_guard_is_inclusive(self, method, work, monkeypatch):
        monkeypatch.setattr(measure, 'MEASURE_GUARD', 4)
        _, d = two_slit_matrix()  # n = 4 is still allowed
        getattr(d, method)()
        d5 = DecoherenceMatrix.from_amplitudes(SampleSpace('abcde'), [1, 1, -1, 1, 2])
        with pytest.raises(GuardError, match='past MEASURE_GUARD of 4 histories'):
            getattr(d5, method)()


class TestPreclusionSet:

    def test_always_contains_empty(self, abc):
        p = PreclusionSet.explicit(abc, [])
        assert abc.empty in p
        assert len(p) == 1

    def test_events_sorted(self, abc):
        p = PreclusionSet.explicit(
            abc, [abc.event(['b', 'c']), abc.event(['a']), abc.event(['a', 'c'])])
        assert [str(ev) for ev in p.events] == ['{}', '{a}', '{a c}', '{b c}']
        assert list(p) == list(p.events)
        assert p.events is p.events  # sorted once

    def test_membership(self, abc):
        p = PreclusionSet.explicit(abc, [abc.event(['a'])])
        assert abc.event(['a']) in p
        assert abc.event(['b']) not in p

    def test_space_mismatch(self, abc, xy):
        with pytest.raises(SpaceMismatchError):
            PreclusionSet.explicit(abc, [xy.full])

    def test_equality_ignores_provenance(self, abc):
        ev = abc.event(['a', 'c'])
        a = PreclusionSet(abc, [ev], provenance='explicit')
        b = PreclusionSet(abc, [ev], provenance='measure')
        assert a == b
        assert hash(a) == hash(b)

    def test_precludes_everything(self):
        space = SampleSpace(['x'])
        assert PreclusionSet.explicit(space, [space.full]).precludes_everything()
        assert not PreclusionSet.explicit(space, []).precludes_everything()

    def test_classical_power_set(self, abc):
        members = [abc.empty, abc.event(['a']), abc.event(['b']), abc.event(['a', 'b'])]
        assert PreclusionSet.explicit(abc, members).is_classical()
        assert PreclusionSet.explicit(abc, []).is_classical()  # power set of {}

    def test_downward_closed_but_not_classical(self, abc):
        # missing the union {a b}: downward closed yet not a power set
        p = PreclusionSet.explicit(abc, [abc.event(['a']), abc.event(['b'])])
        assert not p.is_classical()

    def test_interference_pattern_not_classical(self, three_slit):
        assert not three_slit.preclusion_set().is_classical()
