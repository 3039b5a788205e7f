"""Exact complex rationals, decoherence matrices, and preclusion sets."""

import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from coevents import (DecoherenceMatrix, GaussianRational, GuardError,
                      ParseError, PreclusionSet, SampleSpace,
                      SpaceMismatchError, parse_complex, render_complex)
from coevents import measure
from coevents.events import Event, bit_indices


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


class TestGaussianRational:

    def test_value_semantics(self):
        a = gr(2, -3)
        assert a.conjugate() == gr(2, 3)
        assert a == GaussianRational(2, -3)
        assert hash(a) == hash(GaussianRational(2, -3))
        assert isinstance(GaussianRational(2).re, Fraction)
        assert str(a) == '2-3i'

    def test_carries_no_arithmetic(self):
        # computations read the Fraction parts; the value only parses and renders
        with pytest.raises(TypeError):
            gr(1, 2) + gr(3, -1)
        with pytest.raises(TypeError):
            2 * gr(1, 1)


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


@pytest.mark.parametrize('text, position', [
    ('1' * 5000, 0),
    ('-1/' + '7' * 5000, 0),
    ('1+' + '2' * 5000 + 'i', 2),
], ids=['numerator', 'denominator', 'imaginary'])
def test_over_long_number_is_a_parse_error(text, position):
    # past int's digit limit for str conversion (4,300 by default)
    with pytest.raises(ParseError) as excinfo:
        parse_complex(text)
    assert excinfo.value.position == position
    assert 'digits' in excinfo.value.message


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
        assert repr(d) == "DecoherenceMatrix(SampleSpace(['g1', 'g2', 'g3', 'g4']), 4x4)"

    def test_hermitian_enforced(self):
        space = SampleSpace(['x', 'y'])
        with pytest.raises(ValueError):
            DecoherenceMatrix(space, [[gr(0), gr(1)], [gr(2), gr(0)]])
        with pytest.raises(ValueError):
            # diagonal must be real
            DecoherenceMatrix(space, [[gr(0, 1), gr(0)], [gr(0), gr(0)]])
        with pytest.raises(ValueError):
            DecoherenceMatrix(space, [[gr(0)]])  # wrong shape

    def test_hermitian_message_names_the_first_violation(self, abc):
        rows = [[gr(1), gr(0), gr(2)], [gr(0), gr(1), gr(0)], [gr(3), gr(0), gr(0, 1)]]
        with pytest.raises(ValueError) as excinfo:
            DecoherenceMatrix(abc, rows)
        assert str(excinfo.value) == 'matrix is not Hermitian at (0, 2)'
        with pytest.raises(ValueError) as excinfo:
            DecoherenceMatrix(SampleSpace(['x']), [[gr(0, 1)]])
        assert str(excinfo.value) == 'matrix is not Hermitian at (0, 0)'

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
        assert d.measure(space.empty) == 0
        assert isinstance(d.measure(space.empty), Fraction)  # not the int 0 of a bare sum

    @pytest.mark.parametrize('bad', [0.5, '1', 0.1, '1/3'])
    def test_inexact_entries_refused(self, xy, bad):
        with pytest.raises(TypeError):
            DecoherenceMatrix(xy, [[bad, gr(0)], [gr(0), gr(1)]])
        with pytest.raises(TypeError):
            DecoherenceMatrix.from_amplitudes(xy, [1, bad])
        # GaussianRational itself refuses, so no float reaches a matrix wrapped in one
        with pytest.raises(TypeError, match='as a Gaussian rational'):
            GaussianRational(bad)
        with pytest.raises(TypeError, match='as a Gaussian rational'):
            GaussianRational(1, bad)

    def test_two_slit_preclusions(self):
        space, d = two_slit_matrix()
        p = d.preclusions()
        assert [str(ev) for ev in p.events] == ['{}', '{g1 g3}']

    def test_preclusions_derived_once(self):
        _, d = two_slit_matrix()
        assert d.preclusions() is d.preclusions()

    def test_absorption_reuses_the_preclusions(self, monkeypatch):
        _, d = two_slit_matrix()
        d.preclusions()
        calls = []
        original = DecoherenceMatrix.measure
        monkeypatch.setattr(DecoherenceMatrix, 'measure',
                            lambda self, ev: calls.append(ev) or original(self, ev))
        assert d.null_absorption_holds()
        assert calls == []

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

    def test_one_by_one_negative_is_not_positive(self):
        assert not DecoherenceMatrix(SampleSpace(['x']), [[gr(-1)]]).is_strongly_positive()
        assert DecoherenceMatrix(SampleSpace(['x']), [[gr(0)]]).is_strongly_positive()

    def test_zero_diagonal_with_a_nonzero_row_is_not_positive(self, abc):
        # minor {a, b} is 0*5 - |i|^2 = -1, though every diagonal entry is >= 0
        d = DecoherenceMatrix(abc, [[gr(0), gr(0, 1), gr(0)],
                                    [gr(0, -1), gr(5), gr(0)],
                                    [gr(0), gr(0), gr(1)]])
        assert not d.is_strongly_positive()
        # a zero diagonal entry whose whole row is zero is fine
        d = DecoherenceMatrix(abc, [[gr(0), gr(0), gr(0)],
                                    [gr(0), gr(5), gr(1)],
                                    [gr(0), gr(1), gr(1)]])
        assert d.is_strongly_positive()

    def test_zero_pivot_midway(self, abc):
        # (1, 1, 1)(1, 1, 1)^H + e_c e_c^H: eliminating a leaves a zero pivot
        # at b with a zero row, then pivot 1 at c
        d = DecoherenceMatrix(abc, [[gr(1), gr(1), gr(1)],
                                    [gr(1), gr(1), gr(1)],
                                    [gr(1), gr(1), gr(2)]])
        assert d.is_strongly_positive()
        # the same zero pivot with 1 left in its row: minor {b c} is 1*3 - 4
        d = DecoherenceMatrix(abc, [[gr(1), gr(1), gr(1)],
                                    [gr(1), gr(1), gr(2)],
                                    [gr(1), gr(2), gr(3)]])
        assert not d.is_strongly_positive()

    def test_positivity_at_the_guard_is_fast(self):
        # n = MEASURE_GUARD has 16,383 principal minors; one elimination
        # over a full-rank complex matrix must stay well inside 2 s
        n = measure.MEASURE_GUARD
        space = SampleSpace(f'h{i}' for i in range(n))
        amps = [(i % 3 - 1, i % 2) for i in range(n)]
        # α_i conj(α_j), plus i + 1 on the diagonal
        rows = [[gr(a * x + b * y + (i + 1 if i == j else 0), b * x - a * y)
                 for j, (x, y) in enumerate(amps)] for i, (a, b) in enumerate(amps)]
        d = DecoherenceMatrix(space, rows)
        start = time.perf_counter()
        assert d.is_strongly_positive()
        assert time.perf_counter() - start < 2.0
        rows[n - 1][n - 1] = gr(-1)  # drop the last diagonal entry by n + 1 + |α|²
        assert not DecoherenceMatrix(space, rows).is_strongly_positive()

    def test_absorption_follows_positivity_here(self):
        _, d = two_slit_matrix()
        assert d.null_absorption_holds()

    def test_absorption_can_fail_without_positivity(self, xy):
        # mu({x}) = mu({y}) = 0 but mu({x y}) = 2: unions resurrect nulls
        d = DecoherenceMatrix(xy, [[gr(0), gr(1)], [gr(1), gr(0)]])
        assert not d.is_strongly_positive()
        assert not d.null_absorption_holds()

    def test_third_history_resurrects_a_null_pair(self, abc):
        # mu({a b}) = 0 with non-null members; Re(D_ca + D_cb) = 1, so
        # mu({a b c}) = 3 differs from mu({c}) = 1
        d = DecoherenceMatrix(abc, [[gr(1), gr(-1), gr(1)],
                                    [gr(-1), gr(1), gr(0)],
                                    [gr(1), gr(0), gr(1)]])
        assert d.measure(abc.event(['a', 'b'])) == 0
        assert d.measure(abc.full) != d.measure(abc.event(['c']))
        assert not d.is_strongly_positive()
        assert not d.null_absorption_holds()

    def test_absorption_is_not_a_positivity_proxy(self, abc):
        # {a b} is null and D_ca + D_cb = i has zero real part, so every
        # union with the null keeps its measure; D.1_{a b} = (0, 0, i) is not
        # zero, so D is not PSD, though every diagonal entry is positive
        d = DecoherenceMatrix(abc, [[gr(1), gr(-1), gr(0, -1)],
                                    [gr(-1), gr(1), gr(0)],
                                    [gr(0, 1), gr(0), gr(1)]])
        assert not d.is_strongly_positive()
        assert d.null_absorption_holds()
        # indefinite with its null cut off from the rest: absorbs as well
        d = DecoherenceMatrix(abc, [[gr(1), gr(-1), gr(1)],
                                    [gr(-1), gr(1), gr(-1)],
                                    [gr(1), gr(-1), gr(-1)]])
        assert not d.is_strongly_positive()
        assert d.null_absorption_holds()


def indefinite_diagonal(n):
    """diag(1, -1, 1, ...) over n histories: entry-built and not PSD, so
    absorption needs the nulls as the derivation does."""
    space = SampleSpace(f'h{i}' for i in range(n))
    return DecoherenceMatrix(space, [[gr((-1) ** i if i == j else 0) for j in range(n)]
                                     for i in range(n)])


def over_guard_matrix():
    return indefinite_diagonal(measure.MEASURE_GUARD + 1)


@pytest.mark.parametrize('method, work', [
    ('preclusions', 'preclusion derivation'),
    ('null_absorption_holds', 'null-absorption check'),
])
class TestMeasureGuard:

    def test_refused_on_entry(self, method, work):
        # 15 histories: the unguarded enumeration would run for minutes
        with pytest.raises(GuardError) as excinfo:
            getattr(over_guard_matrix(), method)()
        assert str(excinfo.value) == (
            f'{work}: 15 histories, past MEASURE_GUARD = 14 (2^15 = 32768 events)')

    def test_guard_is_inclusive(self, method, work, monkeypatch):
        monkeypatch.setattr(measure, 'MEASURE_GUARD', 4)
        getattr(indefinite_diagonal(4), method)()  # n = 4 is still allowed
        with pytest.raises(GuardError) as excinfo:
            getattr(indefinite_diagonal(5), method)()
        assert str(excinfo.value) == (
            f'{work}: 5 histories, past MEASURE_GUARD = 4 (2^5 = 32 events)')


@pytest.mark.parametrize('sizes', [(15,), (5, 5, 5)], ids=['one block', 'three blocks'])
def test_amplitude_guard_counts_nulls(sizes):
    # 15 zero amplitudes make all 2^15 events null, twice the most that
    # 14 histories can give; the block counts multiply to that total
    space = SampleSpace(f'h{i}' for i in range(15))
    starts = [sum(sizes[:k]) for k in range(len(sizes) + 1)]
    blocks = [Event(space, (1 << b) - (1 << a)) for a, b in zip(starts, starts[1:])]
    d = DecoherenceMatrix.from_amplitudes(space, [0] * 15, blocks)
    with pytest.raises(GuardError) as excinfo:
        d.preclusions()
    assert str(excinfo.value) == (
        'preclusion derivation: 32768 null events, past 2^MEASURE_GUARD = 16384')
    # PSD, so absorption holds without the nulls, and without the entries
    assert d.null_absorption_holds()
    assert d._entries is None
    # one nonzero amplitude leaves 2^14 nulls, the most admitted
    d = DecoherenceMatrix.from_amplitudes(space, [0] * 14 + [1], blocks)
    assert len(d.preclusions()) == 1 << 14


def test_positivity_answers_past_the_measure_guard():
    # one O(n^3) elimination: no enumeration, so MEASURE_GUARD does not apply
    n = 24
    space = SampleSpace(f'h{i}' for i in range(n))
    # Hermitian and diagonally dominant, so positive definite (full rank)
    rows = [[gr(2 * n) if i == j else gr(1, 1 if i < j else -1) for j in range(n)]
            for i in range(n)]
    start = time.perf_counter()
    assert DecoherenceMatrix(space, rows).is_strongly_positive()
    rows[n - 1][n - 1] = gr(-1)
    assert not DecoherenceMatrix(space, rows).is_strongly_positive()
    assert time.perf_counter() - start < 2


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

    def test_derived_equals_declared(self):
        space, d = two_slit_matrix()
        declared = PreclusionSet(space, [space.event(['g1', 'g3'])])
        assert d.preclusions() == declared
        assert hash(d.preclusions()) == hash(declared)
        assert repr(declared) == 'PreclusionSet([{}, {g1 g3}])'

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


# -- exhaustive references ---------------------------------------------------
#
# The principal-minor and subset-walk checks that `DecoherenceMatrix` used
# before its one elimination and its row-sum test, and the measure as the
# double sum 1_A^T D 1_A.  `is_strongly_positive`, `null_absorption_holds`
# and `preclusions` must agree with them on the corpus below.  They compute
# on (re, im) pairs of Fractions with the arithmetic written out here, so
# they share no code with the module under test.

ZERO = (Fraction(0), Fraction(0))


def _pair(value):
    return (value.re, value.im)


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _conj(a):
    return (a[0], -a[1])


def _div(a, b):
    num = _mul(a, _conj(b))
    norm = b[0] * b[0] + b[1] * b[1]
    return (num[0] / norm, num[1] / norm)


def reference_measures(d):
    """μ(A) for every event mask A; each is real.

    On the entries times the lcm s of their denominators, 1_A^T D 1_A for
    A with lowest member k is the value for A without k, plus D_kk, plus
    D_kj + D_jk for every other member j."""
    n = d.space.size
    parts = [x for row in d.entries for e in row for x in (e.re, e.im)]
    s = math.lcm(*(x.denominator for x in parts))
    ints = [x.numerator * (s // x.denominator) for x in parts]
    re = [ints[2 * n * i:2 * n * (i + 1):2] for i in range(n)]
    im = [ints[2 * n * i + 1:2 * n * (i + 1):2] for i in range(n)]
    total_re, total_im = [0] * (1 << n), [0] * (1 << n)
    for bits in range(1, 1 << n):
        low = bits & -bits
        k = low.bit_length() - 1
        rest = bits ^ low
        others = [j for j in range(k + 1, n) if rest >> j & 1]
        total_re[bits] = total_re[rest] + re[k][k] + sum(re[k][j] + re[j][k] for j in others)
        total_im[bits] = total_im[rest] + im[k][k] + sum(im[k][j] + im[j][k] for j in others)
        assert total_im[bits] == 0, (bits, total_im[bits])
    return {bits: Fraction(value, s) for bits, value in enumerate(total_re)}


def minors_strongly_positive(self) -> bool:
    """Exact positive semidefiniteness: every principal minor is >= 0."""
    self._guard('strong-positivity check')
    n = self.space.size
    for subset in range(1, 1 << n):
        idx = [i for i in range(n) if subset >> i & 1]
        minor = _determinant([[_pair(self.entries[i][j]) for j in idx] for i in idx])
        assert minor[1] == 0
        if minor[0] < 0:
            return False
    return True


def subset_walk_absorption(self, mu) -> bool:
    """μ(A ∪ N) = μ(A) for every null N disjoint from A, checked exhaustively."""
    self._guard('null-absorption check')
    full = (1 << self.space.size) - 1
    for null_bits, value in mu.items():
        if value != 0:
            continue
        rest = full & ~null_bits
        a = rest
        while True:
            if mu[a | null_bits] != mu[a]:
                return False
            if a == 0:
                break
            a = (a - 1) & rest
    return True


def _determinant(matrix):
    """Exact determinant by Gaussian elimination over (re, im) pairs."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    det = (Fraction(1), Fraction(0))
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != ZERO), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = (-det[0], -det[1])
        pivot = m[col][col]
        det = _mul(det, pivot)
        for r in range(col + 1, n):
            if m[r][col] == ZERO:
                continue
            factor = _div(m[r][col], pivot)
            m[r] = [_sub(m[r][k], _mul(factor, m[col][k])) for k in range(n)]
    return det


# -- the corpus ----------------------------------------------------------------
#
# Generated as (re, im) pairs and handed to `DecoherenceMatrix` as
# GaussianRationals; CORPUS_DIGEST pins the rendered entries, so a change to
# a generator cannot silently swap the matrices the references are run on.

CORPUS_DIGEST = 'c04ec400aaf51d4d128f9cdcc5d7412558d1e879f2c2c0a0064fbf52419985cc'


def _gaussian(rng, spread=2):
    return (Fraction(rng.randint(-spread, spread)),
            Fraction(rng.randint(-spread, spread) * rng.randint(0, 1)))


def _matrix(space, rows):
    return DecoherenceMatrix(space, [[gr(*e) for e in row] for row in rows])


def _gram(space, vectors):
    """Σ_v v v^H: positive semidefinite, of rank at most len(vectors)."""
    n = space.size
    rows = [[ZERO] * n for _ in range(n)]
    for v in vectors:
        for i in range(n):
            for j in range(n):
                rows[i][j] = _add(rows[i][j], _mul(v[i], _conj(v[j])))
    return rows


def _hermitian(space, entries):
    """Symmetrise the upper triangle of `entries` (real diagonal) into a matrix."""
    n = space.size
    rows = [[entries[i][j] if i < j else _conj(entries[j][i]) if i > j
             else (entries[i][i][0], Fraction(0)) for j in range(n)] for i in range(n)]
    return _matrix(space, rows)


def _amplitude_matrix(rng, space):
    n = space.size
    amps = [_gaussian(rng) for _ in range(n)]
    labels = [rng.randrange(3) for _ in range(n)]
    blocks = [Event(space, sum(1 << i for i in range(n) if labels[i] == k))
              for k in sorted(set(labels))]
    return DecoherenceMatrix.from_amplitudes(space, [gr(*a) for a in amps], blocks)


def _low_rank(rng, space):
    n = space.size
    vectors = [[_gaussian(rng) for _ in range(n)] for _ in range(rng.randrange(n))]
    return _matrix(space, _gram(space, vectors))


def _zero_pivot(rng, space):
    # a later history copies an earlier one's column, or is all zero, so the
    # elimination meets a zero pivot midway; half get a nudge off PSD there
    n = space.size
    vectors = [[_gaussian(rng) for _ in range(n)] for _ in range(rng.randint(1, n))]
    i, j = sorted(rng.sample(range(n), 2))
    scale = rng.choice([(0, 0), (1, 0), (-1, 0), (0, 1)])
    for v in vectors:
        v[j] = _mul(v[i], scale)
    rows = _gram(space, vectors)
    if rng.random() < 0.5:
        k = rng.choice([k for k in range(n) if k != j])
        a, b = min(j, k), max(j, k)
        rows[a][b] = _add(rows[a][b], _gaussian(rng, 1))
        return _hermitian(space, rows)
    return _matrix(space, rows)


def _indefinite(rng, space):
    n = space.size
    return _hermitian(space, [[_gaussian(rng) if i != j else (rng.randint(-1, 3), 0)
                               for j in range(n)] for i in range(n)])


def _zero_diagonal(rng, space):
    n = space.size
    zeros = {i for i in range(n) if rng.random() < 0.4}
    return _hermitian(space, [[ZERO if i == j and i in zeros else _gaussian(rng, 1)
                               for j in range(n)] for i in range(n)])


def _perturbed_null(rng, space):
    # amplitudes summing to zero over N within each block make N null; a
    # Hermitian term off N keeps absorption, one touching N's rows need not
    n = space.size
    null = rng.randrange(1, 1 << n)
    labels = [rng.randrange(2) for _ in range(n)]
    amps = [_gaussian(rng) for _ in range(n)]
    for k in set(labels):
        members = [i for i in bit_indices(null) if labels[i] == k]
        if members:
            total = ZERO
            for i in members[:-1]:
                total = _add(total, amps[i])
            amps[members[-1]] = (-total[0], -total[1])
    rows = [[_mul(amps[i], _conj(amps[j])) if labels[i] == labels[j] else ZERO
             for j in range(n)] for i in range(n)]
    outside = [i for i in range(n) if not null >> i & 1]
    if rng.random() < 0.5 and outside:
        for i in outside:
            for j in outside:
                if i <= j:
                    rows[i][j] = _add(rows[i][j], _gaussian(rng, 1))
    else:
        i = rng.choice(outside or range(n))
        j = rng.choice(list(bit_indices(null)))
        a, b = min(i, j), max(i, j)
        rows[a][b] = _add(rows[a][b], _gaussian(rng, 1))
    return _hermitian(space, rows)


CORPUS_KINDS = (_amplitude_matrix, _low_rank, _indefinite, _zero_diagonal,
                _perturbed_null, _zero_pivot)


def measure_corpus():
    """2,000 seeded Hermitian matrices, n = 1..8, the kinds taken in turn.

    The references cost about 2^n determinants and 2^n measures each, so
    the corpus leans to small n.
    """
    rng = random.Random(20070701)
    counts = {1: 100, 2: 900, 3: 820, 4: 140, 5: 25, 6: 8, 7: 4, 8: 3}
    for n, count in counts.items():
        space = SampleSpace(f'h{i}' for i in range(n))
        kinds = CORPUS_KINDS if n > 1 else CORPUS_KINDS[:-1]  # no zero pivot at n = 1
        for k in range(count):
            kind = kinds[(k + n) % len(kinds)]
            yield kind.__name__, kind(rng, space)


def test_corpus_is_pinned():
    digest = hashlib.sha256()
    for kind, d in measure_corpus():
        rendered = ';'.join(' '.join(render_complex(e) for e in row) for row in d.entries)
        digest.update(f'{kind}:{rendered}\n'.encode())
    assert digest.hexdigest() == CORPUS_DIGEST


def test_elimination_and_row_sums_match_the_exhaustive_references():
    outcomes = {}
    total = 0
    for kind, d in measure_corpus():
        mu = reference_measures(d)
        assert d.preclusions().masks == {bits for bits, value in mu.items() if value == 0}, \
            (kind, d.entries)
        for bits, value in mu.items():
            assert d.measure(Event(d.space, bits)) == value, (kind, d.entries, bits)
        psd = d.is_strongly_positive()
        absorbs = d.null_absorption_holds()
        assert psd == minors_strongly_positive(d), (kind, d.entries)
        assert absorbs == subset_walk_absorption(d, mu), (kind, d.entries)
        outcomes[psd, absorbs] = outcomes.get((psd, absorbs), 0) + 1
        total += 1
    assert total >= 2000
    # μ(N) = 0 forces D·1_N = 0 on a PSD matrix, so (True, False) cannot occur
    assert set(outcomes) == {(True, True), (False, True), (False, False)}
    assert min(outcomes.values()) >= 50, outcomes


# -- the amplitude corpus --------------------------------------------------------
#
# `from_amplitudes` matrices derive their preclusions from per-block amplitude
# subset sums; an entry-built twin with the same entries takes the per-event
# walk.  Both must match the reference measures.  AMPLITUDE_DIGEST pins the
# amplitudes and blocks.

AMPLITUDE_DIGEST = 'e2dc9311f6725bc786171ac1fcaf443768262f00566f7d827b647cc0f0ff577b'
AMPLITUDE_COUNTS = {1: 30, 2: 60, 3: 80, 4: 80, 5: 50, 6: 30, 7: 16, 8: 8, 9: 4,
                    10: 2, 11: 1, 12: 1, 14: 1}


def _amplitude(rng):
    if rng.random() < 0.15:
        return ZERO
    re = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    im = Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.5 else Fraction(0)
    return (re, im)


def _amplitude_case(rng, n):
    """Amplitudes and blocks over n histories, with cancellations planted:
    in some blocks the last of a few members cancels the others' sum, and
    now and then a whole block is zero."""
    labels = [rng.randrange(rng.randint(1, min(n, 4))) for _ in range(n)]
    members = [[i for i in range(n) if labels[i] == k] for k in sorted(set(labels))]
    amps = [_amplitude(rng) for _ in range(n)]
    for block in members:
        if rng.random() < 0.1:
            for i in block:
                amps[i] = ZERO
        elif len(block) > 1 and rng.random() < 0.6:
            chosen = rng.sample(block, rng.randint(2, len(block)))
            total = ZERO
            for i in chosen[:-1]:
                total = _add(total, amps[i])
            amps[chosen[-1]] = (-total[0], -total[1])
    return amps, members


def amplitude_corpus():
    """Seeded amplitude-built matrices at n = 1..12 and one at n = 14."""
    rng = random.Random(20070702)
    for n, count in AMPLITUDE_COUNTS.items():
        space = SampleSpace(f'h{i}' for i in range(n))
        for _ in range(count):
            amps, members = _amplitude_case(rng, n)
            blocks = [Event(space, sum(1 << i for i in block)) for block in members]
            yield amps, members, DecoherenceMatrix.from_amplitudes(
                space, [gr(*a) for a in amps], blocks)


def _amplitude_kinds(amps, members, null_masks):
    zero = {i for i, a in enumerate(amps) if a == ZERO}
    denominators = [{x.denominator for i in block for x in amps[i] if x} for block in members]
    kinds = {
        'several blocks': len(members) > 1,
        'single-history block': any(len(block) == 1 for block in members),
        'zero amplitude': bool(zero),
        'all-zero block': any(len(block) > 1 and set(block) <= zero for block in members),
        'mixed denominators': any(len(d) > 1 for d in denominators),
        'complex': any(a[1] for a in amps),
        # a null event with a history of nonzero amplitude: a real cancellation
        'cancellation': any(set(bit_indices(m)) - zero for m in null_masks),
    }
    return {kind for kind, present in kinds.items() if present}


def test_amplitude_corpus_is_pinned():
    digest = hashlib.sha256()
    for amps, members, _ in amplitude_corpus():
        rendered = ' '.join(render_complex(gr(*a)) for a in amps)
        digest.update(f'{rendered}|{members}\n'.encode())
    assert digest.hexdigest() == AMPLITUDE_DIGEST


def test_amplitude_entries_are_outer_products():
    # built on first read from the kept Gaussian integers, and not checked
    # for Hermiticity: each must be α_i conj(α_j) within a block, else zero
    checked = 0
    for amps, members, d in amplitude_corpus():
        assert d._entries is None
        block_of = {i: k for k, block in enumerate(members) for i in block}
        n = d.space.size
        assert [[_pair(e) for e in row] for row in d.entries] == [
            [_mul(amps[i], _conj(amps[j])) if block_of[i] == block_of[j] else ZERO
             for j in range(n)] for i in range(n)]
        checked += any(a[1] for a in amps)
    assert checked >= 20  # complex amplitudes, so the conjugate's sign shows


class MeasuredMatrix(DecoherenceMatrix):
    """An entry-built matrix that keeps μ of every event it measures, by mask,
    so one walk in `preclusions` also yields the value of every event."""

    __slots__ = ('measured',)

    def __init__(self, space, entries):
        super().__init__(space, entries)
        self.measured = {}

    def measure(self, event):
        self.measured[event.bits] = value = super().measure(event)
        return value


def test_amplitude_preclusions_match_the_per_event_walk():
    kinds = dict.fromkeys(['several blocks', 'single-history block', 'zero amplitude',
                           'all-zero block', 'mixed denominators', 'complex',
                           'cancellation'], 0)
    sizes = set()
    for amps, members, d in amplitude_corpus():
        twin = MeasuredMatrix(d.space, d.entries)
        assert d == twin and hash(d) == hash(twin)
        mu = reference_measures(d)
        expected = {bits for bits, value in mu.items() if value == 0}
        assert d.preclusions().masks == expected, (amps, members)
        assert twin.preclusions().masks == expected, (amps, members)
        assert twin.measured == mu, (amps, members)  # every event, every value
        for kind in _amplitude_kinds(amps, members, expected):
            kinds[kind] += 1
        sizes.add(d.space.size)
    assert sizes == set(AMPLITUDE_COUNTS)
    assert min(kinds.values()) >= 20, kinds


# -- single blocks past the history guard -----------------------------------------
#
# `preclusions()` joins the subset sums of each block's two halves.  The block
# walk it replaced, kept below as it was, lists every subset sum in turn; the
# two must give the same nulls on a pinned corpus of single blocks at
# n = 15..20.  BLOCK_DIGEST pins the amplitudes.

BLOCK_DIGEST = '5d490c7d03bf5e162c2ebe47db650cda46c5376b9055161ae40164967de8a66c'
BLOCK_COUNTS = {15: 3, 16: 3, 17: 2, 18: 2, 19: 1, 20: 1}


def _zero_sum_subsets(indices, amps):
    """Space-wide masks of one block's subsets, the empty one included,
    whose amplitudes sum to zero.  Scaling by the lcm of the denominators
    keeps the zeros and leaves pairs of ints; subset s sums to s without
    its lowest member, plus that member's amplitude."""
    scale = math.lcm(*(x.denominator for a in amps for x in (a.re, a.im)))
    re = [a.re.numerator * (scale // a.re.denominator) for a in amps]
    im = [a.im.numerator * (scale // a.im.denominator) for a in amps]
    size = 1 << len(indices)
    sum_re, sum_im = [0] * size, [0] * size
    zeros = [0]
    for s in range(1, size):
        low = s & -s
        k = low.bit_length() - 1
        sum_re[s] = r = sum_re[s ^ low] + re[k]
        sum_im[s] = i = sum_im[s ^ low] + im[k]
        if not r and not i:
            zeros.append(sum(1 << indices[j] for j in bit_indices(s)))
    return zeros


def _block_case(rng, n):
    """n amplitudes with denominators 1..4 and wide numerators, so that
    chance cancellations are rare, then up to three zeros, one to three
    planted pairs (b = -a) and one or two planted triples (c = -a - b)."""
    amps = [(Fraction(rng.randint(-40, 40), rng.randint(1, 4)),
             Fraction(rng.randint(-40, 40), rng.randint(1, 4)) if rng.random() < 0.5
             else Fraction(0)) for _ in range(n)]
    order = rng.sample(range(n), n)
    zeros, pairs, triples = rng.randint(0, 3), rng.randint(1, 3), rng.randint(1, 2)
    for i in order[:zeros]:
        amps[i] = ZERO
    rest = order[zeros:]
    for p in range(pairs):
        i, j = rest[2 * p:2 * p + 2]
        amps[j] = (-amps[i][0], -amps[i][1])
    rest = rest[2 * pairs:]
    for t in range(triples):
        i, j, k = rest[3 * t:3 * t + 3]
        amps[k] = (-amps[i][0] - amps[j][0], -amps[i][1] - amps[j][1])
    return amps


def block_corpus():
    rng = random.Random(20070703)
    for n, count in BLOCK_COUNTS.items():
        for _ in range(count):
            yield _block_case(rng, n)


def test_block_corpus_is_pinned():
    digest = hashlib.sha256()
    for amps in block_corpus():
        digest.update((' '.join(render_complex(gr(*a)) for a in amps) + '\n').encode())
    assert digest.hexdigest() == BLOCK_DIGEST


def test_meet_in_the_middle_matches_the_block_walk():
    sizes, nulls = [], []
    for amps in block_corpus():
        n = len(amps)
        d = DecoherenceMatrix.from_amplitudes(SampleSpace(f'h{i}' for i in range(n)),
                                              [gr(*a) for a in amps])
        expected = _zero_sum_subsets(range(n), [gr(*a) for a in amps])
        assert len(expected) == len(set(expected))
        assert d.preclusions().masks == set(expected), amps
        assert d._entries is None  # nothing read the n x n entries
        sizes.append(n)
        nulls.append(len(expected))
    assert sorted(set(sizes)) == list(BLOCK_COUNTS)
    assert min(nulls) >= 8, nulls  # every case has real cancellations
