"""Exact quantal measures from amplitudes or a decoherence matrix.

Entries are Gaussian rationals (complex numbers with `Fraction` real and
imaginary parts); all arithmetic runs on those parts, so zero tests, and
therefore preclusion, are exact; no floating point enters anywhere.

The measure of an event A is the double sum of decoherence-matrix entries
over pairs of members of A.  Hermiticity makes it real; strong positivity
(positive semidefiniteness, decided once by one exact elimination) makes it
non-negative.  Amplitudes are used unnormalised: preclusion is scale
invariant.  A matrix from amplitudes is PSD; it keeps each block's
amplitudes as Gaussian integers and builds its n×n entries only when read.

A :class:`PreclusionSet` holds the events of measure zero, computed or
declared, and always the empty event.  A matrix derives its set once: from
amplitudes, by a meet in the middle over each block's subset sums,
Σ_b 2^⌈|b|/2⌉ plus the output, refusing more than 2^``MEASURE_GUARD``
nulls; otherwise by measuring all 2^n events, refusing more than
``MEASURE_GUARD`` histories.  The :class:`GuardError`, naming the guard,
comes before any null is built.  Only a non-PSD matrix may fail to absorb
its nulls, so only those test a row sum per null and history.

Complex literal grammar (scenario files and the CLI)::

    rational := ['-'] int ['/' posint]
    complex  := rational | rational ('+'|'-') rational 'i' | rational 'i'

Examples: ``1``, ``-1/2``, ``3/2-1/2i``, ``2i``.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import attrgetter

from .events import (Event, ParseError, SampleSpace, _check_guard, _member_bits,
                     _Record, _Value, bit_indices, canonical_key)

__all__ = [
    'MEASURE_GUARD',
    'DecoherenceMatrix',
    'GaussianRational',
    'PreclusionSet',
    'parse_complex',
    'render_complex',
]

MEASURE_GUARD = 14  # events walked are at most 2^this, as are nulls listed


class GaussianRational(_Record):
    """Complex number with exact `Fraction` parts, parsed and rendered only:
    it has no arithmetic, and computations read `re` and `im` directly."""

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)):
        # the one coercion; parsed parts already are Fractions
        vars(self).update(re=re if type(re) is Fraction else _exact(re),
                          im=im if type(im) is Fraction else _exact(im))

    def conjugate(self) -> 'GaussianRational':
        return GaussianRational(self.re, -self.im)

    def __str__(self) -> str:
        return render_complex(self)


def _exact(part: object) -> Fraction:
    if isinstance(part, (int, Fraction)):
        return Fraction(part)
    raise TypeError(f'cannot interpret {type(part).__name__} as a Gaussian rational')


def _gaussian(value: GaussianRational | Fraction | int) -> GaussianRational:
    return value if isinstance(value, GaussianRational) else GaussianRational(value)


_RATIONAL = r'-?\d+(?:/\d+)?'
_UNSIGNED = r'\d+(?:/\d+)?'
_COMPLEX_RE = re.compile(
    rf'^(?:(?P<real_only>{_RATIONAL})'
    rf'|(?P<imag_only>{_RATIONAL})i'
    rf'|(?P<real>{_RATIONAL})(?P<sign>[+-])(?P<imag>{_UNSIGNED})i)$')


def _fraction(text: str, position: int) -> Fraction:
    num, _, den = text.partition('/')
    try:
        numerator, denominator = int(num), int(den or 1)
    except ValueError:  # the grammar admits only digits, so past int's digit limit
        raise ParseError(f'number longer than {sys.get_int_max_str_digits()} digits',
                         position) from None
    if denominator == 0:
        raise ParseError('zero denominator', position + len(num) + 1)
    return Fraction(numerator, denominator)


def parse_complex(text: str) -> GaussianRational:
    """Parse the exact complex grammar, e.g. ``1``, ``-1/2``, ``3/2-1/2i``, ``2i``."""
    match = _COMPLEX_RE.match(text)
    if match is None:
        raise ParseError(f'malformed complex number {text!r}', 0)
    if match.group('real_only') is not None:
        return GaussianRational(_fraction(match.group('real_only'), 0))
    if match.group('imag_only') is not None:
        return GaussianRational(Fraction(0), _fraction(match.group('imag_only'), 0))
    re_part = _fraction(match.group('real'), 0)
    im_part = _fraction(match.group('imag'), match.start('imag'))
    if match.group('sign') == '-':
        im_part = -im_part
    return GaussianRational(re_part, im_part)


def render_complex(value: GaussianRational) -> str:
    """Canonical text for a Gaussian rational; inverse of :func:`parse_complex`."""
    if value.im == 0:
        return str(value.re)
    if value.re == 0:
        return f'{value.im}i'
    sign = '+' if value.im > 0 else '-'
    return f'{value.re}{sign}{abs(value.im)}i'


def first_non_hermitian(rows: Sequence[Sequence[GaussianRational]]) -> tuple[int, int] | None:
    """The first (i, j), i <= j in row order, with rows[i][j] != conj(rows[j][i])."""
    n = len(rows)
    return next(((i, j) for i in range(n) for j in range(i, n)
                 if rows[i][j] != rows[j][i].conjugate()), None)


class DecoherenceMatrix(_Value):
    """Hermitian matrix D over a space, defining μ(A) = Σ_{γ,γ' ∈ A} D(γ,γ')."""

    __slots__ = ('space', '_entries', '_blocks', '_preclusions', '_positive')

    def __init__(self, space: SampleSpace,
                 entries: Sequence[Sequence[GaussianRational | Fraction | int]] | None,
                 _blocks: tuple | None = None):
        object.__setattr__(self, 'space', space)
        # per block ((index, re, im), ...) and scale, if from amplitudes
        object.__setattr__(self, '_blocks', _blocks)
        for cache in ('_entries', '_preclusions', '_positive'):  # each filled on first use
            object.__setattr__(self, cache, None)
        if _blocks is None:
            n = space.size
            rows = tuple(tuple(_gaussian(e) for e in row) for row in entries)
            if len(rows) != n or any(len(row) != n for row in rows):
                raise ValueError(f'decoherence matrix must be {n}x{n}')
            bad = first_non_hermitian(rows)
            if bad is not None:
                raise ValueError(f'matrix is not Hermitian at {bad}')
            object.__setattr__(self, '_entries', rows)

    @classmethod
    def from_amplitudes(cls, space: SampleSpace,
                        amplitudes: Sequence[GaussianRational | Fraction | int],
                        blocks: Iterable[Event] | None = None) -> 'DecoherenceMatrix':
        """D(γ,γ') = α_γ conj(α_γ'), nonzero only within a block.

        `blocks` must partition the space (histories sharing a final
        outcome); by default all histories share one block.
        """
        amps = tuple(_gaussian(a) for a in amplitudes)
        n = space.size
        if len(amps) != n:
            raise ValueError(f'need one amplitude per history ({n}), got {len(amps)}')
        block_list = [space.full] if blocks is None else list(blocks)
        covered, factors = 0, []
        for block in block_list:
            bits = _member_bits(space, block, 'block')
            if covered & bits:
                raise ValueError('blocks overlap')
            covered |= bits
            indices = tuple(bit_indices(bits))
            parts = [x for i in indices for x in (amps[i].re, amps[i].im)]
            scale = lcm(*(x.denominator for x in parts))
            ints = [x.numerator * (scale // x.denominator) for x in parts]
            factors.append((tuple(zip(indices, ints[::2], ints[1::2])), scale))
        if covered != (1 << n) - 1:
            raise ValueError('blocks do not cover every history')
        return cls(space, None, tuple(factors))

    @property
    def entries(self) -> tuple[tuple[GaussianRational, ...], ...]:
        """The rows of D; from amplitudes, built on first read (and Hermitian)."""
        if self._entries is None:
            n = self.space.size
            rows = [[GaussianRational()] * n for _ in range(n)]
            for terms, scale in self._blocks:
                for i, a, b in terms:
                    for j, c, d in terms:
                        rows[i][j] = GaussianRational(Fraction(a * c + b * d, scale * scale),
                                                      Fraction(b * c - a * d, scale * scale))
            object.__setattr__(self, '_entries', tuple(map(tuple, rows)))
        return self._entries

    def entry(self, i: int, j: int) -> GaussianRational:
        return self.entries[i][j]

    def __eq__(self, other: object) -> bool:  # unlike _Value's, subclasses compare equal
        return (isinstance(other, DecoherenceMatrix)
                and self.space == other.space and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.space, self.entries))

    def __repr__(self) -> str:
        return f'DecoherenceMatrix({self.space!r}, {self.space.size}x{self.space.size})'

    def measure(self, event: Event) -> Fraction:
        """μ(A), exact; zero means precluded.  D is Hermitian, so only real parts
        count, and Re D is symmetric, so each unordered pair is added once:
        μ(A) = Σ_{i∈A} Re D_ii + 2·Σ_{i<j∈A} Re D_ij."""
        members = tuple(bit_indices(_member_bits(self.space, event, 'event')))
        rows = self.entries
        pairs = sum((rows[i][j].re for i, j in combinations(members, 2)), Fraction(0))
        return sum((rows[i][i].re for i in members), 2 * pairs)

    def _guard(self, work: str) -> None:
        n = self.space.size
        _check_guard(work, n, 'MEASURE_GUARD', MEASURE_GUARD, refused=f'2^{n} = {1 << n} events')

    def preclusions(self) -> 'PreclusionSet':
        """All events of measure zero, derived once.

        From amplitudes, μ(A) = Σ_b |Σ_{γ∈A∩b} α_γ|²: each block's halves
        list their subset sums, joined on the negated sum, Σ_b 2^⌈|b|/2⌉
        integer sums plus the output.  Otherwise n(n+3)·2^(n-3) terms, each
        unordered pair once (39,424 at n = 11).
        """
        if self._preclusions is None:
            if self._blocks is None:
                self._guard('preclusion derivation')
                null = [ev for ev in self.space.events() if self.measure(ev) == 0]
            else:
                null = [Event(self.space, m) for m in self._block_nulls()]
            object.__setattr__(self, '_preclusions', PreclusionSet(self.space, null))
        return self._preclusions

    def _block_nulls(self) -> list[int]:
        joins, count = [], 1
        for terms, _ in self._blocks:
            half = len(terms) // 2
            low, high = _subset_sums(terms[:half]), _subset_sums(terms[half:])
            pairs = [(masks, high[-r, -i]) for (r, i), masks in low.items() if (-r, -i) in high]
            count *= sum(len(a) * len(b) for a, b in pairs)
            joins.append(pairs)
        _check_guard('preclusion derivation', count, '2^MEASURE_GUARD', 1 << MEASURE_GUARD,
                     '{} null events')
        masks = [0]
        for pairs in joins:
            masks = [m | a | b for m in masks for lo, hi in pairs for a in lo for b in hi]
        return masks

    def is_strongly_positive(self) -> bool:
        """Exact positive semidefiniteness, decided once; True from amplitudes.

        One symmetric elimination on the real and imaginary parts updates only
        the upper triangle (each Schur complement is Hermitian); a negative
        pivot, or a zero pivot with a nonzero entry left in its row, fails.
        """
        if self._positive is None:
            object.__setattr__(self, '_positive',
                               self._blocks is not None or _eliminates(self._entries))
        return self._positive

    def null_absorption_holds(self) -> bool:
        """μ(A ∪ N) = μ(A) for every null N and every A disjoint from it.

        μ(A ∪ N) = μ(A) + μ(N) + 2·Re Σ_{i∈A, j∈N} D_ij, so for a null N
        this holds for every such A iff Re Σ_{j∈N} D_ij = 0 for each
        history i outside N, which a PSD matrix meets: μ(N) = 0 forces D·1_N = 0.
        """
        if self.is_strongly_positive():
            return True
        self._guard('null-absorption check')
        rows = self.entries
        return all(sum(rows[i][j].re for j in bit_indices(null)) == 0
                   for null in self.preclusions().masks
                   for i in range(self.space.size) if not null >> i & 1)


def _eliminates(entries: Sequence[Sequence[GaussianRational]]) -> bool:
    re = [[e.re for e in row] for row in entries]
    im = [[e.im for e in row] for row in entries]
    n = len(re)
    for k in range(n):
        pivot, re_k, im_k = re[k][k], re[k], im[k]
        if pivot < 0:
            return False
        if pivot == 0:
            if any(re_k[k + 1:]) or any(im_k[k + 1:]):
                return False
            continue
        for i in range(k + 1, n):
            # row i loses (D_ik / pivot) times row k, with D_ik = conj(D_ki)
            a, b = re_k[i] / pivot, -im_k[i] / pivot
            if a or b:
                terms = list(zip(re[i][i:], im[i][i:], re_k[i:], im_k[i:]))
                re[i][i:] = [x - a * c + b * d for x, _, c, d in terms]
                im[i][i:] = [y - a * d - b * c for _, y, c, d in terms]
    return True


def _subset_sums(terms: Sequence[tuple[int, int, int]]) -> dict:
    """Space-wide masks of the subsets of `terms` (index, re, im), by amplitude sum."""
    sums = [((0, 0), 0)]
    for k, r, i in terms:
        sums += [((x + r, y + i), m | 1 << k) for (x, y), m in sums]
    table: dict[tuple[int, int], list[int]] = {}
    for key, mask in sums:
        table.setdefault(key, []).append(mask)
    return table


class PreclusionSet(_Value):
    """The events declared impossible; always contains the empty event.

    Equality compares the space and the event family.
    """

    __slots__ = ('space', 'masks', '_events')
    _compared = attrgetter('space', 'masks')

    def __init__(self, space: SampleSpace, events: Iterable[Event] = ()):
        masks = frozenset([0, *(_member_bits(space, ev, 'precluded event') for ev in events)])
        object.__setattr__(self, 'space', space)
        object.__setattr__(self, 'masks', masks)
        object.__setattr__(self, '_events', None)

    @classmethod
    def explicit(cls, space: SampleSpace, events: Iterable[Event]) -> 'PreclusionSet':
        return cls(space, events)

    @property
    def events(self) -> tuple[Event, ...]:
        """Member events sorted by (size, member indices); sorted once."""
        if self._events is None:
            order = sorted(self.masks, key=canonical_key)
            object.__setattr__(self, '_events', tuple(Event(self.space, m) for m in order))
        return self._events

    def __contains__(self, event: Event) -> bool:
        return (isinstance(event, Event) and event.space == self.space
                and event.bits in self.masks)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.masks)

    def __repr__(self) -> str:
        inner = ', '.join(str(ev) for ev in self.events)
        return f'PreclusionSet([{inner}])'

    def precludes_everything(self) -> bool:
        return len(self.masks) == 1 << self.space.size

    def is_classical(self) -> bool:
        """True iff the family is the power set of its union.

        That is the zero pattern an additive, non-negative measure makes:
        closed downward under subsets and closed under unions.  Mere
        downward closure is weaker and does not suffice for the classical
        reduction of the multiplicative scheme.
        """
        union = 0
        for m in self.masks:
            union |= m
        return len(self.masks) == 1 << union.bit_count()
