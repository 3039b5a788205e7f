"""Exact quantal measures from amplitudes or a decoherence matrix.

Entries are Gaussian rationals (complex numbers with `Fraction` real and
imaginary parts); all arithmetic runs on those parts, so zero tests, and
therefore preclusion, are exact; no floating point enters anywhere.

The measure of an event A is the double sum of decoherence-matrix entries
over pairs of members of A.  Hermiticity makes the value real; strong
positivity (positive semidefiniteness, decided here exactly by one
symmetric Gaussian elimination) makes it non-negative.  A matrix built
from history amplitudes via :meth:`DecoherenceMatrix.from_amplitudes` is a
sum of outer products and is always strongly positive.  Amplitudes are
used unnormalised: preclusion is scale invariant, so overall constants
are irrelevant and dropping them keeps the arithmetic rational.

The preclusions are derived once per matrix: the matrix keeps the set, and
the null-absorption check reads it and then tests one row sum per null and
history.  A matrix from amplitudes keeps its blocks, and an event is null
exactly when its amplitudes sum to zero in every block, so the derivation
costs Σ_b 2^|b| integer subset sums; any other matrix measures all 2^n
events, n(n+1)·2^(n-2) pair terms in all.  Both refuse spaces of more than
``MEASURE_GUARD`` histories with a :class:`GuardError` before any work.
The O(n^3) positivity check enumerates nothing and has no guard of its own.

A :class:`PreclusionSet` records the events of measure zero, whether
computed from a matrix or declared outright; the empty event always
belongs to it.

Complex literal grammar (scenario files and the CLI)::

    rational := ['-'] int ['/' posint]
    complex  := rational | rational ('+'|'-') rational 'i' | rational 'i'

Examples: ``1``, ``-1/2``, ``3/2-1/2i``, ``2i``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence, Union

from .events import (Event, GuardError, ParseError, SampleSpace,
                     SpaceMismatchError, bit_indices, canonical_key)

__all__ = [
    'MEASURE_GUARD',
    'DecoherenceMatrix',
    'GaussianRational',
    'PreclusionSet',
    'parse_complex',
    'render_complex',
]

MEASURE_GUARD = 14  # preclusions (so absorption) enumerate 2^n events

_Scalar = Union['GaussianRational', Fraction, int]


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact `Fraction` parts, parsed and rendered only:
    it has no arithmetic, and computations read `re` and `im` directly."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, 're', Fraction(self.re))
        object.__setattr__(self, 'im', Fraction(self.im))

    def conjugate(self) -> 'GaussianRational':
        return GaussianRational(self.re, -self.im)

    def __str__(self) -> str:
        return render_complex(self)


def _gaussian(value: _Scalar) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    raise TypeError(f'cannot interpret {type(value).__name__} as a Gaussian rational')


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


class DecoherenceMatrix:
    """Hermitian matrix D over a space, defining μ(A) = Σ_{γ,γ' ∈ A} D(γ,γ')."""

    __slots__ = ('space', 'entries', '_preclusions', '_blocks')

    def __init__(self, space: SampleSpace, entries: Sequence[Sequence[_Scalar]]):
        n = space.size
        rows = tuple(tuple(_gaussian(e) for e in row) for row in entries)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f'decoherence matrix must be {n}x{n}')
        bad = first_non_hermitian(rows)
        if bad is not None:
            raise ValueError(f'matrix is not Hermitian at {bad}')
        self.space = space
        self.entries = rows
        self._preclusions: PreclusionSet | None = None
        self._blocks: tuple | None = None  # per block (indices, amplitudes), if built from them

    @classmethod
    def from_amplitudes(cls, space: SampleSpace, amplitudes: Sequence[_Scalar],
                        blocks: Iterable[Event] | None = None) -> 'DecoherenceMatrix':
        """D(γ,γ') = α_γ conj(α_γ'), nonzero only within a block.

        `blocks` must partition the space (histories sharing a final
        outcome); by default all histories share one block.
        """
        amps = tuple(_gaussian(a) for a in amplitudes)
        n = space.size
        if len(amps) != n:
            raise ValueError(f'need one amplitude per history ({n}), got {len(amps)}')
        if blocks is None:
            block_list = [space.full]
        else:
            block_list = list(blocks)
        covered = 0
        block_of = [-1] * n
        for k, block in enumerate(block_list):
            if not isinstance(block, Event) or block.space != space:
                raise SpaceMismatchError('block is not an event over this space')
            if covered & block.bits:
                raise ValueError('blocks overlap')
            covered |= block.bits
            for i in block.indices:
                block_of[i] = k
        if covered != (1 << n) - 1:
            raise ValueError('blocks do not cover every history')
        zero = GaussianRational()
        entries = [[GaussianRational(a.re * b.re + a.im * b.im, a.im * b.re - a.re * b.im)
                    if block_of[i] == block_of[j] else zero
                    for j, b in enumerate(amps)] for i, a in enumerate(amps)]
        matrix = cls(space, entries)
        matrix._blocks = tuple((block.indices, tuple(amps[i] for i in block.indices))
                               for block in block_list)
        return matrix

    def entry(self, i: int, j: int) -> GaussianRational:
        return self.entries[i][j]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, DecoherenceMatrix)
                and self.space == other.space and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.space, self.entries))

    def __repr__(self) -> str:
        return f'DecoherenceMatrix({self.space!r}, {len(self.entries)}x{len(self.entries)})'

    def measure(self, event: Event) -> Fraction:
        """μ(A): exact and real; zero means precluded.

        Only real parts are summed: D is Hermitian, so Im D(γ,γ') cancels.
        """
        if event.space != self.space:
            raise SpaceMismatchError('event belongs to a different sample space')
        members = event.indices
        return sum((self.entries[i][j].re for i in members for j in members), Fraction(0))

    def _guard(self, work: str) -> None:
        n = self.space.size
        if n > MEASURE_GUARD:
            raise GuardError(
                f'{work} over {n} histories would enumerate 2^{n} = {1 << n} events, '
                f'past MEASURE_GUARD of {MEASURE_GUARD} histories')

    def preclusions(self) -> 'PreclusionSet':
        """All events of measure zero, derived once.

        From amplitudes, μ(A) = Σ_b |Σ_{γ∈A∩b} α_γ|², so A is null exactly
        when its part in every block sums to zero: the null events are the
        products of each block's zero-sum subsets, found by Σ_b 2^|b|
        integer subset sums.  Otherwise the 2^n events sum n(n+1)·2^(n-2)
        pair terms in all: O(n²·2^n).
        """
        self._guard('preclusion derivation')
        if self._preclusions is None:
            if self._blocks is None:
                null = [ev for ev in self.space.events() if self.measure(ev) == 0]
            else:
                masks = [0]
                for indices, amps in self._blocks:
                    zeros = _zero_sum_subsets(indices, amps)
                    masks = [m | z for m in masks for z in zeros]
                null = [Event(self.space, m) for m in masks]
            self._preclusions = PreclusionSet(self.space, null, provenance='measure')
        return self._preclusions

    def is_strongly_positive(self) -> bool:
        """Exact positive semidefiniteness, by one symmetric elimination.

        The elimination runs on D itself, its real and imaginary parts kept
        as two Fraction matrices, and updates only the upper triangle: the
        Schur complement of a pivot is Hermitian again, and its entry below
        the diagonal is the conjugate of the one above.  A negative pivot,
        or a zero pivot with a nonzero entry left in its row (a negative
        2x2 principal minor), means D is not PSD; otherwise the Schur
        complement below the pivot is checked the same way.
        """
        re = [[e.re for e in row] for row in self.entries]
        im = [[e.im for e in row] for row in self.entries]
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

    def null_absorption_holds(self) -> bool:
        """μ(A ∪ N) = μ(A) for every null N and every A disjoint from it.

        μ(A ∪ N) = μ(A) + μ(N) + 2·Re Σ_{i∈A, j∈N} D_ij, so for a null N
        this holds for every such A iff Re Σ_{j∈N} D_ij = 0 for each
        history i outside N.  No positivity is assumed.
        """
        self._guard('null-absorption check')
        n = self.space.size
        for null in self.preclusions().masks:
            members = tuple(bit_indices(null))
            for i in range(n):
                if not null >> i & 1 and sum(self.entries[i][j].re for j in members) != 0:
                    return False
        return True


def _zero_sum_subsets(indices: Sequence[int],
                      amps: Sequence[GaussianRational]) -> list[int]:
    """Space-wide masks of one block's subsets, the empty one included,
    whose amplitudes sum to zero.  Scaling by the lcm of the denominators
    keeps the zeros and leaves pairs of ints; subset s sums to s without
    its lowest member, plus that member's amplitude."""
    scale = lcm(*(x.denominator for a in amps for x in (a.re, a.im)))
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


class PreclusionSet:
    """The events declared impossible; always contains the empty event.

    `provenance` records whether the zeros were computed from a measure
    ('measure') or declared outright ('explicit').  Equality compares the
    space and the event family only.
    """

    __slots__ = ('space', 'masks', 'provenance', '_events')

    def __init__(self, space: SampleSpace, events: Iterable[Event] = (),
                 provenance: str = 'explicit'):
        if provenance not in ('explicit', 'measure'):
            raise ValueError(f"provenance must be 'explicit' or 'measure', got {provenance!r}")
        masks = {0}
        for ev in events:
            if not isinstance(ev, Event):
                raise TypeError(f'precluded entries must be Events, got {type(ev).__name__}')
            if ev.space != space:
                raise SpaceMismatchError('precluded event belongs to a different sample space')
            masks.add(ev.bits)
        self.space = space
        self.masks = frozenset(masks)
        self.provenance = provenance
        self._events: tuple[Event, ...] | None = None

    @classmethod
    def explicit(cls, space: SampleSpace, events: Iterable[Event]) -> 'PreclusionSet':
        return cls(space, events, provenance='explicit')

    @property
    def events(self) -> tuple[Event, ...]:
        """Member events sorted by (size, member indices); sorted once."""
        if self._events is None:
            order = sorted(self.masks, key=canonical_key)
            self._events = tuple(Event(self.space, m) for m in order)
        return self._events

    def __contains__(self, event: Event) -> bool:
        return (isinstance(event, Event) and event.space == self.space
                and event.bits in self.masks)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.masks)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PreclusionSet)
                and self.space == other.space and self.masks == other.masks)

    def __hash__(self) -> int:
        return hash((self.space, self.masks))

    def __repr__(self) -> str:
        inner = ', '.join(str(ev) for ev in self.events)
        return f'PreclusionSet([{inner}], {self.provenance!r})'

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
