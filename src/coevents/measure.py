"""Exact quantal measures from amplitudes or a decoherence matrix.

All arithmetic uses Gaussian rationals (complex numbers with `Fraction`
real and imaginary parts), so zero tests, and therefore preclusion, are
exact; no floating point enters anywhere.

The measure of an event A is the double sum of decoherence-matrix entries
over pairs of members of A.  Hermiticity makes the value real; strong
positivity (positive semidefiniteness, decided here exactly by one
symmetric Gaussian elimination) makes it non-negative.  A matrix built
from history amplitudes via :meth:`DecoherenceMatrix.from_amplitudes` is a
sum of outer products and is always strongly positive.  Amplitudes are
used unnormalised: preclusion is scale invariant, so overall constants
are irrelevant and dropping them keeps the arithmetic rational.

Deriving the preclusions enumerates all 2^n events, once per matrix: the
matrix keeps the set, and the null-absorption check reads it and then tests
one row sum per null and history.  Both refuse spaces of more than
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
from dataclasses import dataclass
from fractions import Fraction
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
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, 're', Fraction(self.re))
        object.__setattr__(self, 'im', Fraction(self.im))

    @staticmethod
    def _coerce(value: object) -> 'GaussianRational | None':
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value))
        return None

    @classmethod
    def ensure(cls, value: _Scalar) -> 'GaussianRational':
        coerced = cls._coerce(value)
        if coerced is None:
            raise TypeError(f'cannot interpret {type(value).__name__} as a Gaussian rational')
        return coerced

    def __add__(self, other: _Scalar) -> 'GaussianRational':
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: _Scalar) -> 'GaussianRational':
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: _Scalar) -> 'GaussianRational':
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: _Scalar) -> 'GaussianRational':
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other: _Scalar) -> 'GaussianRational':
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        denom = o.norm_squared()
        if denom == 0:
            raise ZeroDivisionError('division by zero Gaussian rational')
        num = self * o.conjugate()
        return GaussianRational(num.re / denom, num.im / denom)

    def __neg__(self) -> 'GaussianRational':
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> 'GaussianRational':
        return GaussianRational(self.re, -self.im)

    def norm_squared(self) -> Fraction:
        """re² + im², an exact non-negative rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        return render_complex(self)


_RATIONAL = r'-?\d+(?:/\d+)?'
_UNSIGNED = r'\d+(?:/\d+)?'
_COMPLEX_RE = re.compile(
    rf'^(?:(?P<real_only>{_RATIONAL})'
    rf'|(?P<imag_only>{_RATIONAL})i'
    rf'|(?P<real>{_RATIONAL})(?P<sign>[+-])(?P<imag>{_UNSIGNED})i)$')


def _fraction(text: str, position: int) -> Fraction:
    if '/' in text:
        num, _, den = text.partition('/')
        if int(den) == 0:
            raise ParseError('zero denominator', position + len(num) + 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


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
    im_text = match.group('imag')
    im_part = _fraction(im_text, match.start('imag'))
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

    __slots__ = ('space', 'entries', '_preclusions')

    def __init__(self, space: SampleSpace, entries: Sequence[Sequence[_Scalar]]):
        n = space.size
        rows = tuple(tuple(GaussianRational.ensure(e) for e in row) for row in entries)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f'decoherence matrix must be {n}x{n}')
        bad = first_non_hermitian(rows)
        if bad is not None:
            raise ValueError(f'matrix is not Hermitian at {bad}')
        self.space = space
        self.entries = rows
        self._preclusions: PreclusionSet | None = None

    @classmethod
    def from_amplitudes(cls, space: SampleSpace, amplitudes: Sequence[_Scalar],
                        blocks: Iterable[Event] | None = None) -> 'DecoherenceMatrix':
        """D(γ,γ') = α_γ conj(α_γ'), nonzero only within a block.

        `blocks` must partition the space (histories sharing a final
        outcome); by default all histories share one block.
        """
        amps = tuple(GaussianRational.ensure(a) for a in amplitudes)
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
        entries = [[amps[i] * amps[j].conjugate() if block_of[i] == block_of[j] else zero
                    for j in range(n)] for i in range(n)]
        return cls(space, entries)

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
        """μ(A): exact, real; zero means precluded."""
        if event.space != self.space:
            raise SpaceMismatchError('event belongs to a different sample space')
        members = event.indices
        total = GaussianRational()
        for i in members:
            row = self.entries[i]
            for j in members:
                total = total + row[j]
        assert total.im == 0
        return total.re

    def _guard(self, work: str) -> None:
        n = self.space.size
        if n > MEASURE_GUARD:
            raise GuardError(
                f'{work} over {n} histories would enumerate 2^{n} = {1 << n} events, '
                f'past MEASURE_GUARD of {MEASURE_GUARD} histories')

    def preclusions(self) -> 'PreclusionSet':
        """All events of measure zero.  Cost grows as 4^n; derived once."""
        self._guard('preclusion derivation')
        if self._preclusions is None:
            null = [ev for ev in self.space.events() if self.measure(ev) == 0]
            self._preclusions = PreclusionSet(self.space, null, provenance='measure')
        return self._preclusions

    def is_strongly_positive(self) -> bool:
        """Exact positive semidefiniteness, by one symmetric elimination.

        A negative pivot, or a zero pivot with a nonzero entry left in its
        row (which makes a 2x2 principal minor negative), means some
        principal minor is negative.  Otherwise the pivot row, scaled by
        the real pivot, is subtracted from the rows below, and the Hermitian
        remainder (the Schur complement) is checked the same way.
        """
        m = [list(row) for row in self.entries]
        n = len(m)
        for k in range(n):
            pivot = m[k][k].re
            if pivot < 0:
                return False
            if pivot == 0:
                if any(m[k][k + 1:]):
                    return False
                continue
            for i in range(k + 1, n):
                if m[i][k]:
                    factor = m[i][k] * (1 / pivot)
                    m[i][k + 1:] = [a - factor * b for a, b in zip(m[i][k + 1:], m[k][k + 1:])]
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
