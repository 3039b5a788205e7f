"""Scenario files, result rendering, and the bundled examples.

A scenario file is line oriented; ``#`` starts a comment and directives
may appear in any order::

    title <free text>              optional, at most once
    histories <label>+             required, exactly once
    amplitude <label> <complex>    measure mode A: one line per history
    block <label>+                 mode A only, repeatable; the blocks
                                   partition the histories (default: one
                                   block holding all of them)
    dmatrix <complex> ... <complex>   mode B: n rows of n entries
    precluded <event>              mode C: repeatable

Exactly one of the three measure modes must be present.  Events use the
``{a c}`` / ``a+c`` syntax and complex entries the exact rational grammar
(``1``, ``-1/2``, ``3/2-1/2i``, ``2i``).

Parsing never raises on malformed text mid-stream: every problem found is
collected as a :class:`ParseDiagnostic` with a 1-based line and column,
and a :class:`ScenarioError` carrying the whole list is raised at the end.
:func:`render_scenario` writes a canonical form whose reparse equals the
original parse.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterable

from .coevent import Coevent
from .events import (_RESERVED_CHARS, Event, GuardError, ParseError, SampleSpace,
                     canonical_key, parse_event, render_event)
from .measure import (DecoherenceMatrix, GaussianRational, PreclusionSet,
                      first_non_hermitian, parse_complex, render_complex)
from .schemes import SchemeResult

__all__ = [
    'ParseDiagnostic',
    'Scenario',
    'ScenarioError',
    'bundled_names',
    'load_bundled',
    'parse_scenario',
    'render_result',
    'render_scenario',
]

_MODES = ('amplitudes', 'dmatrix', 'explicit')
_TOKEN = re.compile(r'\S+')


@dataclass(frozen=True)
class ParseDiagnostic:
    """One problem in scenario text; line and column are 1-based."""

    line: int
    column: int
    message: str
    severity: str = 'error'

    def __str__(self) -> str:
        return f'{self.line}:{self.column}: {self.severity}: {self.message}'


class ScenarioError(Exception):
    """Scenario text failed to parse; `diagnostics` lists every problem."""

    def __init__(self, diagnostics: Iterable[ParseDiagnostic]):
        self.diagnostics = tuple(diagnostics)
        assert self.diagnostics
        super().__init__('\n'.join(str(d) for d in self.diagnostics))


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: a sample space plus one way of fixing the zeros."""

    space: SampleSpace
    mode: str
    title: str | None = None
    amplitudes: tuple[GaussianRational, ...] | None = None
    blocks: tuple[Event, ...] | None = None
    dmatrix: DecoherenceMatrix | None = None
    precluded: tuple[Event, ...] | None = None

    def decoherence_matrix(self) -> DecoherenceMatrix | None:
        """The matrix behind the measure; None for explicit preclusions."""
        return self._matrix

    @functools.cached_property
    def _matrix(self) -> DecoherenceMatrix | None:
        # built on first use and kept; not a field, so outside ==, hash and repr
        if self.mode == 'amplitudes':
            return DecoherenceMatrix.from_amplitudes(
                self.space, self.amplitudes, self.blocks)
        return self.dmatrix  # None in explicit mode

    def preclusion_set(self) -> PreclusionSet:
        if self.mode == 'explicit':
            return PreclusionSet.explicit(self.space, self.precluded)
        return self.decoherence_matrix().preclusions()


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises :class:`ScenarioError` with all problems."""
    diags: list[ParseDiagnostic] = []

    entries: list[tuple[int, str, list[tuple[str, int]]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split('#', 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]
        if tokens:
            entries.append((lineno, line, tokens))

    # histories first: everything else resolves labels against the space
    space = None
    histories_seen = False
    for lineno, _, tokens in entries:
        if tokens[0][0] != 'histories':
            continue
        if histories_seen:
            diags.append(ParseDiagnostic(lineno, tokens[0][1],
                                         "duplicate 'histories' directive"))
            continue
        histories_seen = True
        labels = tokens[1:]
        if not labels:
            diags.append(ParseDiagnostic(lineno, tokens[0][1],
                                         "'histories' needs at least one label"))
            continue
        ok = True
        seen: set[str] = set()
        for label, col in labels:
            if not _RESERVED_CHARS.isdisjoint(label):  # '#' was cut with the comment
                diags.append(ParseDiagnostic(
                    lineno, col, f'history label {label!r} contains a reserved character'))
                ok = False
            elif label in seen:
                diags.append(ParseDiagnostic(
                    lineno, col, f'duplicate history label {label!r}'))
                ok = False
            seen.add(label)
        if ok:
            try:
                space = SampleSpace(label for label, _ in labels)
            except (ValueError, GuardError) as exc:
                diags.append(ParseDiagnostic(lineno, tokens[0][1], str(exc)))
    if not histories_seen:
        diags.append(ParseDiagnostic(1, 1, "missing 'histories' directive"))

    title: str | None = None
    amp_lines: list[tuple[int, list[tuple[str, int]]]] = []
    block_lines: list[tuple[int, list[tuple[str, int]]]] = []
    dmatrix_lines: list[tuple[int, list[tuple[str, int]]]] = []
    precluded_lines: list[tuple[int, int, str]] = []

    for lineno, line, tokens in entries:
        word, col = tokens[0]
        rest = tokens[1:]
        if word == 'histories':
            continue
        if word == 'title':
            value = line[col - 1 + len('title'):].strip()
            if title is not None:
                diags.append(ParseDiagnostic(lineno, col, "duplicate 'title' directive"))
            elif not value:
                diags.append(ParseDiagnostic(lineno, col, "'title' needs text"))
            else:
                title = value
        elif word == 'amplitude':
            if len(rest) != 2:
                diags.append(ParseDiagnostic(
                    lineno, col, "'amplitude' needs a label and a complex value"))
            else:
                amp_lines.append((lineno, rest))
        elif word == 'block':
            if not rest:
                diags.append(ParseDiagnostic(lineno, col,
                                             "'block' needs at least one label"))
            else:
                block_lines.append((lineno, rest))
        elif word == 'dmatrix':
            if not rest:
                diags.append(ParseDiagnostic(lineno, col,
                                             "'dmatrix' needs a row of entries"))
            else:
                dmatrix_lines.append((lineno, rest))
        elif word == 'precluded':
            start = col - 1 + len('precluded')
            event_text = line[start:]
            if not event_text.strip():
                diags.append(ParseDiagnostic(lineno, col, "'precluded' needs an event"))
            else:
                precluded_lines.append((lineno, start + 1, event_text))
        else:
            diags.append(ParseDiagnostic(lineno, col, f'unknown directive {word!r}'))

    mode_markers = {
        'amplitudes': bool(amp_lines) or bool(block_lines),
        'dmatrix': bool(dmatrix_lines),
        'explicit': bool(precluded_lines),
    }
    present = [m for m in _MODES if mode_markers[m]]
    mode = present[0] if len(present) == 1 else None
    if not present:
        diags.append(ParseDiagnostic(
            1, 1, 'scenario fixes no measure: need amplitude lines, dmatrix rows, '
                  'or precluded events'))
    elif len(present) > 1:
        diags.append(ParseDiagnostic(
            1, 1, 'conflicting measure modes: ' + ' and '.join(present)))
    if mode == 'amplitudes' and not amp_lines:
        diags.append(ParseDiagnostic(block_lines[0][0], 1,
                                     "'block' lines without 'amplitude' lines"))
        mode = None

    amplitudes = blocks = dmatrix = precluded = None
    if space is not None and mode == 'amplitudes':
        amplitudes, blocks = _resolve_amplitudes(space, amp_lines, block_lines, diags)
    elif space is not None and mode == 'dmatrix':
        dmatrix = _resolve_dmatrix(space, dmatrix_lines, diags)
    elif space is not None and mode == 'explicit':
        events = []
        for lineno, column, event_text in precluded_lines:
            try:
                events.append(parse_event(event_text, space))
            except ParseError as exc:
                diags.append(ParseDiagnostic(lineno, column + exc.position, exc.message))
        precluded = tuple(sorted(set(events), key=lambda ev: canonical_key(ev.bits)))

    if diags:
        raise ScenarioError(diags)
    return Scenario(space=space, mode=mode, title=title, amplitudes=amplitudes,
                    blocks=blocks, dmatrix=dmatrix, precluded=precluded)


def _resolve_amplitudes(space, amp_lines, block_lines, diags):
    n = space.size
    values: dict[int, GaussianRational] = {}
    given: set[int] = set()  # histories with an amplitude line, parsed or not
    for lineno, ((label, lcol), (number, ncol)) in amp_lines:
        try:
            index = space.index(label)
        except ValueError:
            diags.append(ParseDiagnostic(lineno, lcol, f'unknown history label {label!r}'))
            continue
        given.add(index)
        if index in values:
            diags.append(ParseDiagnostic(lineno, lcol, f'duplicate amplitude for {label!r}'))
            continue
        try:
            values[index] = parse_complex(number)
        except ParseError as exc:
            diags.append(ParseDiagnostic(lineno, ncol + exc.position, exc.message))
    missing = [space.names[i] for i in range(n) if i not in given]
    if missing and amp_lines:
        diags.append(ParseDiagnostic(
            amp_lines[0][0], 1,
            'missing amplitude for ' + ', '.join(repr(m) for m in missing)))

    covered = 0
    block_events: list[Event] = []
    for lineno, tokens in block_lines:
        bits = 0
        for label, col in tokens:
            try:
                bit = 1 << space.index(label)
            except ValueError:
                diags.append(ParseDiagnostic(lineno, col, f'unknown history label {label!r}'))
                continue
            if bits & bit or covered & bit:
                diags.append(ParseDiagnostic(lineno, col,
                                             f'history {label!r} already placed in a block'))
                continue
            bits |= bit
        covered |= bits
        if bits:
            block_events.append(Event(space, bits))
    if block_lines and covered != (1 << n) - 1:
        loose = [space.names[i] for i in range(n) if not covered >> i & 1]
        diags.append(ParseDiagnostic(
            block_lines[0][0], 1,
            'blocks do not cover ' + ', '.join(repr(m) for m in loose)))
    if not block_lines:
        block_events = [space.full]

    if missing or len(values) != n:
        return None, None
    amplitudes = tuple(values[i] for i in range(n))
    blocks = tuple(sorted(block_events, key=lambda ev: canonical_key(ev.bits)))
    return amplitudes, blocks


def _resolve_dmatrix(space, dmatrix_lines, diags):
    n = space.size
    if len(dmatrix_lines) != n:
        diags.append(ParseDiagnostic(
            dmatrix_lines[0][0], 1,
            f'dmatrix needs {n} rows, got {len(dmatrix_lines)}'))
        return None
    rows: list[list[GaussianRational]] = []
    positions: list[list[tuple[int, int]]] = []
    ok = True
    for lineno, tokens in dmatrix_lines:
        if len(tokens) != n:
            diags.append(ParseDiagnostic(lineno, tokens[0][1],
                                         f'dmatrix row needs {n} entries, got {len(tokens)}'))
            ok = False
            continue
        row = []
        pos = []
        for number, col in tokens:
            try:
                row.append(parse_complex(number))
            except ParseError as exc:
                diags.append(ParseDiagnostic(lineno, col + exc.position, exc.message))
                ok = False
                continue
            pos.append((lineno, col))
        if len(row) == n:
            rows.append(row)
            positions.append(pos)
    if not ok or len(rows) != n:
        return None
    bad = first_non_hermitian(rows)
    if bad is not None:
        i, j = bad
        lineno, col = positions[j][i]
        diags.append(ParseDiagnostic(
            lineno, col, f'matrix is not Hermitian at row {j + 1}, column {i + 1}'))
        return None
    return DecoherenceMatrix(space, rows)


def render_scenario(scenario: Scenario) -> str:
    """Canonical text whose reparse equals `scenario`."""
    lines = []
    if scenario.title is not None:
        lines.append(f'title {scenario.title}')
    lines.append('histories ' + ' '.join(scenario.space.names))
    if scenario.mode == 'amplitudes':
        for label, amp in zip(scenario.space.names, scenario.amplitudes):
            lines.append(f'amplitude {label} {render_complex(amp)}')
        for block in scenario.blocks:
            lines.append('block ' + ' '.join(block.labels))
    elif scenario.mode == 'dmatrix':
        for row in scenario.dmatrix.entries:
            lines.append('dmatrix ' + ' '.join(render_complex(e) for e in row))
    else:
        for event in scenario.precluded:
            lines.append(f'precluded {render_event(event)}')
    return '\n'.join(lines) + '\n'


def _coevent_line(phi: Coevent) -> str:
    unital = 'yes' if phi.is_unital() else 'no'
    return f'{phi}  unital={unital}  complexity={phi.complexity}'


def render_result(result: SchemeResult, format: str = 'text') -> str:
    """Render a solve outcome; identical inputs give identical bytes."""
    if format == 'json':
        return json.dumps(_result_document(result), indent=2) + '\n'
    if format != 'text':
        raise ValueError(f"format must be 'text' or 'json', got {format!r}")
    lines = []
    if result.coevents:
        lines.extend(_coevent_line(phi) for phi in result.coevents)
    else:
        lines.append('no viable coevent')
    if result.scheme == 'ideal' and result.generating_sets:
        if result.unique:
            lines.append(f'generating set: total complexity {result.total_complexity}, unique')
            lines.extend('  ' + _coevent_line(phi) for phi in result.generating_sets[0])
        else:
            count = len(result.generating_sets)
            lines.append(f'generating sets: total complexity {result.total_complexity}, '
                         f'{count} alternatives')
            for k, members in enumerate(result.generating_sets, start=1):
                lines.append(f'  set {k}:')
                lines.extend('    ' + _coevent_line(phi) for phi in members)
    if result.uncovered_by_unital:
        shown = ' '.join(render_event(e) for e in result.uncovered_by_unital)
        lines.append('warning: unital coevents do not cover all '
                     f'non-precluded events: {shown}')
    return '\n'.join(lines) + '\n'


def _result_document(result: SchemeResult) -> dict:
    document = {
        'scheme': result.scheme,
        'coevents': [str(phi) for phi in result.coevents],
        'total_complexity': result.total_complexity,
        'unique': result.unique,
    }
    if result.scheme == 'ideal' and result.generating_sets is not None:
        members = sorted({phi for s in result.generating_sets for phi in s}, key=str)
        document['generating_set'] = [
            {'polynomial': str(phi), 'unital': phi.is_unital(),
             'complexity': phi.complexity}
            for phi in members]
        document['generating_sets'] = [[str(phi) for phi in s]
                                       for s in result.generating_sets]
        document['uncovered_by_unital'] = [render_event(e)
                                           for e in result.uncovered_by_unital]
    document['diagnostics'] = dict(result.diagnostics)
    return document


def bundled_names() -> tuple[str, ...]:
    """Names of the scenario files shipped with the package."""
    folder = resources.files('coevents').joinpath('data')
    return tuple(sorted(entry.name for entry in folder.iterdir() if entry.is_file()))


def load_bundled(name: str) -> str:
    """Text of a bundled scenario file."""
    entry = resources.files('coevents').joinpath('data').joinpath(name)
    if not entry.is_file():
        known = ', '.join(bundled_names())
        raise ValueError(f'unknown bundled scenario {name!r}; bundled: {known}')
    return entry.read_text(encoding='utf-8')
