"""Scenario files, result rendering, and the bundled examples.

A scenario file is line oriented (only ``\\n``, ``\\r\\n`` and ``\\r`` end a
line); ``#`` starts a comment and directives may appear in any order::

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
and a :class:`ScenarioError` carrying the whole list, in line:column
order, is raised at the end.
:func:`render_scenario` writes a canonical form whose reparse equals the
original parse.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Iterable

from .coevent import Coevent
from .events import (_TOKEN, Event, ParseError, SampleSpace, _label_bit,
                     _label_problems, _Record, canonical_key, parse_event, render_event)
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

# each directive: how many arguments it takes (None: one or more), and the
# diagnostic for a line with another number
_DIRECTIVES = {
    'title': (None, "'title' needs text"),
    'histories': (None, "'histories' needs at least one label"),
    'amplitude': (2, "'amplitude' needs a label and a complex value"),
    'block': (None, "'block' needs at least one label"),
    'dmatrix': (None, "'dmatrix' needs a row of entries"),
    'precluded': (None, "'precluded' needs an event"),
}

# each measure mode and the directives that select it, in reporting order
_MODES = {
    'amplitudes': ('amplitude', 'block'),
    'dmatrix': ('dmatrix',),
    'explicit': ('precluded',),
}


class ParseDiagnostic(_Record):
    """One problem in scenario text; line and column are 1-based."""

    def __init__(self, line: int, column: int, message: str):
        vars(self).update(line=line, column=column, message=message)

    def __str__(self) -> str:
        return f'{self.line}:{self.column}: error: {self.message}'


class ScenarioError(Exception):
    """Scenario text failed to parse; `diagnostics` lists every problem."""

    def __init__(self, diagnostics: Iterable[ParseDiagnostic]):
        self.diagnostics = tuple(diagnostics)
        assert self.diagnostics
        super().__init__('\n'.join(str(d) for d in self.diagnostics))


class Scenario(_Record):
    """A parsed scenario: a sample space plus one way of fixing the zeros."""

    def __init__(self, space: SampleSpace, mode: str, title: str | None = None,
                 amplitudes: tuple[GaussianRational, ...] | None = None,
                 blocks: tuple[Event, ...] | None = None, dmatrix: DecoherenceMatrix | None = None,
                 precluded: tuple[Event, ...] | None = None):
        vars(self).update(space=space, mode=mode, title=title, amplitudes=amplitudes,
                          blocks=blocks, dmatrix=dmatrix, precluded=precluded)

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
    space: SampleSpace | None = None
    title: str | None = None
    has_histories = False
    found: dict[str, list] = {word: [] for words in _MODES.values() for word in words}
    # only \n, \r\n and \r end a line, as in universal-newline reading;
    # str.splitlines would also split at form feeds, U+2028 and the like
    lines = text.replace('\r\n', '\n').replace('\r', '\n').split('\n')
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split('#', 1)[0]
        tokens = line.split()  # _TOKEN's tokens (both split at str.isspace), minus columns
        if not tokens:
            continue
        word = tokens[0]
        count, needs = _DIRECTIVES.get(word, (None, None))
        if word == 'histories' and has_histories:
            _report(diags, lineno, _columns(line)[0], "duplicate 'histories' directive")
        elif word == 'histories':
            has_histories = True
            space = _parse_histories(lineno, line, tokens, diags)
        elif needs is None:
            _report(diags, lineno, _columns(line)[0], f'unknown directive {word!r}')
        elif word == 'title' and title is not None:
            _report(diags, lineno, _columns(line)[0], "duplicate 'title' directive")
        elif len(tokens) == 1 or count and len(tokens) - 1 != count:
            _report(diags, lineno, _columns(line)[0], needs)
        elif word == 'title':
            title = line.lstrip()[len('title'):].strip()
        else:
            found[word].append((lineno, line, tokens))
    if not has_histories:
        _report(diags, 1, 1, "missing 'histories' directive")

    mode = None
    present = [m for m, words in _MODES.items() if any(map(found.get, words))]
    if not present:
        _report(diags, 1, 1, 'scenario fixes no measure: need amplitude lines, '
                             'dmatrix rows, or precluded events')
    elif len(present) > 1:
        _report(diags, 1, 1, 'conflicting measure modes: ' + ' and '.join(present))
    elif present == ['amplitudes'] and not found['amplitude']:
        _report(diags, found['block'][0][0], 1, "'block' lines without 'amplitude' lines")
    else:
        mode = present[0]

    # each resolver reports every problem it finds; with any, its result is dropped
    fields = {}
    if space is not None and mode == 'amplitudes':
        fields = _resolve_amplitudes(space, found['amplitude'], found['block'], diags)
    elif space is not None and mode == 'dmatrix':
        fields = {'dmatrix': _resolve_dmatrix(space, found['dmatrix'], diags)}
    elif space is not None and mode == 'explicit':
        events = set()
        for lineno, line, _ in found['precluded']:
            event_text = line.lstrip()[len('precluded'):]
            start = len(line) - len(event_text) + 1  # its column
            try:
                events.add(parse_event(event_text, space))
            except ParseError as exc:
                _report(diags, lineno, start, exc)
        fields = {'precluded': tuple(sorted(events, key=lambda ev: canonical_key(ev.bits)))}

    if diags:  # in (line, column) order; a stable sort keeps each place's own order
        raise ScenarioError(sorted(diags, key=lambda d: (d.line, d.column)))
    return Scenario(space=space, mode=mode, title=title, **fields)


def _report(diags: list, lineno: int, column: int, problem: str | ParseError) -> None:
    """Add a diagnostic: `problem` is a message, or a ParseError raised on
    text that starts at 1-based `column`, placed by its own position."""
    if isinstance(problem, ParseError):
        column, problem = column + problem.position, problem.message
    diags.append(ParseDiagnostic(lineno, column, problem))


@functools.lru_cache(maxsize=1)  # one line's problems are reported in turn
def _columns(line: str) -> tuple[int, ...]:
    """The 1-based column of each token of `line`; wanted only for diagnostics."""
    return tuple(m.start() + 1 for m in _TOKEN.finditer(line))


def _outside(space: SampleSpace, mask: int) -> str:
    """The labels of the histories not in `mask`, quoted and comma separated."""
    return ', '.join(repr(label) for i, label in enumerate(space.names)
                     if not mask >> i & 1)


def _parse_histories(lineno, line, tokens, diags) -> SampleSpace | None:
    labels = tokens[1:]
    if not labels:
        _report(diags, lineno, _columns(line)[0], _DIRECTIVES['histories'][1])
        return None
    try:
        return SampleSpace(labels)
    except ValueError as exc:  # label problems, each at its column; else the size guard
        reported = len(diags)
        for k, problem in _label_problems(labels):  # '#' was cut with the comment
            _report(diags, lineno, _columns(line)[k + 1], problem)
        if len(diags) == reported:
            _report(diags, lineno, _columns(line)[0], str(exc))
        return None


def _resolve_amplitudes(space, amp_lines, block_lines, diags):
    full = (1 << space.size) - 1
    values: dict[int, GaussianRational] = {}  # by history bit
    given = 0  # histories with an amplitude line, parsed or not
    for lineno, line, (_, label, number) in amp_lines:
        try:
            bit = _label_bit(space, label, 0)
        except ParseError as exc:
            _report(diags, lineno, _columns(line)[1], exc)
            continue
        if given & bit:  # a second line for the history, whether or not the first parsed
            _report(diags, lineno, _columns(line)[1], f'duplicate amplitude for {label!r}')
            continue
        given |= bit
        try:
            values[bit] = parse_complex(number)
        except ParseError as exc:
            _report(diags, lineno, _columns(line)[2], exc)
    if given != full:
        _report(diags, amp_lines[0][0], 1, 'missing amplitude for ' + _outside(space, given))

    covered = 0
    blocks = [] if block_lines else [full]
    for lineno, line, tokens in block_lines:
        bits = 0
        for k in range(1, len(tokens)):
            try:
                bit = _label_bit(space, tokens[k], 0)
            except ParseError as exc:
                _report(diags, lineno, _columns(line)[k], exc)
                continue
            if (bits | covered) & bit:
                _report(diags, lineno, _columns(line)[k],
                        f'history {tokens[k]!r} already placed in a block')
                continue
            bits |= bit
        covered |= bits
        blocks.append(bits)
    if block_lines and covered != full:
        _report(diags, block_lines[0][0], 1, 'blocks do not cover ' + _outside(space, covered))
    return {'amplitudes': tuple(values.get(1 << i) for i in range(space.size)),
            'blocks': tuple(Event(space, bits) for bits in sorted(blocks, key=canonical_key))}


def _resolve_dmatrix(space, dmatrix_lines, diags):
    n = space.size
    if len(dmatrix_lines) != n:
        _report(diags, dmatrix_lines[0][0], 1,
                f'dmatrix needs {n} rows, got {len(dmatrix_lines)}')
        return None
    rows: list[list[GaussianRational]] = []
    for lineno, line, tokens in dmatrix_lines:
        if len(tokens) != n + 1:
            _report(diags, lineno, _columns(line)[1],
                    f'dmatrix row needs {n} entries, got {len(tokens) - 1}')
            continue
        row = []
        for k in range(1, n + 1):
            try:
                row.append(parse_complex(tokens[k]))
            except ParseError as exc:
                _report(diags, lineno, _columns(line)[k], exc)
        if len(row) == n:
            rows.append(row)
    if len(rows) != n:
        return None
    try:
        return DecoherenceMatrix(space, rows)
    except ValueError:  # not Hermitian; the constructor checked, so find where
        i, j = first_non_hermitian(rows)
        lineno, line, _ = dmatrix_lines[j]
        _report(diags, lineno, _columns(line)[i + 1],
                f'matrix is not Hermitian at row {j + 1}, column {i + 1}')
        return None


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
        import json  # loaded on first use: text output never needs it
        return json.dumps(_result_document(result), indent=2) + '\n'
    if format != 'text':
        raise ValueError(f"format must be 'text' or 'json', got {format!r}")
    # tied ideal sets share members: render each distinct one once
    line = functools.cache(_coevent_line) if result.scheme == 'ideal' else _coevent_line
    lines = [line(phi) for phi in result.coevents] or ['no viable coevent']
    if result.scheme == 'ideal' and result.generating_sets:
        if result.unique:
            lines.append(f'generating set: total complexity {result.total_complexity}, unique')
            lines.extend('  ' + line(phi) for phi in result.generating_sets[0])
        else:
            count = len(result.generating_sets)
            lines.append(f'generating sets: total complexity {result.total_complexity}, '
                         f'{count} alternatives')
            for k, members in enumerate(result.generating_sets, start=1):
                lines.append(f'  set {k}:')
                lines.extend('    ' + line(phi) for phi in members)
    if result.uncovered_by_unital:
        shown = ' '.join(render_event(e) for e in result.uncovered_by_unital)
        lines.append('warning: unital coevents do not cover all '
                     f'non-precluded events: {shown}')
    return '\n'.join(lines) + '\n'


def _result_document(result: SchemeResult) -> dict:
    text = functools.cache(str) if result.scheme == 'ideal' else str
    document = {
        'scheme': result.scheme,
        'coevents': [text(phi) for phi in result.coevents],
        'total_complexity': result.total_complexity,
        'unique': result.unique,
    }
    if result.scheme == 'ideal' and result.generating_sets is not None:
        members = sorted({phi for s in result.generating_sets for phi in s}, key=text)
        document['generating_set'] = [
            {'polynomial': text(phi), 'unital': phi.is_unital(),
             'complexity': phi.complexity}
            for phi in members]
        document['generating_sets'] = [[text(phi) for phi in s]
                                       for s in result.generating_sets]
        document['uncovered_by_unital'] = [render_event(e)
                                           for e in result.uncovered_by_unital]
    document['diagnostics'] = dict(result.diagnostics)
    return document


_DATA = os.path.join(os.path.dirname(__file__), 'data')  # the bundled scenario files


@functools.cache  # the package data does not change while it runs
def bundled_names() -> tuple[str, ...]:
    """Names of the files in the package's ``data`` folder, sorted."""
    return tuple(sorted(n for n in os.listdir(_DATA) if os.path.isfile(os.path.join(_DATA, n))))


def load_bundled(name: str) -> str:
    """Text of bundled file `name`, which must be in `bundled_names()`: no other path is read."""
    known = bundled_names()
    if name not in known:
        raise ValueError(f'unknown bundled scenario {name!r}; bundled: {", ".join(known)}')
    with open(os.path.join(_DATA, name), encoding='utf-8') as file:
        return file.read()
