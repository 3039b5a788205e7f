"""Output checks that do not reuse the code under test.

The benchmark reads every scenario it generates with its own reader and
re-derives the precluded events with its own integer arithmetic:
denominators are cleared first, amplitude-mode measures are decided by
per-block partial sums (an event is precluded exactly when every block's
partial amplitude sum vanishes), and decoherence-matrix measures by an
incremental subset sum over the real parts.  Scheme answers are parsed
back from the rendered text and checked for the defining properties:

- multiplicative: every answer hits the complement of every precluded
  event and is minimal (each member has an edge that only it hits);
- linear: even overlap with every precluded event, odd support, and
  minimal support (the precluded events restricted to the support have
  GF(2) rank |support| - 1);
- completeness: the answers must be all of them.  The benchmark lists
  the minimal transversals and the odd minimal supports itself, by set
  operations over all 2^n events at once (each family of events is one
  2^n-bit integer), and compares them with the answers as sets;
- at n <= 4 the answers must also equal the brute-force references in
  ``coevents.oracle`` (n <= 3 for ``brute_min_cover``).

Each ``check_*`` function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm

_RATIONAL = r'-?\d+(?:/\d+)?'
_COMPLEX = re.compile(rf'^(?:(?P<re>{_RATIONAL})|(?P<im>{_RATIONAL})i'
                      rf'|(?P<re2>{_RATIONAL})(?P<sign>[+-])(?P<im2>\d+(?:/\d+)?)i)$')
_COEVENT_LINE = re.compile(r'^(\S+)  unital=(yes|no)  complexity=(\d+)$')
_DIAGNOSTIC = re.compile(r'^\d+:\d+: error: \S')

ORACLE_N = 4      # brute_multiplicative / brute_linear enumerate 2^(2^n) tables
MIN_COVER_N = 3   # brute_min_cover is exhaustive over ideals


def parse_gaussian(text: str) -> tuple[Fraction, Fraction]:
    m = _COMPLEX.match(text)
    if m is None:
        raise ValueError(f'not a complex literal: {text!r}')
    if m.group('re') is not None:
        return Fraction(m.group('re')), Fraction(0)
    if m.group('im') is not None:
        return Fraction(0), Fraction(m.group('im'))
    im = Fraction(m.group('im2'))
    return Fraction(m.group('re2')), (-im if m.group('sign') == '-' else im)


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def event_order(mask: int) -> tuple[int, tuple[int, ...]]:
    return mask.bit_count(), tuple(bits(mask))


@dataclass
class Model:
    """What the benchmark knows about a scenario, from its own reading."""

    labels: tuple[str, ...]
    mode: str
    precluded: frozenset[int]
    index: dict[str, int] = field(repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def event(self, text: str) -> int:
        text = text.strip()
        if text.startswith('{'):
            mask = 0
            for label in text[1:-1].split():
                mask |= 1 << self.index[label]
            return mask
        mask = 0
        for label in text.split('+'):
            mask ^= 1 << self.index[label.strip()]
        return mask

    def render_event(self, mask: int) -> str:
        return '{' + ' '.join(self.labels[i] for i in bits(mask)) + '}'

    def poly(self, text: str) -> frozenset[int]:
        """Monomial masks of a coevent polynomial such as ``a*b*+c*``."""
        text = text.strip()
        if text == '0':
            return frozenset()
        masks: set[int] = set()
        for term in text.split('+'):
            mask = 0
            for label in term.split('*'):
                if label and label != '1':
                    mask |= 1 << self.index[label]
            masks ^= {mask}
        return frozenset(masks)

    def is_classical(self) -> bool:
        union = 0
        for z in self.precluded:
            union |= z
        return len(self.precluded) == 1 << union.bit_count()


def evaluate(masks: frozenset[int], event: int) -> int:
    return sum(1 for m in masks if m & event == m) & 1


def complexity(masks: frozenset[int]) -> int:
    return sum(m.bit_count() for m in masks)


def read_scenario(text: str) -> Model:
    """Read scenario text and derive its precluded events independently."""
    labels: list[str] = []
    amps: dict[str, tuple[Fraction, Fraction]] = {}
    blocks: list[list[str]] = []
    rows: list[list[tuple[Fraction, Fraction]]] = []
    events: list[str] = []
    for raw in text.splitlines():
        line = raw.split('#', 1)[0]
        words = line.split()
        if not words:
            continue
        key = words[0]
        if key == 'histories':
            labels = words[1:]
        elif key == 'amplitude':
            amps[words[1]] = parse_gaussian(words[2])
        elif key == 'block':
            blocks.append(words[1:])
        elif key == 'dmatrix':
            rows.append([parse_gaussian(w) for w in words[1:]])
        elif key == 'precluded':
            events.append(line.split('precluded', 1)[1])
    index = {label: i for i, label in enumerate(labels)}
    model = Model(tuple(labels), '', frozenset(), index)
    if amps:
        model.mode = 'amplitudes'
        groups = blocks or [labels]
        zeros = [_zero_sum_subsets([(index[l], amps[l]) for l in g]) for g in groups]
        found = {0}
        for block_zeros in zeros:
            found = {a | b for a in found for b in block_zeros}
        model.precluded = frozenset(found)
    elif rows:
        model.mode = 'dmatrix'
        model.precluded = _matrix_zeros(rows)
    else:
        model.mode = 'explicit'
        model.precluded = frozenset({0} | {model.event(e) for e in events})
    return model


def _clear(values: list[tuple[Fraction, Fraction]]) -> list[tuple[int, int]]:
    scale = lcm(*(part.denominator for v in values for part in v))
    return [(int(re * scale), int(im * scale)) for re, im in values]


def _zero_sum_subsets(members: list[tuple[int, tuple[Fraction, Fraction]]]) -> list[int]:
    """Global masks of the subsets of one block whose amplitudes sum to 0."""
    positions = [p for p, _ in members]
    ints = _clear([v for _, v in members])
    size = 1 << len(members)
    sx, sy, glob = [0] * size, [0] * size, [0] * size
    zeros = [0]
    for m in range(1, size):
        low = m & -m
        j = low.bit_length() - 1
        rest = m ^ low
        sx[m] = sx[rest] + ints[j][0]
        sy[m] = sy[rest] + ints[j][1]
        glob[m] = glob[rest] | 1 << positions[j]
        if sx[m] == 0 and sy[m] == 0:
            zeros.append(glob[m])
    return zeros


def _matrix_zeros(rows: list[list[tuple[Fraction, Fraction]]]) -> frozenset[int]:
    """Events A with sum_{i,j in A} Re D_ij = 0 (imaginary parts cancel)."""
    n = len(rows)
    flat = _clear([e for row in rows for e in row])
    real = [[flat[i * n + j][0] for j in range(n)] for i in range(n)]
    mu = [0] * (1 << n)
    zeros = [0]
    for m in range(1, 1 << n):
        low = m & -m
        k = low.bit_length() - 1
        rest = m ^ low
        row = real[k]
        mu[m] = mu[rest] + row[k] + 2 * sum(row[j] for j in bits(rest))
        if mu[m] == 0:
            zeros.append(m)
    return frozenset(zeros)


def gf2_basis(rows) -> list[int]:
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return list(pivots.values())


def gf2_rank(rows) -> int:
    return len(gf2_basis(rows))


# -- families of events as 2^n-bit integers ------------------------------------
#
# Bit m of a family is set when the event with mask m belongs to it.

@lru_cache(maxsize=4)
def atom_families(n: int) -> tuple[int, ...]:
    """For each history i, the family of the events that contain i."""
    families = []
    for i in range(n):
        period = 2 << i
        family = ((1 << (1 << i)) - 1) << (1 << i)
        while period < 1 << n:
            family |= family << period
            period *= 2
        families.append(family)
    return tuple(families)


def members(family: int) -> list[int]:
    digits = bin(family)[:1:-1]
    found, i = [], digits.find('1')
    while i >= 0:
        found.append(i)
        i = digits.find('1', i + 1)
    return found


def _grown_by_one(family: int, atoms: tuple[int, ...]) -> int:
    """Events that become a member of `family` when one history is removed."""
    grown = 0
    for i, atom in enumerate(atoms):
        grown |= (family & ~atom) << (1 << i)
    return grown


def minimal_transversals(model: Model) -> frozenset[int]:
    """Every inclusion-minimal event that hits every non-precluded complement."""
    if 'transversals' not in model._cache:
        atoms = atom_families(model.n)
        hits_all = (1 << (1 << model.n)) - 1
        for z in model.precluded:
            hits = 0
            for i in bits(model.full & ~z):
                hits |= atoms[i]
            hits_all &= hits
        # hitting every edge is closed upwards, so removing one member suffices
        minimal = hits_all & ~_grown_by_one(hits_all, atoms)
        model._cache['transversals'] = frozenset(members(minimal))
    return model._cache['transversals']


def odd_minimal_supports(model: Model) -> frozenset[int]:
    """Every odd event with even overlaps whose support is inclusion-minimal
    among the nonzero GF(2) solutions of the even-overlap constraints."""
    if 'supports' not in model._cache:
        atoms = atom_families(model.n)
        odd_overlap = 0
        for row in gf2_basis(model.precluded):
            parity = 0
            for i in bits(row):
                parity ^= atoms[i]
            odd_overlap |= parity
        solutions = ((1 << (1 << model.n)) - 1) & ~odd_overlap & ~1
        above = solutions  # the events that contain a nonzero solution
        for i, atom in enumerate(atoms):
            above |= (above & ~atom) << (1 << i)
        odd = 0
        for atom in atoms:
            odd ^= atom
        minimal = solutions & odd & ~_grown_by_one(above, atoms)
        model._cache['supports'] = frozenset(members(minimal))
    return model._cache['supports']


def _missing(scheme: str, model: Model, want: frozenset[int], got: set[int]) -> list[str]:
    missing = want - got
    if not missing:
        return []
    example = model.render_event(min(missing, key=event_order))
    return [f'{scheme}: {len(missing)} of {len(want)} answers missing, e.g. {example}']


# -- parsing rendered results -------------------------------------------------

@dataclass
class Rendered:
    coevents: list[frozenset[int]]
    sets: list[list[frozenset[int]]]
    total: int | None
    uncovered: list[int]


def _coevent_line(model: Model, line: str, problems: list[str]) -> frozenset[int]:
    m = _match(_COEVENT_LINE, line)
    masks = model.poly(m.group(1))
    if (m.group(2) == 'yes') != bool(evaluate(masks, model.full)):
        problems.append(f'wrong unital flag on {line!r}')
    if int(m.group(3)) != complexity(masks):
        problems.append(f'wrong complexity on {line!r}')
    return masks


def _match(pattern: str, line: str) -> re.Match:
    m = re.match(pattern, line)
    if m is None:
        raise ValueError(f'unexpected line {line!r}')
    return m


def parse_text(model: Model, text: str, problems: list[str]) -> Rendered:
    lines = text.splitlines()
    out = Rendered([], [], None, [])
    i = 0
    if lines and lines[0] == 'no viable coevent':
        i = 1
    while i < len(lines) and not lines[i].startswith(('generating ', 'warning: ')):
        out.coevents.append(_coevent_line(model, lines[i], problems))
        i += 1
    if i < len(lines) and lines[i].startswith('generating set: '):
        m = _match(r'generating set: total complexity (\d+), unique$', lines[i])
        out.total = int(m.group(1))
        out.sets.append([])
        i += 1
        while i < len(lines) and lines[i].startswith('  '):
            out.sets[0].append(_coevent_line(model, lines[i][2:], problems))
            i += 1
    elif i < len(lines) and lines[i].startswith('generating sets: '):
        m = _match(r'generating sets: total complexity (\d+), (\d+) alternatives$', lines[i])
        out.total = int(m.group(1))
        i += 1
        while i < len(lines) and lines[i].startswith('  set '):
            out.sets.append([])
            i += 1
            while i < len(lines) and lines[i].startswith('    '):
                out.sets[-1].append(_coevent_line(model, lines[i][4:], problems))
                i += 1
        if len(out.sets) != int(m.group(2)):
            problems.append('alternative count differs from the sets listed')
    prefix = 'warning: unital coevents do not cover all non-precluded events: '
    if i < len(lines) and lines[i].startswith(prefix):
        out.uncovered = [model.event(e + '}') for e in lines[i][len(prefix):].split('}')
                         if e.strip()]
        i += 1
    if i != len(lines):
        raise ValueError(f'unexpected line {lines[i]!r}')
    return out


def parse_json(model: Model, text: str) -> Rendered:
    doc = json.loads(text)
    sets = [[model.poly(p) for p in s] for s in doc.get('generating_sets', [])]
    uncovered = [model.event(e) for e in doc.get('uncovered_by_unital', [])]
    return Rendered([model.poly(p) for p in doc['coevents']], sets,
                    doc['total_complexity'], uncovered)


# -- scheme properties ----------------------------------------------------------

def check_multiplicative(model: Model, answers: list[frozenset[int]]) -> list[str]:
    problems = []
    edges = [model.full & ~z for z in model.precluded]
    if bool(answers) == (model.full in model.precluded):
        problems.append('multiplicative: viability contradicts the precluded set')
    seen = set()
    for masks in answers:
        if len(masks) != 1:
            problems.append('multiplicative: answer is not a single monomial')
            continue
        (t,) = masks
        if t in seen:
            problems.append('multiplicative: duplicate answer')
        seen.add(t)
        private = 0
        for e in edges:
            hit = e & t
            if not hit:
                problems.append(f'multiplicative: {model.render_event(t)} misses a complement')
                break
            if hit & (hit - 1) == 0:
                private |= hit
        else:
            if private != t:
                problems.append(f'multiplicative: {model.render_event(t)} is not minimal')
    return problems + _missing('multiplicative', model, minimal_transversals(model), seen)


def check_linear(model: Model, answers: list[frozenset[int]]) -> list[str]:
    problems = []
    rows = list(model.precluded)
    seen = set()
    for masks in answers:
        support = 0
        for m in masks:
            support |= m
        name = model.render_event(support)
        if any(m.bit_count() != 1 for m in masks):
            problems.append(f'linear: {name} is not a sum of atoms')
            continue
        if support in seen:
            problems.append('linear: duplicate answer')
        seen.add(support)
        if not support.bit_count() & 1:
            problems.append(f'linear: {name} has even support')
        if any((support & z).bit_count() & 1 for z in rows):
            problems.append(f'linear: {name} has an odd overlap with a precluded event')
        elif gf2_rank(z & support for z in rows) != support.bit_count() - 1:
            problems.append(f'linear: {name} does not have minimal support')
    return problems + _missing('linear', model, odd_minimal_supports(model), seen)


def oracle_answers(model: Model, scheme: str):
    """Brute-force reference answers, cached on the model.

    multiplicative / linear: set of coevents (frozensets of monomial masks);
    ideal: (set of generating sets, weight).
    """
    if scheme not in model._cache:
        from coevents import oracle
        from coevents.events import Event, SampleSpace
        from coevents.measure import PreclusionSet
        space = SampleSpace(model.labels)
        pset = PreclusionSet.explicit(space, [Event(space, z) for z in model.precluded])
        if scheme == 'multiplicative':
            value = {phi.masks for phi in oracle.brute_multiplicative(pset)}
        elif scheme == 'linear':
            value = {phi.masks for phi in oracle.brute_linear(pset)}
        else:
            sets, weight = oracle.brute_min_cover(pset)
            value = ({frozenset(phi.masks for phi in s) for s in sets}, weight)
        model._cache[scheme] = value
    return model._cache[scheme]


def _unital_members(model: Model, sets) -> set[frozenset[int]]:
    return {phi for s in sets for phi in s if evaluate(phi, model.full)}


def check_ideal(model: Model, got: Rendered) -> list[str]:
    problems = []
    universe = [a for a in range(1 << model.n) if a not in model.precluded]
    if not universe:
        if got.sets or got.coevents:
            problems.append('ideal: answer given although everything is precluded')
        return problems
    if not got.sets:
        return ['ideal: no generating set reported']
    for s in got.sets:
        if any(not phi for phi in s):
            problems.append('ideal: zero coevent in a generating set')
        if any(evaluate(phi, z) for phi in s for z in model.precluded):
            problems.append('ideal: member is not preclusive')
        if not all(any(evaluate(phi, a) for phi in s) for a in universe):
            problems.append('ideal: set does not cover the non-precluded events')
        if sum(complexity(phi) for phi in s) != got.total:
            problems.append('ideal: total complexity differs from its members')
    unital = _unital_members(model, got.sets)
    if set(got.coevents) != unital or len(got.coevents) != len(unital):
        problems.append('ideal: unital list differs from the unital set members')
    uncovered = [a for a in universe if not any(evaluate(u, a) for u in unital)]
    if sorted(got.uncovered) != sorted(uncovered):
        problems.append('ideal: uncovered-by-unital warning is wrong')
    if model.n <= MIN_COVER_N:
        sets, weight = oracle_answers(model, 'ideal')
        if {frozenset(s) for s in got.sets} != sets or got.total != weight:
            problems.append('ideal: differs from oracle brute_min_cover')
    return problems


def scheme_answers(model: Model, scheme: str) -> set[frozenset[int]]:
    """The admitted coevents, from the oracle (n <= 4; ideal n <= 3)."""
    if scheme == 'ideal':
        sets, _ = oracle_answers(model, 'ideal')
        return _unital_members(model, sets)
    return oracle_answers(model, scheme)


def check_solve(model: Model, scheme: str, fmt: str, code: int, stdout: str) -> list[str]:
    problems: list[str] = []
    got = parse_json(model, stdout) if fmt == 'json' else parse_text(model, stdout, problems)
    if scheme == 'multiplicative':
        problems += check_multiplicative(model, got.coevents)
    elif scheme == 'linear':
        problems += check_linear(model, got.coevents)
    else:
        problems += check_ideal(model, got)
    if scheme != 'ideal' and model.n <= ORACLE_N:
        if set(got.coevents) != oracle_answers(model, scheme):
            problems.append(f'{scheme}: differs from the oracle')
    if code != (0 if got.coevents else 1):
        problems.append(f'exit code {code} does not match the answer count')
    return problems


def check_preclusions(model: Model, stdout: str) -> list[str]:
    got = [model.event(line) for line in stdout.splitlines()]
    want = sorted(model.precluded, key=event_order)
    return [] if got == want else ['preclusions: listed events differ']


def classify(answers, given: list[tuple[int, int]], query: int) -> str:
    survivors = [a for a in answers if all(evaluate(a, e) == b for e, b in given)]
    if not survivors:
        return 'vacuous'
    values = {evaluate(a, query) for a in survivors}
    return {frozenset({1}): 'always-true', frozenset({0}): 'always-false'}.get(
        frozenset(values), 'contingent')


def expected_check_lines(model: Model, flags: set[str]) -> list[str]:
    """Status prefixes the ``check`` subcommand must print, in order."""
    chosen = bool(flags)
    lines = []
    if not chosen or '--strong-positivity' in flags:
        status = 'skipped' if model.mode == 'explicit' else 'PASS'
        lines += [f'strong positivity: {status}', f'null-set absorption: {status}']
    if not chosen or '--classical' in flags:
        if model.is_classical():
            lines += ['classical preclusion set: yes', 'classical limit: PASS']
        else:
            lines += ['classical preclusion set: no']
    if '--oracle' in flags:
        brute = 'PASS' if model.n <= ORACLE_N else 'skipped'
        lines += [f'oracle multiplicative: {brute}', f'oracle linear: {brute}',
                  'oracle ideal: ' + ('PASS' if model.n <= MIN_COVER_N else 'skipped')]
    return lines


def check_cli(model: Model | None, argv: list[str], code: int, stdout: str,
              stderr: str, expect: str) -> list[str]:
    """Check one ``coevents`` invocation; `expect` names the request kind."""
    if 'Traceback' in stderr:
        return ['traceback on stderr']
    if expect in ('malformed', 'guard'):
        problems = []
        if code != 2:
            problems.append(f'{expect} input gave exit {code}, want 2')
        if stdout:
            problems.append(f'{expect} input wrote to stdout')
        lines = stderr.splitlines()
        if not lines:
            problems.append(f'{expect} input gave no diagnostic')
        if expect == 'malformed' and not all(_DIAGNOSTIC.match(l) for l in lines):
            problems.append('malformed input diagnostic lacks line:column')
        return problems
    if stderr:
        return [f'unexpected stderr: {stderr.splitlines()[0]!r}']
    command = argv[0]
    options = _options(argv[2:])
    if command == 'solve':
        return check_solve(model, options['--scheme'], options.get('--format', 'text'),
                           code, stdout)
    if code != 0:
        return [f'{command} exited {code}']
    if command == 'preclusions':
        return check_preclusions(model, stdout)
    if command == 'eval':
        value = evaluate(model.poly(options['--coevent']), model.event(options['--event']))
        return [] if stdout == f'{value}\n' else ['eval: wrong value']
    if command == 'infer':
        given = []
        for item in options.get('--given', []):
            text, _, bit = item.partition('=')
            given.append((model.event(text), int(bit)))
        answers = scheme_answers(model, options['--scheme'])
        want = classify(answers, given, model.event(options['--query']))
        return [] if stdout == want + '\n' else [f'infer: got {stdout.strip()!r}, want {want!r}']
    if command == 'check':
        flags = {a for a in argv[2:] if a.startswith('--')}
        want = expected_check_lines(model, flags)
        got = stdout.splitlines()
        if len(got) != len(want) or not all(g.startswith(w) for g, w in zip(got, want)):
            return [f'check: got {got!r}, want prefixes {want!r}']
        return []
    return [f'unknown command {command!r}']


def _options(args: list[str]) -> dict:
    options: dict = {}
    i = 0
    while i < len(args):
        key = args[i]
        if key in ('--strong-positivity', '--classical', '--oracle'):
            i += 1
            continue
        if key == '--given':
            options.setdefault('--given', []).append(args[i + 1])
        else:
            options[key] = args[i + 1]
        i += 2
    return options


def check_pipeline(model: Model, precluded: frozenset[int], mult_text: str,
                   lin_text: str, positivity) -> list[str]:
    """Check one in-process pipeline request (interference, transversal)."""
    problems: list[str] = []
    if precluded != model.precluded:
        problems.append(f'precluded set differs ({len(precluded)} vs '
                        f'{len(model.precluded)} events)')
    mult = parse_text(model, mult_text, problems)
    lin = parse_text(model, lin_text, problems)
    problems += check_multiplicative(model, mult.coevents)
    problems += check_linear(model, lin.coevents)
    if model.n <= ORACLE_N:
        for scheme, got in (('multiplicative', mult), ('linear', lin)):
            if set(got.coevents) != oracle_answers(model, scheme):
                problems.append(f'{scheme}: differs from the oracle')
    if positivity is not None and positivity != (True, True):
        # every generated matrix is a sum of outer products, hence PSD
        problems.append(f'positivity/absorption reported {positivity}')
    return problems
