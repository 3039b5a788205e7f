"""The three benchmark workloads: seeded inputs and how a request runs.

Every workload is an endless series of *cycles*.  A cycle has a fixed
composition of request kinds and sizes; only the contents come from the
seed.  Runs stop at a cycle boundary, so two seeds measure the same mix of
work and differ only in what the scenarios say.

interference
    Unique amplitude-mode and decoherence-matrix scenarios at n = 10-12.
    The paper's physical path: ``measure`` does nearly all the work, by
    subset sums (``preclusions``) and by principal minors (positivity);
    ``schemes`` is nearly idle and no input repeats.
transversal
    Unique explicit-mode scenarios.  Multiplicative part: n = 13-15 with
    70-90 random half-size precluded events (a set-system sweep over tens
    of thousands of candidates).  Linear part: n = 18-20 with one to four
    constraints, so that 2^14-2^19 GF(2) solutions are listed; the largest
    sets the peak memory.  ``measure`` is bypassed, and the long precluded
    lists give the scenario parser real work.
cli_mix
    Small scenarios (n <= 4) sent through ``cli.main`` in process: the four
    bundled scenarios plus seeded random ones in all three measure modes,
    all five subcommands and all three schemes, plus malformed and
    over-guard inputs that must exit 2.  Scenarios repeat, so work shared
    across requests shows; the tail is the ideal scheme and the oracle.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ('interference', 'transversal', 'cli_mix')
BUNDLED = ('ab_correlation', 'everything_precluded', 'three_slit', 'two_slit')

# (measure mode, n, also run positivity and absorption) per interference request
INTERFERENCE = {'full': (('amplitudes', 10, False), ('amplitudes', 11, False),
                         ('amplitudes', 12, False), ('dmatrix', 11, False),
                         ('dmatrix', 10, True)),
                'tiny': (('amplitudes', 5, False), ('amplitudes', 6, False),
                         ('dmatrix', 5, True))}
# (n, number of precluded events, event size) per transversal request
TRANSVERSAL = {'full': ((13, 70, 6), (14, 80, 7), (15, 90, 7),
                        (18, 4, 9), (19, 2, 9), (20, 1, 10)),
               'tiny': ((8, 12, 4), (9, 12, 4), (11, 1, 5))}

DEADLINE_S = {'pipeline': 60.0, 'cli': 5.0, 'guard': 1.0, 'malformed': 1.0}


@dataclass
class Request:
    """One request: a label for its kind, what to run, and how to check it."""

    label: str
    kind: str                  # 'pipeline' | 'cli'
    expect: str                # 'pipeline' | 'ok' | 'malformed' | 'guard'
    text: str | None = None    # pipeline: scenario text
    positivity: bool = False   # pipeline: also run positivity and absorption
    argv: tuple[str, ...] = ()  # cli: arguments after the program name
    scenario: str | None = None  # cli: key into the scenario table

    @property
    def key(self) -> str:
        """Identity of the input, for the repeated-input share."""
        if self.kind == 'pipeline':
            return f'{self.positivity}:{self.text}'
        return '\0'.join(self.argv[:1] + (self.scenario or '',) + self.argv[2:])

    @property
    def deadline_s(self) -> float:
        return DEADLINE_S[self.kind if self.expect == 'ok' else self.expect]


# -- scenario text -----------------------------------------------------------

def complex_text(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return str(re)
    if re == 0:
        return f'{im}i'
    sign = '+' if im > 0 else '-'
    return f'{re}{sign}{abs(im)}i'


def _gaussian(rng: random.Random, bound: int = 3, allow_zero: bool = False) -> tuple[int, int]:
    while True:
        z = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if allow_zero or z != (0, 0):
            return z


def _planted_block(rng: random.Random, size: int) -> list[tuple[int, int]]:
    """Amplitudes with one or two planted cancellations (pairs or triples)."""
    amps = [_gaussian(rng) for _ in range(size)]
    order = list(range(size))
    rng.shuffle(order)
    relations = 1 if size < 5 else rng.randint(1, 2)
    for _ in range(relations):
        if len(order) >= 3 and rng.random() < 0.5:
            i, j, k = order.pop(), order.pop(), order.pop()
            amps[k] = (-amps[i][0] - amps[j][0], -amps[i][1] - amps[j][1])
            if amps[k] == (0, 0):
                amps[k] = (-amps[i][0], -amps[i][1])
        elif len(order) >= 2:
            i, j = order.pop(), order.pop()
            amps[j] = (-amps[i][0], -amps[i][1])
    return amps


def amplitude_scenario(rng: random.Random, labels: list[str], max_blocks: int = 4) -> str:
    n = len(labels)
    sizes = [2] * rng.randint(1, min(max_blocks, n // 2))
    for _ in range(n - 2 * len(sizes)):
        sizes[rng.randrange(len(sizes))] += 1
    order = list(range(n))
    rng.shuffle(order)
    groups, start = [], 0
    for size in sizes:
        groups.append(sorted(order[start:start + size]))
        start += size
    lines = [f'title random interference, {n} histories, {len(groups)} blocks',
             'histories ' + ' '.join(labels)]
    blocks = []
    for group in groups:
        denominator = rng.choice((1, 1, 2, 3))
        for index, (x, y) in zip(group, _planted_block(rng, len(group))):
            value = complex_text(Fraction(x, denominator), Fraction(y, denominator))
            lines.append(f'amplitude {labels[index]} {value}')
        blocks.append('block ' + ' '.join(labels[i] for i in group))
    if len(groups) > 1:
        lines += blocks
    return '\n'.join(lines) + '\n'


def dmatrix_scenario(rng: random.Random, labels: list[str], rank: int) -> str:
    """D = sum of outer products v v^dagger, so strongly positive, with
    anti-copied histories (v(j) = -v(i) in every vector) planting nulls."""
    n = len(labels)
    order = list(range(n))
    rng.shuffle(order)
    pairs = [(order.pop(), order.pop()) for _ in range(1 if n < 6 else rng.randint(1, 2))]
    vectors = []
    for _ in range(rank):
        v = [_gaussian(rng, 2, allow_zero=True) for _ in range(n)]
        for i, j in pairs:
            v[j] = (-v[i][0], -v[i][1])
        vectors.append(v)
    scale = rng.choice((1, 2, 4))
    lines = [f'title random decoherence matrix, {n} histories, rank {rank}',
             'histories ' + ' '.join(labels)]
    for i in range(n):
        row = []
        for j in range(n):
            # v_i * conj(v_j) summed over the vectors
            re = sum(v[i][0] * v[j][0] + v[i][1] * v[j][1] for v in vectors)
            im = sum(v[i][1] * v[j][0] - v[i][0] * v[j][1] for v in vectors)
            row.append(complex_text(Fraction(re, scale), Fraction(im, scale)))
        lines.append('dmatrix ' + ' '.join(row))
    return '\n'.join(lines) + '\n'


def explicit_scenario(rng: random.Random, labels: list[str], count: int, size: int) -> str:
    n = len(labels)
    chosen: set[tuple[int, ...]] = set()
    while len(chosen) < count:
        chosen.add(tuple(sorted(rng.sample(range(n), size))))
    lines = [f'title random preclusions, {n} histories, {count} events',
             'histories ' + ' '.join(labels)]
    for members in sorted(chosen):
        names = [labels[i] for i in members]
        if rng.random() < 0.25:
            lines.append('precluded ' + '+'.join(names))
        else:
            lines.append('precluded {' + ' '.join(names) + '}')
    return '\n'.join(lines) + '\n'


def history_labels(n: int) -> list[str]:
    return [f'h{i}' for i in range(n)]


# -- cycles ------------------------------------------------------------------

def interference_cycles(rng: random.Random, size: str = 'full'):
    while True:
        cycle = []
        for mode, n, positivity in INTERFERENCE[size]:
            if mode == 'amplitudes':
                text = amplitude_scenario(rng, history_labels(n))
            else:
                # rank fixed: the cost of the principal minors grows with it
                text = dmatrix_scenario(rng, history_labels(n), 3)
            cycle.append(Request(f'{mode}-n{n}' + ('+positivity' if positivity else ''),
                                 'pipeline', 'pipeline', text=text, positivity=positivity))
        yield cycle


def transversal_cycles(rng: random.Random, size: str = 'full'):
    while True:
        cycle = []
        for n, count, width in TRANSVERSAL[size]:
            text = explicit_scenario(rng, history_labels(n), count, width)
            cycle.append(Request(f'explicit-n{n}-k{count}', 'pipeline', 'pipeline', text=text))
        yield cycle


MALFORMED = (
    'histories a b\nprecluded {a zz}\n',
    'histories a b\namplitude a 1/0\namplitude b 1\n',
    'histories a a\nprecluded {a}\n',
    'histories a b\nfrobnicate 3\nprecluded {a}\n',
    'histories a b\namplitude a 1\namplitude b -1\nprecluded {a}\n',
    'histories a b\ndmatrix 1 2i\ndmatrix 2i 1\n',
    'title no histories at all\n',
    'histories a b\nprecluded {a b\n',
)

LABEL_SETS = (('a', 'b', 'c', 'd'), ('x1', 'x2', 'x3', 'x4'), ('L', 'R', 'U', 'D'))


class CliPool:
    """Scenario files for cli_mix, written once per run under `folder`.

    Maps a scenario key to (argument passed to the CLI, scenario text).
    Bundled scenarios are passed by name; their text is read from the
    package data directory directly, not through the package.
    """

    def __init__(self, rng: random.Random, folder: Path, data_dir: Path):
        self.entries: dict[str, tuple[str, str]] = {}
        self.by_n: dict[int, list[str]] = {}
        for name in BUNDLED:
            self._add(name, name, (data_dir / name).read_text(encoding='utf-8'))
        folder.mkdir(parents=True, exist_ok=True)
        self.folder = folder
        for mode in ('amplitudes', 'dmatrix', 'explicit'):
            for n in (2, 3, 4):
                for variant in range(2):
                    labels = list(rng.choice(LABEL_SETS)[:n])
                    if mode == 'amplitudes':
                        text = amplitude_scenario(rng, labels, max_blocks=2)
                    elif mode == 'dmatrix':
                        text = dmatrix_scenario(rng, labels, rng.randint(1, 2))
                    else:
                        text = _small_explicit(rng, labels, rng.randint(1, 3))
                    self._write(f'{mode}-n{n}-{variant}', text)
        # n = 4 with exactly three precluded events, for the heavy requests
        # (ideal scheme, oracle check): fixing the count fixes their cost
        self.heavy4 = [self._write(f'heavy4-{k}', _small_explicit(rng, list('abcd'), 3),
                                   listed=False) for k in range(6)]
        self.malformed = [self._write(f'malformed-{k}', text, listed=False)
                          for k, text in enumerate(MALFORMED)]
        wide = 'histories ' + ' '.join(history_labels(25)) + '\nprecluded {}\n'
        free = 'histories ' + ' '.join(history_labels(21)) + '\nprecluded {}\n'
        self.guard = [
            ('solve', self._write('guard-25-histories', wide, listed=False),
             ('--scheme', 'multiplicative')),
            ('solve', self._write('guard-ideal-n5', 'histories a b c d e\nprecluded {a b}\n',
                                  listed=False), ('--scheme', 'ideal')),
            ('solve', self._write('guard-nullity-21', free, listed=False), ('--scheme', 'linear')),
        ]

    def _add(self, key: str, argument: str, text: str, listed: bool = True) -> str:
        self.entries[key] = (argument, text)
        if listed:
            self.by_n.setdefault(len(histories(text)), []).append(key)
        return key

    def _write(self, key: str, text: str, listed: bool = True) -> str:
        path = self.folder / f'{key}.scn'
        path.write_text(text, encoding='utf-8')
        return self._add(key, str(path), text, listed)

    def keys(self, max_n: int) -> list[str]:
        return [k for n in range(1, max_n + 1) for k in self.by_n.get(n, [])]


def _small_explicit(rng: random.Random, labels: list[str], count: int) -> str:
    n = len(labels)
    masks = rng.sample(range(1, 1 << n), min(count, (1 << n) - 1))
    lines = ['histories ' + ' '.join(labels)]
    for m in sorted(masks):
        lines.append('precluded {' + ' '.join(labels[i] for i in range(n) if m >> i & 1) + '}')
    return '\n'.join(lines) + '\n'


def _random_event(rng: random.Random, labels) -> str:
    return '{' + ' '.join(l for l in labels if rng.random() < 0.5) + '}'


def _random_poly(rng: random.Random, labels) -> str:
    terms = []
    for _ in range(rng.randint(1, 3)):
        members = [l for l in labels if rng.random() < 0.5]
        terms.append(''.join(f'{l}*' for l in members) or '1')
    return '+'.join(terms)


# slot name -> how many per cycle
CLI_SLOTS = (('solve-multiplicative', 3), ('solve-linear', 3),
             ('solve-multiplicative-json', 1), ('solve-linear-json', 1),
             ('solve-ideal', 2), ('solve-ideal-json', 1), ('solve-ideal-n4', 2),
             ('preclusions', 3), ('eval', 3), ('infer-multiplicative', 2),
             ('infer-linear', 1), ('infer-ideal', 1), ('check', 2),
             ('check-positivity', 1), ('check-classical', 1), ('check-oracle', 1),
             ('check-oracle-n4', 1), ('malformed', 1), ('guard', 1))


def histories(text: str) -> list[str]:
    return next(l for l in text.splitlines() if l.startswith('histories')).split()[1:]


def cli_request(rng: random.Random, pool: CliPool, slot: str, turn: int) -> Request:
    if slot == 'malformed':
        key = rng.choice(pool.malformed)
        return Request(slot, 'cli', 'malformed', argv=('preclusions', pool.entries[key][0]),
                       scenario=key)
    if slot == 'guard':
        command, key, extra = pool.guard[turn % len(pool.guard)]
        return Request(slot, 'cli', 'guard', argv=(command, pool.entries[key][0]) + extra,
                       scenario=key)
    small = slot.startswith(('solve-ideal', 'infer-ideal')) or slot == 'check-oracle'
    if slot in ('solve-ideal-n4', 'check-oracle-n4'):
        key = rng.choice(pool.heavy4)
    else:
        key = rng.choice(pool.keys(3 if small else 4))
    argument = pool.entries[key][0]
    labels = histories(pool.entries[key][1])
    if slot.startswith('solve'):
        scheme = slot.split('-')[1]
        argv = ('solve', argument, '--scheme', scheme)
        if slot.endswith('json'):
            argv += ('--format', 'json')
    elif slot == 'preclusions':
        argv = ('preclusions', argument)
    elif slot == 'eval':
        argv = ('eval', argument, '--coevent', _random_poly(rng, labels),
                '--event', _random_event(rng, labels))
    elif slot.startswith('infer'):
        argv = ('infer', argument, '--scheme', slot.split('-')[1])
        for _ in range(rng.randint(0, 2)):
            argv += ('--given', f'{_random_event(rng, labels)}={rng.randint(0, 1)}')
        argv += ('--query', _random_event(rng, labels))
    else:
        flag = {'check': (), 'check-positivity': ('--strong-positivity',),
                'check-classical': ('--classical',)}.get(slot, ('--oracle',))
        argv = ('check', argument) + flag
    return Request(slot, 'cli', 'ok', argv=argv, scenario=key)


def cli_cycles(rng: random.Random, pool: CliPool):
    turn = 0
    while True:
        cycle = []
        for slot, count in CLI_SLOTS:
            for _ in range(count):
                cycle.append(cli_request(rng, pool, slot, turn))
        turn += 1
        rng.shuffle(cycle)
        yield cycle


def tour() -> list[Request]:
    """One call of each subcommand on each bundled scenario.

    Run as subprocesses for ``cli_cold_ms``, and in process before the
    timed loop (warm-up) and inside traced runs, so that every layer does
    some work in every workload.
    """
    scheme = {'ab_correlation': 'ideal', 'everything_precluded': 'multiplicative',
              'three_slit': 'ideal', 'two_slit': 'linear'}
    requests = []
    for name in BUNDLED:
        for argv in (('solve', name, '--scheme', scheme[name]),
                     ('preclusions', name),
                     ('eval', name, '--coevent', '1', '--event', '{}'),
                     ('infer', name, '--scheme', 'multiplicative', '--query', '{}'),
                     ('check', name, '--strong-positivity', '--classical', '--oracle')):
            requests.append(Request(f'tour-{argv[0]}', 'cli', 'ok', argv=argv, scenario=name))
    return requests


# -- execution ---------------------------------------------------------------

@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str = ''
    precluded: frozenset[int] | None = None
    mult_text: str = ''
    lin_text: str = ''
    positivity: tuple[bool, bool] | None = None


def run_pipeline(request: Request) -> Outcome:
    """Parse, build the measure, derive preclusions, solve both schemes, render."""
    from coevents import scenario as scenarios, schemes
    parsed = scenarios.parse_scenario(request.text)
    matrix = None
    if parsed.mode == 'explicit':
        pset = parsed.preclusion_set()
    else:
        matrix = parsed.decoherence_matrix()
        pset = matrix.preclusions()
    mult = scenarios.render_result(schemes.multiplicative_scheme(pset))
    lin = scenarios.render_result(schemes.linear_scheme(pset))
    positivity = None
    if request.positivity:
        positivity = (matrix.is_strongly_positive(), matrix.null_absorption_holds())
    return Outcome(0, f'precluded {len(pset.masks)}\n{mult}{lin}'
                      + (f'positivity {positivity}\n' if positivity else ''),
                   precluded=pset.masks, mult_text=mult, lin_text=lin,
                   positivity=positivity)


def run_cli(request: Request) -> Outcome:
    """``cli.main`` in process, with stdout and stderr captured."""
    from coevents import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(request.argv))
    return Outcome(code, out.getvalue(), err.getvalue())


def execute(request: Request) -> Outcome:
    return run_pipeline(request) if request.kind == 'pipeline' else run_cli(request)
