"""Command-line driver.

Subcommands:

- ``solve <scenario> --scheme S [--format text|json]`` runs one scheme and
  prints the admissible coevents.  Exit 0 when at least one coevent is
  viable, 1 when none is.
- ``preclusions <scenario>`` prints the precluded events, one per line.
- ``eval <scenario> --coevent <poly> --event <event>`` prints 0 or 1.
- ``infer <scenario> --scheme S [--given EVENT=BIT ...] --query EVENT``
  prints always-true / always-false / contingent / vacuous.
- ``check <scenario> [--strong-positivity] [--classical] [--oracle]`` runs
  health checks; any FAIL line exits 1.

``<scenario>`` is a file path, or the name of a bundled scenario
(two_slit, three_slit, ab_correlation, everything_precluded).  Input
errors exit 2 and report every diagnostic with line:column positions.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import oracle
from .coevent import parse_coevent
from .events import parse_event, render_event
from .schemes import ideal_scheme, infer, linear_scheme, multiplicative_scheme
from .scenario import (ScenarioError, bundled_names, load_bundled,
                       parse_scenario, render_result)

__all__ = ['main']

GRAMMAR_HELP = """\
scenario file directives (one per line, '#' starts a comment):
  title <free text>               optional
  histories <label> ...           required
  amplitude <label> <complex>     measure mode A, one line per history
  block <label> ...               mode A, repeatable; default: one block
  dmatrix <complex> ...           measure mode B, n rows of n entries
  precluded <event>               measure mode C, repeatable
event syntax:    {a c}    {}    a+c
coevent syntax:  0    1    a*    a*b*    a*+b*+c*
complex syntax:  1    -1/2    3/2-1/2i    2i
bundled scenarios: two_slit, three_slit, ab_correlation, everything_precluded\
"""


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors also print the grammar help."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f'{self.prog}: error: {message}', file=sys.stderr)
        print(GRAMMAR_HELP, file=sys.stderr)
        raise SystemExit(2)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main() call and reused: parse_args keeps no state
    # between calls (each gets a fresh namespace, and `append` copies its
    # default), while building costs far more than parsing
    parser = _Parser(prog='coevents',
                     description='Solve anhomomorphic coevent schemes for '
                                 'finite quantal-measure scenarios.')
    sub = parser.add_subparsers(dest='command', required=True, metavar='COMMAND')

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument('scenario',
                       help='scenario file path, or a bundled scenario name')
        return p

    p = command('solve', 'solve one coevent scheme and print the results')
    p.add_argument('--scheme', required=True,
                   choices=('multiplicative', 'linear', 'ideal'))
    p.add_argument('--format', choices=('text', 'json'), default='text')
    p.add_argument('--minimal-among-unital', action='store_true',
                   help='linear scheme: minimize support among unital '
                        'solutions instead of filtering minimal ones')

    command('preclusions', 'print the precluded events, one per line')

    p = command('eval', 'evaluate a coevent polynomial on an event')
    p.add_argument('--coevent', required=True, metavar='POLY')
    p.add_argument('--event', required=True, metavar='EVENT')

    p = command('infer', 'ask what the admissible coevents say about an event')
    p.add_argument('--scheme', required=True,
                   choices=('multiplicative', 'linear', 'ideal'))
    p.add_argument('--given', action='append', default=[], metavar='EVENT=BIT',
                   help='condition on an event taking value 0 or 1; repeatable')
    p.add_argument('--query', required=True, metavar='EVENT')
    p.add_argument('--minimal-among-unital', action='store_true')

    p = command('check', 'verify measure and solver health properties')
    p.add_argument('--strong-positivity', action='store_true',
                   help='only the positivity and absorption checks')
    p.add_argument('--classical', action='store_true',
                   help='only the classical-limit checks')
    p.add_argument('--oracle', action='store_true',
                   help='also compare every solver against brute force')
    return parser


def _scenario_text(argument: str) -> str:
    path = Path(argument)
    if path.is_file():
        return path.read_text(encoding='utf-8-sig')  # tolerate a byte-order mark
    if '/' not in argument and argument in bundled_names():
        return load_bundled(argument)
    known = ', '.join(bundled_names())
    raise OSError(f'no such scenario file or bundled name: {argument!r} '
                  f'(bundled: {known})')


def _solve(scenario, args):
    preclusions = scenario.preclusion_set()
    if args.scheme == 'multiplicative':
        return multiplicative_scheme(preclusions)
    if args.scheme == 'linear':
        return linear_scheme(preclusions,
                             minimal_among_unital=args.minimal_among_unital)
    return ideal_scheme(preclusions)


def _cmd_solve(scenario, args) -> int:
    result = _solve(scenario, args)
    sys.stdout.write(render_result(result, args.format))
    return 0 if result.coevents else 1


def _cmd_preclusions(scenario, args) -> int:
    for event in scenario.preclusion_set().events:
        print(render_event(event))
    return 0


def _cmd_eval(scenario, args) -> int:
    phi = parse_coevent(args.coevent, scenario.space)
    event = parse_event(args.event, scenario.space)
    print(phi(event))
    return 0


def _cmd_infer(scenario, args) -> int:
    space = scenario.space
    given = []
    for item in args.given:
        text, sep, bit = item.partition('=')
        if not sep or bit not in ('0', '1'):
            raise ValueError(f"--given needs the form EVENT=0 or EVENT=1, got {item!r}")
        given.append((parse_event(text, space), int(bit)))
    query = parse_event(args.query, space)
    print(infer(_solve(scenario, args), given, query))
    return 0


def _check_positivity(scenario, lines: list[str]) -> bool:
    matrix = scenario.decoherence_matrix()
    if matrix is None:
        lines.append('strong positivity: skipped (no decoherence matrix)')
        lines.append('null-set absorption: skipped (no decoherence matrix)')
        return True
    ok = True
    if matrix.is_strongly_positive():
        lines.append('strong positivity: PASS')
    else:
        lines.append('strong positivity: FAIL (a principal minor is negative)')
        ok = False
    if matrix.null_absorption_holds():
        lines.append('null-set absorption: PASS')
    else:
        lines.append('null-set absorption: FAIL (some mu(A+N) differs from mu(A))')
        ok = False
    return ok


def _check_classical(scenario, lines: list[str]) -> bool:
    preclusions = scenario.preclusion_set()
    if not preclusions.is_classical():
        lines.append('classical preclusion set: no')
        return True
    lines.append('classical preclusion set: yes')
    expected = {frozenset({atom.bits})
                for atom in scenario.space.atoms()
                if atom not in preclusions}
    got = {phi.masks for phi in multiplicative_scheme(preclusions).coevents}
    if got == expected:
        lines.append('classical limit: PASS')
        return True
    lines.append('classical limit: FAIL (multiplicative scheme is not the '
                 'classical atom coevents)')
    return False


def _check_oracle(scenario, lines: list[str]) -> bool:
    preclusions = scenario.preclusion_set()
    space = scenario.space
    n = space.size
    ok = True

    for name, solve, brute in (
            ('multiplicative', multiplicative_scheme, oracle.brute_multiplicative),
            ('linear', linear_scheme, oracle.brute_linear)):
        if n > oracle.ENUMERATION_GUARD:
            lines.append(f'oracle {name}: skipped (n={n} exceeds guard '
                         f'{oracle.ENUMERATION_GUARD})')
        elif set(solve(preclusions).coevents) == set(brute(preclusions)):
            lines.append(f'oracle {name}: PASS')
        else:
            lines.append(f'oracle {name}: FAIL')
            ok = False

    if n > oracle.CLOSURE_GUARD:
        lines.append(f'oracle ideal: skipped (n={n} exceeds guard '
                     f'{oracle.CLOSURE_GUARD})')
    else:
        result = ideal_scheme(preclusions)
        sets, weight = oracle.brute_min_cover(preclusions)
        got_sets = tuple(tuple(str(phi) for phi in s)
                         for s in (result.generating_sets or ()))
        want_sets = tuple(tuple(str(phi) for phi in s) for s in sets)
        if got_sets == want_sets and result.total_complexity == weight:
            lines.append('oracle ideal: PASS')
        else:
            lines.append('oracle ideal: FAIL')
            ok = False
    return ok


def _cmd_check(scenario, args) -> int:
    chosen = args.strong_positivity or args.classical or args.oracle
    lines: list[str] = []
    ok = True
    if not chosen or args.strong_positivity:
        ok &= _check_positivity(scenario, lines)
    if not chosen or args.classical:
        ok &= _check_classical(scenario, lines)
    if args.oracle:
        ok &= _check_oracle(scenario, lines)
    print('\n'.join(lines))
    return 0 if ok else 1


_DISPATCH = {
    'solve': _cmd_solve,
    'preclusions': _cmd_preclusions,
    'eval': _cmd_eval,
    'infer': _cmd_infer,
    'check': _cmd_check,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        scenario = parse_scenario(_scenario_text(args.scenario))
        return _DISPATCH[args.command](scenario, args)
    except ScenarioError as exc:
        for diagnostic in exc.diagnostics:
            print(diagnostic, file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        # covers ParseError, GuardError, SpaceMismatchError, missing files
        print(f'error: {exc}', file=sys.stderr)
        return 2


if __name__ == '__main__':
    raise SystemExit(main())
