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
import os
import sys

from .coevent import parse_coevent
from .events import parse_event, render_event
from .schemes import ideal_scheme, infer, linear_scheme, multiplicative_scheme
from .scenario import (ParseDiagnostic, ScenarioError, bundled_names, load_bundled,
                       parse_scenario, render_result)

__all__ = ['main']

_SCHEMES = ('multiplicative', 'linear', 'ideal')  # each names its `<name>_scheme` solver

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
    sub = parser.add_subparsers(required=True, metavar='COMMAND')

    def command(name: str, help_text: str, run) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument('scenario',
                       help='scenario file path, or a bundled scenario name')
        p.set_defaults(run=run)
        return p

    p = command('solve', 'solve one coevent scheme and print the results', _cmd_solve)
    p.add_argument('--scheme', required=True, choices=_SCHEMES)
    p.add_argument('--format', choices=('text', 'json'), default='text')

    command('preclusions', 'print the precluded events, one per line', _cmd_preclusions)

    p = command('eval', 'evaluate a coevent polynomial on an event', _cmd_eval)
    p.add_argument('--coevent', required=True, metavar='POLY')
    p.add_argument('--event', required=True, metavar='EVENT')

    p = command('infer', 'ask what the admissible coevents say about an event', _cmd_infer)
    p.add_argument('--scheme', required=True, choices=_SCHEMES)
    p.add_argument('--given', action='append', default=[], metavar='EVENT=BIT',
                   help='condition on an event taking value 0 or 1; repeatable')
    p.add_argument('--query', required=True, metavar='EVENT')

    p = command('check', 'verify measure and solver health properties', _cmd_check)
    p.add_argument('--strong-positivity', action='store_true',
                   help='only the positivity and absorption checks')
    p.add_argument('--classical', action='store_true',
                   help='only the classical-limit checks')
    p.add_argument('--oracle', action='store_true',
                   help='also compare every solver against brute force')
    return parser


def _scenario_text(argument: str) -> str:
    if not os.path.isfile(argument):
        try:
            return load_bundled(argument)
        except ValueError:
            known = ', '.join(bundled_names())
            raise OSError(f'no such scenario file or bundled name: {argument!r} '
                          f'(bundled: {known})') from None
    with open(argument, 'rb') as file:  # decoded in one call, so an error has its true offset
        data = file.read()
    try:
        return data.decode('utf-8-sig')  # tolerate a byte-order mark
    except UnicodeDecodeError as exc:  # at the bad byte, placed as parse_scenario places it
        before = exc.object[:exc.start].decode().replace('\r\n', '\n').replace('\r', '\n')
        line, column = before.count('\n') + 1, len(before) - before.rfind('\n')
        raise ScenarioError([ParseDiagnostic(line, column, f'byte {exc.object[exc.start]:#04x} '
                                             f'is not UTF-8 text ({exc.reason})')]) from None


def _solve(scenario, args):
    # looked up per call, so a solver rebound on this module is the one used
    return globals()[f'{args.scheme}_scheme'](scenario.preclusion_set())


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


def _verdict(lines: list[str], name: str, passed: bool | None, why: str = '') -> bool:
    """Append ``<name>: PASS``, ``FAIL<why>`` or (passed None) ``skipped<why>``; False on FAIL."""
    if passed:
        lines.append(f'{name}: PASS')
    else:
        lines.append(f'{name}: {"FAIL" if passed is False else "skipped"}{why}')
    return passed is not False


def _check_positivity(scenario, lines: list[str]) -> bool:
    matrix = scenario.decoherence_matrix()
    if matrix is None:
        for name in ('strong positivity', 'null-set absorption'):
            _verdict(lines, name, None, ' (no decoherence matrix)')
        return True
    positive = _verdict(lines, 'strong positivity', matrix.is_strongly_positive(),
                        ' (a principal minor is negative)')
    absorbs = _verdict(lines, 'null-set absorption', matrix.null_absorption_holds(),
                       ' (some mu(A+N) differs from mu(A))')
    return positive and absorbs


def _check_classical(scenario, lines: list[str]) -> bool:
    preclusions = scenario.preclusion_set()
    if not preclusions.is_classical():
        lines.append('classical preclusion set: no')
        return True
    lines.append('classical preclusion set: yes')
    expected = {frozenset({atom.bits}) for atom in scenario.space.atoms()
                if atom not in preclusions}
    got = {phi.masks for phi in multiplicative_scheme(preclusions).coevents}
    return _verdict(lines, 'classical limit', got == expected,
                    ' (multiplicative scheme is not the classical atom coevents)')


def _check_oracle(scenario, lines: list[str]) -> bool:
    from . import oracle  # loaded on first use: only `check --oracle` needs it
    preclusions = scenario.preclusion_set()
    n = scenario.space.size
    ok = True
    for name, guard, solve, brute in (
            ('multiplicative', oracle.ENUMERATION_GUARD, multiplicative_scheme,
             oracle.brute_multiplicative),
            ('linear', oracle.ENUMERATION_GUARD, linear_scheme, oracle.brute_linear),
            ('ideal', oracle.CLOSURE_GUARD, ideal_scheme, oracle.brute_min_cover)):
        if n > guard:
            _verdict(lines, f'oracle {name}', None, f' (n={n} exceeds guard {guard})')
            continue
        result, expected = solve(preclusions), brute(preclusions)
        if name == 'ideal':  # every minimum generating set, and that minimum
            passed = (result.generating_sets, result.total_complexity) == expected
        else:
            passed = set(result.coevents) == set(expected)
        ok &= _verdict(lines, f'oracle {name}', passed)
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


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        scenario = parse_scenario(_scenario_text(args.scenario))
        return args.run(scenario, args)
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
