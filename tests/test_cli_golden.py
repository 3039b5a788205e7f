"""Golden CLI output: stdout, stderr and exit code of pinned invocations.

The invocations are listed by :func:`cases`; their recorded output lives in
``tests/golden/cli.json``.  Every subcommand runs on each bundled scenario,
``solve --format json`` runs all three schemes on the bundled scenarios and
on seeded explicit scenarios at n = 3 and 4 (pinning the ideal scheme's
``candidates`` and ``nodes``), ``check`` runs with its flags alone and
together, and acceptance criterion 10's malformed corpus runs through
``solve`` and ``check``.  After an intended output change, regenerate with

    PYTHONPATH=src python tests/test_cli_golden.py --write

and review the diff of the JSON file.
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

from coevents.cli import main

GOLDEN = Path(__file__).resolve().parent / 'golden' / 'cli.json'
SCENARIO = '<scenario>'  # argv placeholder for the case's scenario file
COLUMNS = '80'  # argparse wraps usage and help text at the terminal width

BUNDLED = {
    'two_slit': ('g1', 'g2', 'g3', 'g4'),
    'three_slit': ('a', 'b', 'c'),
    'ab_correlation': ('AB', 'Ab', 'aB', 'ab'),
    'everything_precluded': ('x',),
}
SCHEMES = ('multiplicative', 'linear', 'ideal')

# acceptance criterion 10's malformed corpus
MALFORMED = (
    '',
    'title only a title\n',
    'histories\nprecluded {}\n',
    'histories a a\nprecluded {}\n',
    'histories a+b\nprecluded {}\n',
    'histories a b\n',
    'histories a b\nhistories c d\nprecluded {a}\n',
    'histories a b\nfrobnicate 1\nprecluded {a}\n',
    'histories a b\nprecluded\n',
    'histories a b\nprecluded {q}\n',
    'histories a b\nprecluded {a\n',
    'histories a b\nprecluded a}\n',
    'histories a b\nprecluded {a a}\n',
    'histories a b\nprecluded a++b\n',
    'histories a b\namplitude a 1\n',
    'histories a b\namplitude a 1\namplitude a 1\namplitude b 1\n',
    'histories a b\namplitude q 1\namplitude b 1\n',
    'histories a b\namplitude a\namplitude b 1\n',
    'histories a b\namplitude a 1/0\namplitude b 1\n',
    'histories a b\namplitude a 0.5\namplitude b 1\n',
    'histories a b\namplitude a 1\namplitude b 1\nblock a\n',
    'histories a b\namplitude a 1\namplitude b 1\nblock a b\nblock a\n',
    'histories a b\nblock a b\n',
    'histories a b\ndmatrix 1 0\n',
    'histories a b\ndmatrix 1 0 0\ndmatrix 0 1\n',
    'histories a b\ndmatrix 0 1\ndmatrix 2 0\n',
    'histories a b\ndmatrix 1 x\ndmatrix 0 1\n',
    'histories a b\namplitude a 1\namplitude b 1\nprecluded {a}\n',
    'title t\ntitle t again\nhistories a\nprecluded {}\n',
)


def _explicit_scenarios():
    """Seeded explicit scenarios at n = 3 and 4, nothing precluded first."""
    rng = random.Random(5)
    for n, count in ((3, 6), (4, 8)):
        labels = 'abcd'[:n]
        yield f'histories {" ".join(labels)}\nprecluded {{}}\n'
        for _ in range(count):
            masks = sorted({rng.randrange(1, 1 << n)
                            for _ in range(rng.randint(1, 4))})
            lines = ''.join(
                'precluded {' + ' '.join(labels[i] for i in range(n) if m >> i & 1) + '}\n'
                for m in masks)
            yield f'histories {" ".join(labels)}\n{lines}'


def cases():
    """(id, argv, scenario text or None, argparse-formatted output?)."""
    out = []
    for name, labels in BUNDLED.items():
        first, every = labels[0], '{' + ' '.join(labels) + '}'
        poly = '+'.join(label + '*' for label in labels[:2])
        out.append((f'{name}/preclusions', ['preclusions', name], None, False))
        for scheme in SCHEMES:
            for fmt in ('text', 'json'):
                out.append((f'{name}/solve-{scheme}-{fmt}',
                            ['solve', name, '--scheme', scheme, '--format', fmt],
                            None, False))
            out.append((f'{name}/infer-{scheme}',
                        ['infer', name, '--scheme', scheme, '--query', f'{{{first}}}'],
                        None, False))
            out.append((f'{name}/infer-{scheme}-given',
                        ['infer', name, '--scheme', scheme, '--given', f'{every}=1',
                         '--given', f'{{{first}}}=0', '--query', f'{{{labels[-1]}}}'],
                        None, False))
        out.append((f'{name}/eval-atom', ['eval', name, '--coevent', poly,
                                          '--event', f'{{{first}}}'], None, False))
        out.append((f'{name}/eval-full', ['eval', name, '--coevent', poly,
                                          '--event', every], None, False))
        for flags in ((), ('--strong-positivity',), ('--classical',), ('--oracle',),
                      ('--strong-positivity', '--classical', '--oracle')):
            tag = ''.join('-' + f.lstrip('-') for f in flags)
            out.append((f'{name}/check{tag}', ['check', name, *flags], None, False))

    for index, text in enumerate(_explicit_scenarios()):
        for scheme in SCHEMES:
            out.append((f'explicit-{index}/solve-{scheme}-json',
                        ['solve', SCENARIO, '--scheme', scheme, '--format', 'json'],
                        text, False))
        out.append((f'explicit-{index}/check-oracle',
                    ['check', SCENARIO, '--oracle'], text, False))

    for index, text in enumerate(MALFORMED):
        out.append((f'malformed-{index}/solve',
                    ['solve', SCENARIO, '--scheme', 'multiplicative'], text, False))
        out.append((f'malformed-{index}/check', ['check', SCENARIO], text, False))

    out += [
        ('errors/unknown-scenario', ['solve', 'four_slit', '--scheme', 'linear'],
         None, False),
        ('errors/bad-coevent', ['eval', 'three_slit', '--coevent', 'a*+q*',
                                '--event', '{a}'], None, False),
        ('errors/bad-event', ['eval', 'three_slit', '--coevent', 'a*',
                              '--event', '{a q}'], None, False),
        ('errors/bad-given', ['infer', 'ab_correlation', '--scheme', 'linear',
                              '--given', '{AB}=2', '--query', '{AB}'], None, False),
        ('usage/no-command', [], None, True),
        ('usage/unknown-command', ['bogus'], None, True),
        ('usage/bad-scheme', ['solve', 'two_slit', '--scheme', 'quadratic'], None, True),
        ('usage/missing-scheme', ['solve', 'two_slit'], None, True),
        ('usage/missing-event', ['eval', 'three_slit', '--coevent', 'a*'], None, True),
        ('usage/help', ['--help'], None, True),
        ('usage/solve-help', ['solve', '--help'], None, True),
        ('edges/solve-ideal-tied-sets', ['solve', SCENARIO, '--scheme', 'ideal'],
         'histories a b c\nprecluded {a b c}\n', False),
        ('edges/check-oracle-n5', ['check', SCENARIO, '--oracle'],
         'histories a b c d e\nprecluded {a b}\n', False),
        ('guards/space-25', ['preclusions', SCENARIO],
         'histories ' + ' '.join(f'h{i}' for i in range(25)) + '\n', False),
        ('guards/nullity-21', ['solve', SCENARIO, '--scheme', 'linear'],
         'histories ' + ' '.join(f'h{i}' for i in range(21)) + '\nprecluded {}\n', False),
        ('guards/ideal-n5', ['solve', SCENARIO, '--scheme', 'ideal'],
         'histories a b c d e\nprecluded {a b}\n', False),
        ('guards/dmatrix-15', ['preclusions', SCENARIO], _dmatrix(
            [[(-1) ** i if i == j else 0 for j in range(15)] for i in range(15)]), False),
        ('guards/zero-amplitudes-15', ['preclusions', SCENARIO],
         'histories ' + ' '.join(f'h{i}' for i in range(15)) + '\n'
         + ''.join(f'amplitude h{i} 0\n' for i in range(15)), False),
        # not PSD: diag(1, -1) absorbs its one null, the second matrix does not
        ('checks/indefinite', ['check', SCENARIO], _dmatrix([[1, 0], [0, -1]]), False),
        ('checks/indefinite-strong-positivity', ['check', SCENARIO, '--strong-positivity'],
         _dmatrix([[1, 0], [0, -1]]), False),
        ('checks/absorption-fails', ['check', SCENARIO],
         _dmatrix([[1, 0, 1], [0, -1, 0], [1, 0, 0]]), False),
    ]
    return out


def _dmatrix(rows):
    """Scenario text of an entry-built matrix over histories h0, h1, ..."""
    return ('histories ' + ' '.join(f'h{i}' for i in range(len(rows))) + '\n'
            + ''.join('dmatrix ' + ' '.join(map(str, row)) + '\n' for row in rows))


def invoke(argv, text, directory):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    if text is not None:
        path = directory / 'scenario.scn'
        path.write_text(text, encoding='utf-8')
        argv = [str(path) if arg == SCENARIO else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


RECORDED = json.loads(GOLDEN.read_text(encoding='utf-8'))


def test_case_list_matches_recording():
    assert [(c['id'], c['argv'], c['scenario'], c['argparse'])
            for c in RECORDED['cases']] == cases()


@pytest.mark.parametrize('case', RECORDED['cases'], ids=lambda c: c['id'])
def test_golden_output(case, tmp_path, monkeypatch):
    if case['argparse'] and RECORDED['python'] != list(sys.version_info[:2]):
        pytest.skip('argparse text recorded under Python '
                    + '.'.join(map(str, RECORDED['python'])))
    monkeypatch.setenv('COLUMNS', COLUMNS)
    code, out, err = invoke(case['argv'], case['scenario'], tmp_path)
    assert (code, out, err) == (case['exit'], case['stdout'], case['stderr'])


def _write():
    os.environ['COLUMNS'] = COLUMNS
    records = []
    with tempfile.TemporaryDirectory() as directory:
        for case_id, argv, text, argparse_text in cases():
            code, out, err = invoke(argv, text, Path(directory))
            records.append({'id': case_id, 'argv': argv, 'scenario': text,
                            'argparse': argparse_text, 'exit': code,
                            'stdout': out, 'stderr': err})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({'python': list(sys.version_info[:2]),
                                  'cases': records}, indent=1) + '\n',
                      encoding='utf-8')
    print(f'wrote {len(records)} cases to {GOLDEN}')


if __name__ == '__main__':
    if sys.argv[1:] != ['--write']:
        raise SystemExit('usage: python tests/test_cli_golden.py --write')
    _write()
