"""Scaling sweep and robustness probes: run on demand, not gated.

    python3 bench/run.py --sweep     writes bench/results/sweep.{json,md}
    python3 bench/run.py --probes    prints one JSON line with the counts

The sweep times single layers at growing sizes, each row repeated
``REPEATS`` times on the same seeded input (the CLI rows: ``CLI_SPAWNS``
spawns after one untimed spawn), and reports the median with its quartiles
and the share of timed runs whose input had been run before.  Every answer
is checked with ``verify.py``; ``bare python -c pass`` has no answer and
the CLI row is checked from its exit code and standard output.

The probes run ``python -m coevents`` as subprocesses with a deadline and
an address-space cap on the child: malformed scenario text and over-guard
input must exit 2 quickly, and ``preclusions`` / ``check
--strong-positivity`` on a 24-history amplitude scenario must not hang.
Those two have no size guard in the program yet, so they are expected to
time out and are reported as failed.
"""

from __future__ import annotations

import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import run
import verify
import workloads

REPEATS = 3
CLI_SPAWNS = 9
HANG_DEADLINE_S = 20.0
QUICK_DEADLINE_S = 2.0      # includes interpreter start
MEMORY_CAP = 2 << 30        # bytes of address space for each probe child


def _quartiles(times: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(times, n=4, method='inclusive')
                      if len(times) > 1 else times * 3)
    return {'median_s': median, 'q1_s': q1, 'q3_s': q3, 'samples': len(times)}


def _time(fn, repeats: int = REPEATS) -> tuple[list[float], object]:
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return times, result


def _fail_on(problems: list[str], row: str) -> None:
    if problems:
        raise SystemExit(f'bench: sweep row {row!r} gave a wrong answer: {problems[0]}')


def _check_ideal(text: str, result) -> list[str]:
    from coevents import scenario as scenarios
    model = verify.read_scenario(text)
    problems: list[str] = []
    got = verify.parse_text(model, scenarios.render_result(result), problems)
    return problems + verify.check_ideal(model, got)


def sweep_rows():
    """Yield (row name, times, counters, repeated-input share) per row."""
    from coevents import scenario as scenarios, schemes
    repeated = (REPEATS - 1) / REPEATS  # every row times one input REPEATS times
    rng = random.Random('sweep')

    for n in (10, 12, 14):
        text = workloads.amplitude_scenario(rng, workloads.history_labels(n), max_blocks=1)
        matrix = scenarios.parse_scenario(text).decoherence_matrix()
        times, pset = _time(matrix.preclusions)
        model = verify.read_scenario(text)
        _fail_on([] if pset.masks == model.precluded else ['precluded set differs'], 'preclusions')
        yield f'preclusions, one amplitude block, n={n}', times, {'zeros': len(pset.masks)}, \
            repeated

    text = workloads.dmatrix_scenario(rng, workloads.history_labels(12), 3)
    matrix = scenarios.parse_scenario(text).decoherence_matrix()
    for name, method in (('is_strongly_positive', matrix.is_strongly_positive),
                         ('null_absorption_holds', matrix.null_absorption_holds)):
        times, ok = _time(method)
        _fail_on([] if ok else [f'{name} returned False on a PSD matrix'], name)
        yield f'{name}, n=12', times, {}, repeated

    for count in (100, 200, 400):
        text = workloads.explicit_scenario(rng, workloads.history_labels(16), count, 8)
        pset = scenarios.parse_scenario(text).preclusion_set()
        times, result = _time(lambda: schemes.multiplicative_scheme(pset))
        model = verify.read_scenario(text)
        _fail_on(verify.check_multiplicative(model, [phi.masks for phi in result.coevents]),
                 'multiplicative')
        yield f'multiplicative_scheme, n=16, {count} events of size 8', times, \
            dict(result.diagnostics), repeated

    text = 'histories ' + ' '.join(workloads.history_labels(20)) + '\nprecluded {}\n'
    pset = scenarios.parse_scenario(text).preclusion_set()
    times, result = _time(lambda: schemes.linear_scheme(pset))
    _fail_on(verify.check_linear(verify.read_scenario(text),
                                 [phi.masks for phi in result.coevents]), 'linear')
    yield 'linear_scheme, n=20, nullity 20', times, dict(result.diagnostics), repeated

    text = 'histories a b c d\nprecluded {}\n'
    pset = scenarios.parse_scenario(text).preclusion_set()
    times, result = _time(lambda: schemes.ideal_scheme(pset))
    _fail_on(_check_ideal(text, result), 'ideal, nothing precluded')
    yield 'ideal_scheme, n=4, nothing precluded', times, dict(result.diagnostics), repeated

    sets = []
    for _ in range(200):
        masks = rng.sample(range(1, 16), rng.randint(1, 8))
        sets.append('histories a b c d\n' + ''.join(
            'precluded {' + ' '.join('abcd'[i] for i in range(4) if m >> i & 1) + '}\n'
            for m in masks))
    psets = [scenarios.parse_scenario(t).preclusion_set() for t in sets]
    times, results = _time(lambda: [schemes.ideal_scheme(p) for p in psets])
    for text, result in zip(sets, results):
        _fail_on(_check_ideal(text, result), 'ideal, random preclusion sets')
    yield 'ideal_scheme, n=4, 200 random preclusion sets (total)', times, {}, repeated

    solve = ['solve', 'three_slit', '--scheme', 'ideal']
    model = verify.read_scenario((run.DATA / 'three_slit').read_text(encoding='utf-8'))
    for name, argv in (('CLI solve three_slit --scheme ideal', ['-m', 'coevents', *solve]),
                       ('bare python -c pass', ['-c', 'pass'])):
        def spawn(argv=argv):
            return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                                  env=run.child_env(), cwd=run.ROOT, timeout=60)
        spawn()
        times, proc = _time(spawn, CLI_SPAWNS)
        if argv[0] == '-m':
            problems = verify.check_cli(model, solve, proc.returncode, proc.stdout,
                                        proc.stderr, 'ok')
        else:
            problems = [f'exit {proc.returncode}'] if proc.returncode else []
        _fail_on(problems, name)
        yield name, times, {}, 1.0  # the untimed first spawn ran the same input


def sweep() -> int:
    rows = []
    for name, times, counters, repeated in sweep_rows():
        row = {'row': name, **_quartiles(times), 'repeated_input_share': repeated,
               'counters': counters}
        rows.append(row)
        print(f"{name:58s} {row['median_s']:10.4f} s  [{row['q1_s']:.4f}, {row['q3_s']:.4f}]",
              flush=True)
    document = {'provenance': run.provenance(), 'repeats': REPEATS, 'cli_spawns': CLI_SPAWNS,
                'rows': rows}
    folder = run.BENCH / 'results'
    folder.mkdir(exist_ok=True)
    (folder / 'sweep.json').write_text(json.dumps(document, indent=1) + '\n', encoding='utf-8')
    p = document['provenance']
    lines = [f"Scaling sweep: {p['nproc']} CPUs ({p['cpu_model']}), Python {p['python']}, "
             f"commit {p['git_commit'][:12]}; median of {REPEATS} runs "
             f"(CLI rows: {CLI_SPAWNS} spawns) with quartiles; repeated inputs: share of "
             "timed runs whose input had been run before.", '',
             '| Layer / workload | Median | Q1 | Q3 | Repeated inputs |',
             '|---|---|---|---|---|']
    for row in rows:
        lines.append(f"| {row['row']} | {row['median_s']:.4g} s | {row['q1_s']:.4g} s "
                     f"| {row['q3_s']:.4g} s | {row['repeated_input_share']:.0%} |")
    (folder / 'sweep.md').write_text('\n'.join(lines) + '\n', encoding='utf-8')
    print('\n'.join(lines))
    return 0


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def probe(argv: list[str], deadline: float) -> tuple[int | None, float, str]:
    """(exit code or None on timeout, seconds, stderr) of one capped child."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, '-m', 'coevents', *argv], capture_output=True,
                              text=True, env=run.child_env(), cwd=run.ROOT, timeout=deadline,
                              preexec_fn=_cap_memory)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, ''
    return proc.returncode, time.perf_counter() - start, proc.stderr


def probes() -> int:
    work = run.OUT / 'probes'
    work.mkdir(parents=True, exist_ok=True)
    cases = []
    try:
        rng = random.Random('probes')
        pool = workloads.CliPool(rng, work, run.DATA)
        for key in pool.malformed:
            cases.append((key, 'malformed', ['preclusions', pool.entries[key][0]],
                          QUICK_DEADLINE_S))
        for command, key, extra in pool.guard:
            cases.append((key, 'guard', [command, pool.entries[key][0], *extra],
                          QUICK_DEADLINE_S))
        big = work / 'amplitudes-24.scn'
        big.write_text(workloads.amplitude_scenario(rng, workloads.history_labels(24)),
                       encoding='utf-8')
        cases.append(('hang: preclusions, 24 histories', 'ok', ['preclusions', str(big)],
                      HANG_DEADLINE_S))
        cases.append(('hang: check --strong-positivity, 24 histories', 'ok',
                      ['check', str(big), '--strong-positivity'], HANG_DEADLINE_S))
        results = []
        for name, expect, argv, deadline in cases:
            code, seconds, stderr = probe(argv, deadline)
            if code is None:
                problems = [f'no exit within {deadline} s']
            elif expect == 'ok':
                problems = [] if code == 0 else [f'exit {code}']
            else:
                problems = verify.check_cli(None, argv, code, '', stderr, expect)
            results.append({'probe': name, 'exit': code, 'seconds': round(seconds, 3),
                            'problems': problems})
            status = 'FAIL' if problems else 'ok'
            print(f"{status:4s} {name:48s} exit={code} {seconds:7.3f} s "
                  f"{problems[0] if problems else ''}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for r in results if r['problems'])
    print(json.dumps({'attempted': len(results), 'failed': failed, 'probes': results}))
    return 0


def main(args) -> int:
    return sweep() if args.sweep else probes()
