"""Benchmark of the coevents pipeline: checked outputs, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 bench/run.py --sweep       scaling sweep, not gated
    python3 bench/run.py --probes      hang and guard probes, not gated

Workloads (see ``workloads.py``): ``interference``, ``transversal``,
``cli_mix``; ``all`` runs the three in turn, each ending with its own
result line.  Inputs come from ``--seed`` only; the program under test,
imported from ``src/`` of this checkout, receives only the generated
scenario text.  One worker process, a closed loop with one client, no
threads.  Each request is checked after it completes, outside the timed
region, by ``verify.py``; a wrong output, an exception, an unexpected exit
code or a missed deadline counts as failed.

``--trace 0`` reports the end-to-end metrics:

setup_s         median time from spawning an interpreter until ``coevents``
                and ``coevents.cli`` are imported (every CLI call pays it)
requests_per_s  requests completed correctly per second of request time
latency_p50_ms  median request latency (parse, solve or check, render)
latency_p95_ms  95th percentile request latency
cli_cold_ms     median wall time of ``python -m coevents <subcommand>
                <bundled scenario>`` as a subprocess
peak_rss_mb     peak resident memory of the worker process

``--trace 1`` runs a fixed batch of the same requests twice, untraced and
then with spans around every module's entry points (``tracer.py``), and
reports per-layer self times and counters plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file with
provenance, sample counts and a digest of every request's output is written
under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import verify
import workloads
from tracer import Instrumentation, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / 'src'
OUT = BENCH / 'out'
DATA = SRC / 'coevents' / 'data'

END_TO_END = {'setup_s': 's', 'requests_per_s': '1/s', 'latency_p50_ms': 'ms',
              'latency_p95_ms': 'ms', 'cli_cold_ms': 'ms', 'peak_rss_mb': 'MB'}

# per-layer time metric -> the span name whose self times it sums
PER_LAYER_TIMES = {
    'cli.main_self_s': 'cli.main',
    'scenario.parse_s': 'scenario.parse',
    'scenario.render_s': 'scenario.render',
    'events.parse_event_s': 'events.parse_event',
    'measure.matrix_s': 'measure.matrix',
    'measure.preclusions_s': 'measure.preclusions',
    'measure.positivity_s': 'measure.positivity',
    'measure.absorption_s': 'measure.absorption',
    'schemes.multiplicative_s': 'schemes.multiplicative',
    'schemes.linear_s': 'schemes.linear',
    'schemes.ideal_s': 'schemes.ideal',
    'schemes.infer_s': 'schemes.infer',
    'coevent.from_truth_table_s': 'coevent.from_truth_table',
    'oracle.multiplicative_s': 'oracle.multiplicative',
    'oracle.linear_s': 'oracle.linear',
    'oracle.min_cover_s': 'oracle.min_cover',
}
PER_LAYER_COUNTS = ('measure.events_examined', 'measure.zeros_found',
                    'schemes.multiplicative.candidates_examined',
                    'schemes.multiplicative.transversals',
                    'schemes.linear.solutions_examined', 'schemes.linear.minimal_supports',
                    'schemes.ideal.candidates', 'schemes.ideal.nodes')
PER_LAYER = {**{name: 's' for name in PER_LAYER_TIMES}, 'cli.process_start_s': 's',
             **{name: 'count' for name in PER_LAYER_COUNTS},
             'coevent.evaluations': 'count',
             'measure.zero_yield': 'ratio', 'schemes.multiplicative.yield': 'ratio',
             'trace.overhead_frac': 'ratio', 'trace.wall_s': 's', 'trace.harness_s': 's'}

SETUP_SPAWNS = 11
TRACE_CYCLES = {'interference': 2, 'transversal': 3, 'cli_mix': 20}
READY = 'import coevents, coevents.cli, sys; sys.stdout.write("ready\\n"); sys.stdout.flush()'


def import_program():
    """Import ``coevents`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import coevents
        import coevents.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f'bench: cannot import coevents from {SRC}: {exc}')
    if Path(coevents.__file__).resolve().parent != SRC / 'coevents':
        raise SystemExit(f'bench: coevents was imported from {coevents.__file__}, '
                         f'not from {SRC}')
    return coevents


def child_env() -> dict:
    env = dict(os.environ)
    env['PYTHONPATH'] = os.pathsep.join(filter(None, (str(SRC), env.get('PYTHONPATH'))))
    return env


def spawn_ready(code: str = READY) -> float:
    """Seconds from spawning an interpreter until it reports ``ready``."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, '-c', code], stdout=subprocess.PIPE,
                          env=child_env(), cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if line != 'ready\n' or proc.returncode != 0:
        raise RuntimeError(f'interpreter start failed (exit {proc.returncode})')
    return elapsed


def setup_times(spawns: int) -> list[float]:
    spawn_ready()  # fills the bytecode cache; users do not pay that per call
    return [spawn_ready() for _ in range(spawns)]


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method='inclusive')[p - 1]


def cpu_model() -> str:
    try:
        with open('/proc/cpuinfo', encoding='utf-8') as f:
            for line in f:
                if line.startswith('model name'):
                    return line.split(':', 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or 'unknown'


def git_commit() -> str:
    git = ROOT / '.git'
    try:
        head = (git / 'HEAD').read_text().strip()
        if not head.startswith('ref: '):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / 'packed-refs').read_text().splitlines():
            if line.endswith(' ' + ref):
                return line.split()[0]
    except OSError:
        pass
    return 'unknown (not a git checkout)'


def provenance() -> dict:
    return {'nproc': os.cpu_count(), 'cpu_model': cpu_model(),
            'python': platform.python_version(),
            'implementation': platform.python_implementation(),
            'platform': platform.platform(), 'git_commit': git_commit()}


# -- requests ----------------------------------------------------------------

@dataclass
class Checked:
    """Every request run, checked, with its output digest."""

    texts: dict = field(default_factory=dict)   # cli scenario key -> text
    models: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)
    digests: list = field(default_factory=list)

    def model(self, request):
        key = request.text if request.kind == 'pipeline' else request.scenario
        if key not in self.models:
            text = request.text if request.kind == 'pipeline' else self.texts[key]
            self.models[key] = verify.read_scenario(text)
        return self.models[key]

    def check(self, request, outcome, latency: float, error: str | None) -> bool:
        self.attempted += 1
        problems = [error] if error else []
        if outcome is not None:
            if latency > request.deadline_s:
                problems.append(f'missed the {request.deadline_s} s deadline ({latency:.3f} s)')
            try:
                if request.kind == 'pipeline':
                    problems += verify.check_pipeline(
                        self.model(request), outcome.precluded, outcome.mult_text,
                        outcome.lin_text, outcome.positivity)
                else:
                    model = self.model(request) if request.expect == 'ok' else None
                    problems += verify.check_cli(model, list(request.argv), outcome.code,
                                                 outcome.stdout, outcome.stderr,
                                                 request.expect)
            except (ValueError, KeyError, AttributeError, TypeError) as exc:
                problems.append(f'unreadable output: {exc!r}')
            blob = f'{outcome.code}\0{outcome.stdout}\0{outcome.stderr}'
            digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
        else:
            digest = None
        key = hashlib.sha256(request.key.encode()).hexdigest()[:12]
        self.digests.append([request.label, key, digest])
        if problems:
            self.failures.append({'request': request.label, 'argv': list(request.argv),
                                  'problems': problems[:5]})
        return not problems


def timed(request, run) -> tuple[object, float, str | None]:
    start = time.perf_counter()
    try:
        outcome, error = run(request), None
    except Exception:  # a crash of the program under test is a failed request
        outcome, error = None, traceback.format_exc(limit=-4)
    return outcome, time.perf_counter() - start, error


def run_subprocess(request):
    try:
        proc = subprocess.run([sys.executable, '-m', 'coevents', *request.argv],
                              capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=max(30.0, request.deadline_s))
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f'no exit within {exc.timeout} s') from None
    return workloads.Outcome(proc.returncode, proc.stdout, proc.stderr)


@dataclass
class Loop:
    latencies: list = field(default_factory=list)
    correct: int = 0
    elapsed: float = 0.0
    repeats: int = 0
    cycles: list = field(default_factory=list)   # (latencies, correct) per cycle


def run_requests(requests, checked: Checked, run, loop: Loop, seen: set) -> None:
    first, correct = len(loop.latencies), loop.correct
    for request in requests:
        outcome, latency, error = timed(request, run)
        loop.latencies.append(latency)
        loop.elapsed += latency
        if request.key in seen:
            loop.repeats += 1
        seen.add(request.key)
        loop.correct += checked.check(request, outcome, latency, error)
        checked.digests[-1].append(round(latency * 1e3, 3))
    loop.cycles.append((loop.latencies[first:], loop.correct - correct))


def closed_loop(cycles, seconds: float, checked: Checked, side_jobs: list) -> Loop:
    """Whole cycles until `seconds` of request time have passed.

    `side_jobs` (interpreter spawns) run between cycles, spread over the
    run in proportion to the time elapsed, so that a stall of the machine
    touches only some of their samples; any left run at the end.
    """
    loop, seen = Loop(), set()
    done = 0
    for cycle in cycles:
        run_requests(cycle, checked, workloads.execute, loop, seen)
        due = min(len(side_jobs), -(-len(side_jobs) * loop.elapsed // seconds)) \
            if seconds > 0 else len(side_jobs)
        while done < due:
            side_jobs[done]()
            done += 1
        if loop.elapsed >= seconds:
            break
    for job in side_jobs[done:]:
        job()
    return loop


def per_cycle(loop: Loop) -> dict[str, float]:
    """Medians over cycles of each cycle's rate and latency percentiles.

    Every cycle has the same composition, so medians over cycles are
    robust to short stalls of a shared machine.
    """
    def median_over_cycles(of) -> float:
        return statistics.median(of(latencies, correct) for latencies, correct in loop.cycles)
    return {'requests_per_s': median_over_cycles(lambda lat, ok: ok / sum(lat)),
            'latency_p50_ms': median_over_cycles(lambda lat, _: percentile(lat, 50)) * 1e3,
            'latency_p95_ms': median_over_cycles(lambda lat, _: percentile(lat, 95)) * 1e3}


def make_cycles(workload: str, rng: random.Random, size: str, checked: Checked, work: Path):
    if workload == 'interference':
        return workloads.interference_cycles(rng, size)
    if workload == 'transversal':
        return workloads.transversal_cycles(rng, size)
    pool = workloads.CliPool(rng, work, DATA)
    checked.texts.update((key, text) for key, (_, text) in pool.entries.items())
    return workloads.cli_cycles(rng, pool)


# -- the two kinds of run ----------------------------------------------------

def end_to_end(cycles, seconds: float, checked: Checked, spawns: int):
    setup: list[float] = []
    cold = Loop()
    jobs = [lambda: setup.append(spawn_ready()) for _ in range(spawns)]
    jobs += [lambda r=r: run_requests([r], checked, run_subprocess, cold, set())
             for r in workloads.tour()]
    random.Random(0).shuffle(jobs)
    spawn_ready()  # fills the bytecode cache; users do not pay that per call
    run_requests(workloads.tour(), checked, workloads.execute, Loop(), set())  # warm-up
    loop = closed_loop(cycles, seconds, checked, jobs)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(loop.latencies)
    metrics = {name: (value, n) for name, value in per_cycle(loop).items()}
    metrics['setup_s'] = (statistics.median(setup), len(setup))
    metrics['cli_cold_ms'] = (statistics.median(cold.latencies) * 1e3, len(cold.latencies))
    metrics['peak_rss_mb'] = (peak_kb / 1024, 1)
    info = {'requests': n, 'cycles': len(loop.cycles), 'request_seconds': loop.elapsed,
            'repeated_input_share': loop.repeats / n}
    return {name: metrics[name] for name in END_TO_END}, info


def traced(cycles, checked: Checked, spawns: int, trace_cycles: int):
    setup = setup_times(spawns)
    batch = [r for cycle in itertools.islice(cycles, trace_cycles) for r in cycle]
    batch += workloads.tour()
    run_requests(workloads.tour(), checked, workloads.execute, Loop(), set())  # warm-up
    untraced = Loop()
    run_requests(batch, checked, workloads.execute, untraced, set())

    tracer = Tracer()

    def run(request):
        tracer.on = True
        tracer.push('request')
        try:
            return workloads.execute(request)
        finally:
            tracer.pop()
            tracer.on = False

    traced_loop = Loop()
    with Instrumentation(tracer):
        for number, request in enumerate(batch):
            tracer.request = number
            run_requests([request], checked, run, traced_loop, set())
    return tracer, untraced, traced_loop, setup, batch


def layer_metrics(tracer, untraced: Loop, traced_loop: Loop, setup: list[float]) -> dict:
    s, c = tracer.self_s, tracer.counts
    n = len(traced_loop.latencies)
    metrics = {name: (s[span], tracer.calls[span]) for name, span in PER_LAYER_TIMES.items()}
    metrics['cli.process_start_s'] = (statistics.median(setup), len(setup))
    for name in PER_LAYER_COUNTS:
        metrics[name] = (c[name], n)
    metrics['coevent.evaluations'] = (tracer.calls['coevent.evaluate'], n)
    metrics['measure.zero_yield'] = (
        c['measure.zeros_found'] / max(1, c['measure.events_examined']), n)
    metrics['schemes.multiplicative.yield'] = (
        c['schemes.multiplicative.transversals']
        / max(1, c['schemes.multiplicative.candidates_examined']), n)
    metrics['trace.overhead_frac'] = (
        (traced_loop.elapsed - untraced.elapsed) / untraced.elapsed, n)
    metrics['trace.wall_s'] = (traced_loop.elapsed, n)
    metrics['trace.harness_s'] = (s['request'], n)
    return metrics


def layer_shares(tracer, requests=None) -> dict[str, float]:
    """Self time per layer (module), over all requests or the given ones."""
    totals: dict[str, float] = {}
    for request, names in tracer.by_request.items():
        if requests is not None and request not in requests:
            continue
        for name, seconds in names.items():
            layer = 'harness' if name == 'request' else name.split('.')[0]
            if name.startswith('schemes.'):
                layer = name
            totals[layer] = totals.get(layer, 0.0) + seconds
    whole = sum(totals.values()) or 1.0
    return {k: v / whole for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}


# -- entry point -------------------------------------------------------------

def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              size: str = 'full', spawns: int = SETUP_SPAWNS) -> dict:
    """Run one workload; return the result document (metrics with sample counts)."""
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f'bench: unknown workload {workload!r}; '
                         f'choose from {", ".join(workloads.WORKLOADS)}')
    rng = random.Random(f'{workload}:{seed}')
    checked = Checked(texts={name: (DATA / name).read_text(encoding='utf-8')
                             for name in workloads.BUNDLED})
    work = OUT / f'work-{os.getpid()}'
    result = {'workload': workload, 'seed': seed, 'seconds': seconds, 'trace': int(trace),
              'size': size, 'provenance': provenance()}
    try:
        cycles = make_cycles(workload, rng, size, checked, work)
        if trace:
            trace_cycles = TRACE_CYCLES[workload] if size == 'full' else 1
            tracer, untraced, traced_loop, setup, batch = traced(
                cycles, checked, spawns, trace_cycles)
            metrics = layer_metrics(tracer, untraced, traced_loop, setup)
            median = statistics.median(traced_loop.latencies)
            tail = {i for i, t in enumerate(traced_loop.latencies) if t > median}
            result['layer_shares'] = layer_shares(tracer)
            result['tail_layer_shares'] = layer_shares(tracer, tail)
            result['batch'] = {'requests': len(batch), 'cycles': trace_cycles}
            result['repeated_input_share'] = untraced.repeats / len(batch)
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f'{workload}-seed{seed}-spans.jsonl')
        else:
            metrics, info = end_to_end(cycles, seconds, checked, spawns)
            result.update(info)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result['sizes'] = describe_sizes(workload, size)
    result['metrics'] = {name: {'value': value, 'unit': (END_TO_END | PER_LAYER)[name],
                                'samples': samples}
                         for name, (value, samples) in metrics.items()}
    result['attempted'] = checked.attempted
    result['failed'] = len(checked.failures)
    result['failed_frac'] = result['failed'] / max(1, checked.attempted)
    result['failures'] = checked.failures[:20]
    result['digests'] = checked.digests
    return result


def describe_sizes(workload: str, size: str) -> dict:
    if workload == 'interference':
        return {'cycle': [f'{m} n={n}' + (' +positivity' if p else '')
                          for m, n, p in workloads.INTERFERENCE[size]]}
    if workload == 'transversal':
        return {'cycle': [f'explicit n={n}, {k} events of size {w}'
                          for n, k, w in workloads.TRANSVERSAL[size]]}
    return {'cycle': {slot: count for slot, count in workloads.CLI_SLOTS},
            'scenarios': '4 bundled + 18 random (3 modes x n=2,3,4 x 2) + 6 random n=4 with '
                         'three precluded events (heavy requests)'}


def report(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']}: {result['attempted']} requests checked, "
          f"{result['failed']} failed")
    if 'batch' in result:
        print(f"  traced batch {result['batch']['requests']} requests; "
              f"repeated inputs {result['repeated_input_share']:.1%}")
    else:
        print(f"  timed requests {result['requests']} in {result['cycles']} cycles over "
              f"{result['request_seconds']:.2f} s of request time; "
              f"repeated inputs {result['repeated_input_share']:.1%}")
    for name, m in result['metrics'].items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']:6s} (n={m['samples']})")
    print(f"  {'failed_frac':44s} {result['failed_frac']:>14.6g} ratio  "
          f"(failed {result['failed']} of {result['attempted']})")
    if 'layer_shares' in result:
        wall = result['metrics']['trace.wall_s']['value']
        print(f'  traced wall {wall:.3f} s; self time by layer (harness = outside all spans):')
        for layer, share in result['layer_shares'].items():
            print(f'    {layer:30s} {share:7.1%}')
        print('  above-median requests, self time by layer:')
        for layer, share in list(result['tail_layer_shares'].items())[:6]:
            print(f'    {layer:30s} {share:7.1%}')
    for failure in result['failures'][:10]:
        print(f"bench: FAILED {failure['request']} {' '.join(failure['argv'])}: "
              f"{failure['problems'][0]}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--workload')
    parser.add_argument('--seed', type=int, default=1)
    parser.add_argument('--seconds', type=float, default=10.0)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--sweep', action='store_true')
    parser.add_argument('--probes', action='store_true')
    args = parser.parse_args(argv)
    import_program()
    if args.sweep or args.probes:
        import sweep
        return sweep.main(args)
    if args.workload is None:
        parser.error('--workload is required')
    names = PER_LAYER if args.trace else END_TO_END
    chosen = workloads.WORKLOADS if args.workload == 'all' else (args.workload,)
    for workload in chosen:
        result = benchmark(workload, args.seed, args.seconds, bool(args.trace))
        OUT.mkdir(exist_ok=True)
        path = OUT / f'{workload}-seed{args.seed}-trace{args.trace}.json'
        path.write_text(json.dumps(result, indent=1) + '\n', encoding='utf-8')
        report(result)
        print(json.dumps({'correct': result['failed'] == 0, 'attempted': result['attempted'],
                          'failed': result['failed'],
                          'metrics': {name: {'value': result['metrics'][name]['value'],
                                             'unit': unit} for name, unit in names.items()}}))
    return 0


if __name__ == '__main__':
    sys.exit(main())
