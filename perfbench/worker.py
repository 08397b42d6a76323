"""Fresh-process side of the benchmark.

Two modes, both started by ``run.py`` in a new interpreter:

``worker.py setup SRC CSV``
    Times ``import triarm.cli`` plus ``load_population`` and
    ``normalize_z`` on CSV, the set-up every CLI call pays, and prints
    ``{"setup_s": ...}``.  Nothing from triarm is imported before the
    clock starts.

``worker.py run SPEC``
    Runs the commands described by the JSON file SPEC through
    ``triarm.cli.main`` in this process, with stdout and stderr
    captured, and writes every command's record to ``SPEC["out"]``.
    Timed commands repeat until they have run for ``SPEC["seconds"]``
    in all.  With ``SPEC["trace"]`` set, untraced and traced commands
    alternate and traced ones also carry per-layer metrics and their
    spans.

    A single-threaded workload runs pinned to one CPU, and a
    ``SpeedSampler`` thread on that CPU times a short calibration block
    every 0.1 s.  The mean of the samples taken during a command, plus
    one just before and one just after it, is stored as the command's
    ``cal_s``: the speed of the host while the command ran.  A
    multi-threaded workload keeps every CPU busy itself, so samples
    taken beside it would measure its own load as much as the host's;
    it is neither pinned nor sampled, and its ``cal_s`` is null.  Right
    after each command, outside the timed region, its output is checked
    and its dump file, if any, deleted.  Peak resident memory is read
    after the first command, before any check has run; the untimed
    check commands run last.
"""

import contextlib
import io
import json
import os
import resource
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

#: Iterations of the calibration block, about 1 ms of interpreted work,
#: and seconds between two samples of it taken during a command.
CALIBRATION_LOOPS = 6_000
SAMPLE_EVERY_S = 0.1


def _import_triarm(src: str):
    sys.path.insert(0, src)
    import triarm.cli

    where = Path(triarm.cli.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise ImportError(f"triarm imported from {where}, not from {src}")
    return triarm.cli


def setup(src: str, csv_path: str) -> None:
    start = perf_counter()
    _import_triarm(src)
    from triarm.population import load_population, normalize_z

    normalize_z(load_population(csv_path))
    print(json.dumps({"setup_s": perf_counter() - start}))


def _run_command(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        error = traceback.format_exc()
    wall = perf_counter() - start
    return {
        "argv": list(argv),
        "wall_s": wall,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "error": error,
    }


def _with_rep(argv, rep: int) -> list:
    return [arg.replace("{rep}", str(rep)) for arg in argv]


def _dump_path(argv):
    return argv[argv.index("--dump") + 1] if "--dump" in argv else None


def pin_to_one_cpu() -> set:
    """Pin this process to one of its CPUs; returns the CPUs it had."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


def calibrate(blocks: int = 1) -> float:
    """Seconds one calibration block of pure-Python work takes right now.

    The benchmark shares its host, whose speed for interpreted code
    swings by up to about 1.7x within seconds.  A single-threaded
    command's wall time divided by this block's time, taken on the same
    CPU while it runs, does not depend on that speed.  ``blocks`` runs
    that many blocks in a row and returns their mean.
    """
    start = perf_counter()
    seen = {}
    acc = 0
    for i in range(blocks * CALIBRATION_LOOPS):
        acc += i * i
        seen[i & 1023] = acc & 0xFFFF
    return (perf_counter() - start) / blocks


class SpeedSampler:
    """Thread that runs ``calibrate`` every ``SAMPLE_EVERY_S`` seconds.

    Each block is far shorter than the interpreter's switch interval,
    so the running command rarely preempts a sample; the samples cost
    the command about 1% of its time.
    """

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self.samples.append((perf_counter(), calibrate()))

    def mean_between(self, start: float, end: float, *edges: float) -> float:
        """Mean of the samples started in [start, end] and of ``edges``."""
        inside = [cal for at, cal in self.samples if start <= at <= end]
        values = inside + list(edges)
        return sum(values) / len(values)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def run(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    calibrated = spec["threads"] == 1
    if calibrated:
        pin_to_one_cpu()  # before triarm and numpy load
    cli = _import_triarm(spec["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import CHECKS, WORKLOADS, command_problems, generate_population

    workload = WORKLOADS[spec["workload"]]
    check = CHECKS[workload.name]
    columns = generate_population(spec["seed"], workload.n)
    tracer = None
    if spec["trace"]:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()

    records = []
    spans = []
    peak_rss_mb = None
    sampler = SpeedSampler() if calibrated else None
    measured = 0.0
    rep = 0
    while rep < spec["min_reps"] or measured < spec["seconds"]:
        traced = tracer is not None and rep % 2 == 1
        argv = _with_rep(spec["argv"], rep)
        dump = _dump_path(argv)
        before = calibrate() if calibrated else None
        start = perf_counter()
        if traced:
            tracer.reset()
            tracer.install()
            try:
                record = _run_command(cli, argv)
            finally:
                tracer.uninstall()
        else:
            record = _run_command(cli, argv)
        end = perf_counter()
        record["cal_s"] = None
        if calibrated:
            record["cal_s"] = sampler.mean_between(start, end, before, calibrate())
        measured += record["wall_s"]
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            dump_bytes = os.path.getsize(dump) if dump and os.path.exists(dump) else 0
            record["layers"] = layer_metrics(tracer.spans, spec["threads"], dump_bytes)
            spans = tracer.dump()
        record["kind"] = "traced" if traced else "timed"
        record["problems"] = command_problems(record, check, columns)
        if dump and os.path.exists(dump):
            os.remove(dump)
        records.append(record)
        rep += 1
    if calibrated:
        sampler.stop()

    for argv in spec["check_argvs"]:
        record = _run_command(cli, argv)
        record["kind"] = "check"
        record["problems"] = command_problems(record, check, columns)
        records.append(record)

    result = {"records": records, "peak_rss_mb": peak_rss_mb, "spans": spans}
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "setup" and len(sys.argv) == 4:
        setup(sys.argv[2], sys.argv[3])
    elif mode == "run" and len(sys.argv) == 3:
        run(sys.argv[2])
    else:
        sys.exit("usage: worker.py setup SRC CSV | worker.py run SPEC")
