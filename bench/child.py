"""One benchmark repetition: run the siegelbm command line in this process.

Started by bench/run.py with a single argument, the path of a JSON spec:

    {"src": "<checkout>/src", "argv": [...siegelbm CLI arguments...],
     "result": "<file to write>", "trace": false, "readback": null}

The child imports siegelbm from the checkout's src directory only, wraps a
few names from the outside (nothing under src/ is changed), calls
``siegelbm.cli.main(argv)`` and writes a JSON result file before it exits.

Untraced, the only wrappers are around the two ``simulate_*_paths`` names as
bound in ``siegelbm.cli``: they stamp the first entry into the simulation
(the end of set-up) and add up the time spent inside the simulation and the
path-steps it was asked for.

Traced (``"trace": true``), spans are recorded in memory around every call
into the hot-path layers, each as (name, start, end, parent, rows, ok), and
written to the result file at the end.  Names are wrapped where the calling
module binds them (``matrix_flow._takagi_batch``, ``cli.write_jsonl``, ...),
because a module that imported a name holds its own reference.

With ``"readback": "<dir>"`` the child then loads ``<dir>/trajectories.jsonl``
with ``read_jsonl``, recomputes ``moment_report`` and compares it with
``<dir>/summary.json``.

With ``"argv": null`` the child only imports the package and exits: run.py
uses that to compile bytecode before it measures anything.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

clock = time.perf_counter


def now_monotonic() -> float:
    """System-wide monotonic clock, comparable with the parent's stamps."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SimulateTimer:
    """Untraced hooks: set-up end, simulation time and path-steps."""

    def __init__(self):
        self.first_entry = None
        self.sim_s = 0.0
        self.path_steps = 0

    def wrap_simulate(self, fn):
        def simulate(cfg, *args, **kwargs):
            if self.first_entry is None:
                self.first_entry = now_monotonic()
            t0 = clock()
            try:
                return fn(cfg, *args, **kwargs)
            finally:
                self.sim_s += clock() - t0
                self.path_steps += cfg.n_paths * cfg.n_steps

        return simulate

    def install(self, cli):
        cli.simulate_particle_paths = self.wrap_simulate(cli.simulate_particle_paths)
        cli.simulate_matrix_paths = self.wrap_simulate(cli.simulate_matrix_paths)

    def result(self) -> dict:
        return {"first_entry": self.first_entry, "sim_s": self.sim_s, "path_steps": self.path_steps}


class Tracer(SimulateTimer):
    """Traced hooks: one span per call into each wrapped name."""

    def __init__(self):
        super().__init__()
        self.spans: list = []
        self.stack: list = []
        self.dt = None

    def wrap(self, fn, name, rows=None, after=None):
        """Span around fn.  rows(args) counts the work handed in; after(out,
        args) returns the final (name, ok) once the call has returned, where
        ok counts accepted rows (or, for write_jsonl, bytes written)."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = [name, t0, t1, parent, 0, 0]
            span = spans[idx]
            if rows is not None:
                span[4] = rows(args)
            if after is not None:
                span[0], span[5] = after(out, args)
            return out

        return traced

    def wrap_generator(self, factory):
        """Noise streams: time the construction and every draw."""
        draw_span = self.wrap(lambda gen, *a, **k: gen.standard_normal(*a, **k), "ensemble.noise")
        make = self.wrap(factory, "ensemble.noise")

        class TimedGenerator:
            def __init__(self, gen):
                self._gen = gen

            def standard_normal(self, *args, **kwargs):
                return draw_span(self._gen, *args, **kwargs)

            def __getattr__(self, attr):
                return getattr(self._gen, attr)

        def path_generator(*args, **kwargs):
            return TimedGenerator(make(*args, **kwargs))

        return path_generator

    def install(self, cli):
        import numpy as np

        from siegelbm import ensemble, matrix_flow, particle_flow

        def simulate_span(fn):
            timed = self.wrap(self.wrap_simulate(fn), "ensemble.simulate")

            def simulate(cfg, *args, **kwargs):
                self.dt = cfg.dt
                return timed(cfg, *args, **kwargs)

            return simulate

        cli.simulate_particle_paths = simulate_span(cli.simulate_particle_paths)
        cli.simulate_matrix_paths = simulate_span(cli.simulate_matrix_paths)

        def n_rows(args):
            return int(np.shape(args[0])[0])

        kernels = (("particle_flow", particle_flow.ParticleKernel), ("matrix_flow", matrix_flow.MatrixKernel))
        for layer, cls in kernels:

            def after(status, args, layer=layer):
                kind = "step" if args[3] == self.dt else "refine"
                return f"{layer}.attempt.{kind}", int(np.count_nonzero(np.asarray(status) == ensemble.OK))

            cls.attempt = self.wrap(cls.attempt, layer, rows=lambda a: len(a[2]), after=after)
            cls.observe = self.wrap(cls.observe, "ensemble.observe")

        ensemble.path_generator = self.wrap_generator(ensemble.path_generator)
        for module in (particle_flow, matrix_flow):
            module._gradient_raw = self.wrap(module._gradient_raw, "entropy.gradient", rows=n_rows)
        matrix_flow._takagi_batch = self.wrap(matrix_flow._takagi_batch, "linalg.takagi", rows=n_rows)
        matrix_flow._congruence = self.wrap(matrix_flow._congruence, "matrix_flow.congruence")
        matrix_flow._noise_matrix = self.wrap(matrix_flow._noise_matrix, "matrix_flow.noise_matrix")

        def file_bytes(out, args):
            return "ensemble.write_jsonl", Path(args[1]).stat().st_size

        cli.write_jsonl = self.wrap(cli.write_jsonl, "ensemble.write_jsonl", after=file_bytes)
        ensemble.read_jsonl = self.wrap(ensemble.read_jsonl, "ensemble.read_jsonl")
        cli.moment_report = self.wrap(cli.moment_report, "stats.moment_report")
        cli.compare_ensembles = self.wrap(cli.compare_ensembles, "stats.compare")
        cli._write_artifacts = self.wrap(cli._write_artifacts, "cli.artifacts")
        cli.config_from_dict = self.wrap(cli.config_from_dict, "config.parse")

    def result(self) -> dict:
        out = super().result()
        out["spans"] = self.spans
        return out


def check_readback(outdir: Path) -> dict:
    """Load the trajectories back and recompute their moment report."""
    from siegelbm import cli, ensemble

    ens = ensemble.read_jsonl(str(outdir / "trajectories.jsonl"))
    report = json.loads(json.dumps(cli.moment_report(ens)))
    summary = json.loads((outdir / "summary.json").read_text())
    same = all(summary.get(key) == value for key, value in report.items())
    n_paths, n_times = ens.samples.shape[:2]
    return {"n_times": int(n_times), "samples": int(n_paths * n_times), "report_matches": same}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import siegelbm
    from siegelbm import cli

    if src not in Path(siegelbm.__file__).resolve().parents:
        print(f"siegelbm was imported from {siegelbm.__file__}, not from {src}", file=sys.stderr)
        return 4
    if spec["argv"] is None:
        return 0

    hooks = Tracer() if spec["trace"] else SimulateTimer()
    hooks.install(cli)
    rc = cli.main(spec["argv"])
    result = {"rc": rc}
    if spec["readback"] and rc == 0:
        result["readback"] = check_readback(Path(spec["readback"]))
    result.update(hooks.result())
    Path(spec["result"]).write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
