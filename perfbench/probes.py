"""Probes at agestruct's layer boundaries: operation checks, spans and counts.

A probe replaces one public name at the module attribute through which
``harness`` and ``acceptance`` look it up (``harness.simulate``,
``acceptance.replicate_stream``, ``RateModel.death_rate``, ...), so no file
of the program changes.  Every probe checks the operation it wraps; these
checks give the benchmark's ``attempted``/``failed`` counts and are on in
both kinds of run.  A traced probe also records a span (name, parent, start,
end) and exact counts at the same boundary.  Spans stay in memory until the
child process reports.

The exact counts are derived from what a call returns or leaves behind:

* accepted events of a trajectory: deaths plus ``births_life / k``, exact
  for a deterministic life law of brood ``k >= 1`` or a zero birth bound;
* RNG words: read from the generator state (the Philox counter and buffer
  position, the SFC64 output counter);
* grid path-cell-steps: the active width ``min(n_room + k, J)`` of each
  step summed over steps and paths;
* solver steps and cells: the shape of the returned frames.

``test_probes.py`` checks each derivation against the program on a tiny case.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from agestruct import acceptance, harness
from agestruct.acceptance import AcceptanceSuite
from agestruct.rates import RateModel

SIMULATE = "branching.simulate"
STUDIES = {"run_lln": "lln", "run_qv_check": "qv", "run_clt": "clt"}


def philox_words(bitgen) -> int:
    """64-bit words a Philox generator has handed out since it was keyed."""
    st = bitgen.state
    return 4 * int(st["state"]["counter"][0]) + int(st["buffer_pos"]) - 4


def sfc64_words(bitgen) -> int:
    """Output counter of an SFC64 generator (one step per 64-bit word)."""
    return int(bitgen.state["state"]["state"][3])


def accepted_events(model: RateModel, traj) -> int:
    """Accepted events of one trajectory, from its counters."""
    if model.birth_sup == 0.0:
        return traj.deaths
    law = model.life_law
    if law.kind == "deterministic" and law.k >= 1:
        return traj.deaths + traj.births_life // law.k
    raise ValueError("accepted births are not derivable from the counters "
                     f"for life law {law.kind!r} with k={law.k}")


def path_cell_steps(background, n_paths: int) -> int:
    """Cells the grid path engine advances: active width per step, summed."""
    n_times, n_cells = background.values.shape
    n_room = int(round(background.a_star / background.dx))
    return n_paths * sum(min(n_room + k, n_cells) for k in range(n_times - 1))


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Probe:
    """Operation checks, and with ``traced`` spans and counts, for one process."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.attempted = 0
        self.failures: list[str] = []
        self.spans: list[list] = []          # [name, parent index or -1, t0, t1]
        self._open: list[int] = []
        self.sims: list[tuple] = []          # (seconds, K, events, ledger, rng words)
        self.counts: Counter = Counter()
        self.block_cells = 0                 # cells of the largest grid path block

    # -- operations -------------------------------------------------------
    def op(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    # -- spans --------------------------------------------------------------
    def _open_span(self, name: str):
        if not self.traced:
            return None
        span = [name, self._open[-1] if self._open else -1, 0.0, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        return span

    def _close(self, span) -> None:
        if span is not None:
            span[3] = time.perf_counter()
            self._open.pop()

    def _in_simulate(self) -> bool:
        return bool(self._open) and self.spans[self._open[-1]][0] == SIMULATE

    def wrap(self, name: str, fn, after=None, before=None):
        """``fn`` as an operation boundary; ``after`` checks and counts its result."""
        probe = self

        def wrapped(*args, **kwargs):
            token = None
            if before is not None:
                args = list(args)
                token = before(args, kwargs)
            span = probe._open_span(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                probe._close(span)
                probe.op(name, False, f"raised {exc!r}")
                raise
            probe._close(span)
            if after is not None:
                after(args, kwargs, out, span, token)
            return out

        return wrapped

    # -- per-boundary checks and counts --------------------------------------
    def _rng_words_before(self, args, kwargs) -> int:
        return philox_words(_arg(args, kwargs, 5, "rng").bit_generator)

    def _after_simulate(self, args, kwargs, traj, span, words0) -> None:
        ok = traj.check_mass_bookkeeping() and bool(
            np.isfinite(traj.snapshots[-1].ages).all())
        self.op(SIMULATE, ok, "mass bookkeeping failed or non-finite ages")
        if span is None:
            return
        words = philox_words(_arg(args, kwargs, 5, "rng").bit_generator) - words0
        self.sims.append((span[3] - span[2], int(_arg(args, kwargs, 2, "k")),
                          accepted_events(_arg(args, kwargs, 0, "model"), traj),
                          bool(kwargs.get("with_ledger", False)), words))

    def _after_solve_mvf(self, args, kwargs, sol, span, _) -> None:
        v = sol.values
        self.op("mvf.solve_mvf", bool(np.isfinite(v).all()) and float(v.min()) >= -1e-12,
                "negative or non-finite limit density")
        if span is not None:
            self.counts["mvf.steps"] += v.shape[0] - 1
            self.counts["mvf.cells"] += v.shape[1]

    def _after_evolve_mean(self, args, kwargs, path, span, _) -> None:
        self.op("spde.evolve_mean", bool(np.isfinite(path.values).all()),
                "non-finite mean path")
        if span is not None:
            self.counts["spde.mean_steps"] += path.values.shape[0] - 1

    def _before_paths(self, args, kwargs):
        """Swap the stream factory for one that remembers each block's generator."""
        if not self.traced:
            return None
        gens: list = []
        factory = _arg(args, kwargs, 6, "stream_factory")

        def recording_factory(block: int):
            rng = factory(block)
            gens.append((rng, sfc64_words(rng.bit_generator)))
            return rng

        if len(args) > 6:
            args[6:7] = [recording_factory]
        else:
            kwargs["stream_factory"] = recording_factory
        return gens

    def _after_paths(self, args, kwargs, out, span, gens) -> None:
        block = _arg(args, kwargs, 7, "block_size")
        for start in range(0, out.shape[0], block):
            self.op("spde.path_block", bool(np.isfinite(out[start:start + block]).all()),
                    f"non-finite pairings in the block at path {start}")
        if span is None:
            return
        background, n_paths = _arg(args, kwargs, 1, "background"), out.shape[0]
        cells = path_cell_steps(background, n_paths)
        self.counts["spde.path_blocks"] += len(gens)
        self.counts["spde.path_cell_steps"] += cells
        self.counts["spde.rng_words"] += sum(
            sfc64_words(rng.bit_generator) - w0 for rng, w0 in gens)
        self.block_cells = max(self.block_cells,
                               min(block, n_paths) * background.values.shape[1])

    @contextmanager
    def installed(self):
        """Put the probes in place for the duration of the block."""
        w = self.wrap
        patches = [
            (harness, "simulate", w(SIMULATE, harness.simulate, self._after_simulate,
                                    self._rng_words_before if self.traced else None)),
            (acceptance, "simulate", w(SIMULATE, acceptance.simulate, self._after_simulate,
                                       self._rng_words_before if self.traced else None)),
            (harness, "solve_mvf", w("mvf.solve_mvf", harness.solve_mvf,
                                     self._after_solve_mvf)),
            (harness, "evolve_mean", w("spde.evolve_mean", harness.evolve_mean,
                                       self._after_evolve_mean)),
            (harness, "simulate_fluctuation_paths",
             w("spde.simulate_fluctuation_paths", harness.simulate_fluctuation_paths,
               self._after_paths, self._before_paths)),
        ]
        if self.traced:
            patches += [
                (harness, "replicate_stream",
                 w("harness.replicate_stream", harness.replicate_stream)),
                (acceptance, "replicate_stream",
                 w("harness.replicate_stream", acceptance.replicate_stream)),
                (harness, "build_initial", w("harness.build_initial", harness.build_initial)),
                (AcceptanceSuite, "criterion_8",
                 w("acceptance.criterion_8", AcceptanceSuite.criterion_8)),
                (RateModel, "death_rate", self._counting_death_rate(RateModel.death_rate)),
            ]
            patches += [(harness, fn, w(f"harness.{fn}", getattr(harness, fn)))
                        for fn in STUDIES]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, new in patches:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in saved:
                setattr(owner, attr, old)

    def _counting_death_rate(self, fn):
        probe = self

        def death_rate(model, x, mu, k=None):
            if probe._in_simulate():
                probe.counts["branching.candidates"] += 1
            return fn(model, x, mu, k)

        return death_rate

    # -- summaries ----------------------------------------------------------
    def span_times(self) -> tuple[dict, dict]:
        """Total and self seconds per span name (self = span minus its children)."""
        total: dict = defaultdict(float)
        child: list = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            total[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        own: dict = defaultdict(float)
        for (name, _, t0, t1), c in zip(self.spans, child):
            own[name] += t1 - t0 - c
        return total, own

    def layer_metrics(self) -> tuple[dict, dict]:
        """Per-layer metrics of this process, and the detail the cross-check reads."""
        total, own = self.span_times()
        calls = Counter(s[0] for s in self.spans)
        c = self.counts
        sims = self.sims
        plain = [s for s in sims if not s[3]]
        ledger = [s for s in sims if s[3]]
        sim_s = sum(s[0] for s in sims)
        events = sum(s[2] for s in sims)
        words = sum(s[4] for s in sims)
        ms = np.array([s[0] for s in sims]) * 1e3
        harness_self = sum(own[f"harness.{fn}"] for fn in STUDIES)
        outside = (harness_self + own["acceptance.criterion_8"]
                   + total["harness.build_initial"] + total["harness.replicate_stream"])
        paths_s = total["spde.simulate_fluctuation_paths"]

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        def us_per_event(rows):
            return per(sum(s[0] for s in rows), sum(s[2] for s in rows), 1e6)

        m = {
            "branching.simulate.calls": len(sims),
            "branching.simulate_s": sim_s,
            "branching.replicate_ms_p50": float(np.percentile(ms, 50)) if sims else 0.0,
            "branching.replicate_ms_p90": float(np.percentile(ms, 90)) if sims else 0.0,
            "branching.events": events,
            "branching.us_per_event": us_per_event(plain),
            "branching.us_per_event_ledger": us_per_event(ledger),
            "branching.rng_words": words,
            "branching.rng_words_per_replicate": per(words, len(sims)),
            "branching.candidates": c["branching.candidates"],
            "branching.accept_ratio": per(events, c["branching.candidates"]),
            "mvf.solve_mvf.calls": calls["mvf.solve_mvf"],
            "mvf.solve_mvf_s": total["mvf.solve_mvf"],
            "mvf.steps": c["mvf.steps"],
            "mvf.cells": c["mvf.cells"],
            "mvf.ms_per_step": per(total["mvf.solve_mvf"], c["mvf.steps"], 1e3),
            "spde.paths_s": paths_s,
            "spde.path_blocks": c["spde.path_blocks"],
            "spde.path_cell_steps": c["spde.path_cell_steps"],
            "spde.ns_per_path_cell_step": per(paths_s, c["spde.path_cell_steps"], 1e9),
            "spde.rng_words": c["spde.rng_words"],
            "spde.evolve_mean.calls": calls["spde.evolve_mean"],
            "spde.mean_steps": c["spde.mean_steps"],
            "spde.ms_per_mean_step": per(total["spde.evolve_mean"], c["spde.mean_steps"], 1e3),
            "harness.self_s": harness_self,
            "harness.build_initial.calls": calls["harness.build_initial"],
            "harness.build_initial_s": total["harness.build_initial"],
            "harness.replicate_stream_us": per(total["harness.replicate_stream"],
                                               calls["harness.replicate_stream"], 1e6),
            "harness.overhead_us_per_replicate": per(outside, len(sims), 1e6),
            "acceptance.self_s": own["acceptance.criterion_8"],
        }
        for fn, study in STUDIES.items():
            m[f"harness.run_s.{study}"] = total[f"harness.{fn}"]

        def replicate_ms(k, with_ledger):
            rows = [s[0] for s in sims if s[1] == k and s[3] == with_ledger]
            return per(sum(rows), len(rows), 1e3)

        detail = {
            "us_per_event_K10000": us_per_event([s for s in plain if s[1] == 10_000]),
            "replicate_ms_K1000": replicate_ms(1000, False),
            "replicate_ms_K1000_ledger": replicate_ms(1000, True),
            "criterion_8_us_per_replicate": per(total["acceptance.criterion_8"],
                                                len(sims), 1e6),
            "solve_mvf_s_per_call": per(total["mvf.solve_mvf"], calls["mvf.solve_mvf"]),
            "solve_mvf_cells_per_call": per(c["mvf.cells"], calls["mvf.solve_mvf"]),
            "spde_block_bytes": 8 * self.block_cells,
            "spans": len(self.spans),
        }
        return m, detail


def rng_floor_ns(repeats: int = 5, n: int = 1 << 20) -> float:
    """Median ns per SFC64 ``standard_normal`` draw into a preallocated array."""
    rng = np.random.Generator(np.random.SFC64(12345))
    buf = np.empty(n)
    rng.standard_normal(out=buf)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        rng.standard_normal(out=buf)
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) / n * 1e9

