"""Each exact count the benchmark reports, checked against the program on a tiny case.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import dataclasses

import numpy as np
import pytest

import probes
import workloads
from agestruct import harness, spde
from agestruct.branching import simulate
from agestruct.measures import AtomicMeasure, make_panel
from agestruct.rates import OffspringLaw, classical_model, pure_splitting

KERNEL = harness.model_from_config(workloads.KERNEL_MODEL)
CRITERION_8 = classical_model(0.0, 1.0, OffspringLaw.deterministic(0),
                              OffspringLaw.deterministic(0))


def tiny_clt_config(seed=7, model=None, dt=0.05):
    return harness.ExperimentConfig(
        model=dict(model or workloads.KERNEL_MODEL), initial=dict(workloads.UNIFORM),
        perturbation=dict(workloads.UNIFORM), horizon=0.5, dt=dt, dt_out=0.5,
        k_values=[30], replicates=3, panel=["1", "exp:-1"], seed=seed,
        n_spde_paths=5, spde_block=2)


@pytest.mark.parametrize("model,n0,k", [(pure_splitting(1.0, 2), 50, 50),
                                        (KERNEL, 40, 40),
                                        (CRITERION_8, 3, 1)])
def test_events_match_event_log(model, n0, k):
    a0 = AtomicMeasure(ages=np.linspace(0.0, 1.0, n0), weight=1.0, t_star=2.0)
    traj = simulate(model, a0, k=k, horizon=1.0, dt_out=0.5,
                    rng=harness.replicate_stream(11, harness.PURPOSE_SIM, 0, 3),
                    log_events=True, t_star=2.0)
    assert len(traj.events) > 0
    assert probes.accepted_events(model, traj) == len(traj.events)


def test_events_refuse_random_life_law():
    model = classical_model(0.5, 1.0, OffspringLaw.poisson(1.0),
                            OffspringLaw.deterministic(0))
    a0 = AtomicMeasure(ages=np.zeros(5), weight=1.0, t_star=2.0)
    traj = simulate(model, a0, k=5, horizon=1.0, dt_out=1.0,
                    rng=harness.replicate_stream(1, 1, 0, 0), t_star=2.0)
    with pytest.raises(ValueError):
        probes.accepted_events(model, traj)


@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 9])
def test_philox_words_match_generator_state(n):
    rng = harness.replicate_stream(5, harness.PURPOSE_SIM, 2, 1)
    rng.random(n)
    assert probes.philox_words(rng.bit_generator) == n


def test_simulate_rng_words_are_whole_uniform_blocks():
    a0 = AtomicMeasure(ages=np.zeros(3), weight=1.0, t_star=1.0)
    small = harness.replicate_stream(3, harness.PURPOSE_SIM, 8, 0)
    simulate(CRITERION_8, a0, k=1, horizon=1.0, dt_out=1.0, rng=small, t_star=1.0)
    assert probes.philox_words(small.bit_generator) == 8192
    big = harness.replicate_stream(3, harness.PURPOSE_SIM, 8, 1)
    a0 = AtomicMeasure(ages=np.zeros(2000), weight=1.0, t_star=2.0)
    simulate(pure_splitting(1.0, 2), a0, k=2000, horizon=1.0, dt_out=1.0, rng=big,
             t_star=2.0)
    words = probes.philox_words(big.bit_generator)
    assert words > 8192 and words % 8192 == 0


@pytest.mark.parametrize("n", [0, 1, 7])
def test_sfc64_words_match_generator_state(n):
    rng = harness.spde_noise_stream(5, 0)
    w0 = probes.sfc64_words(rng.bit_generator)
    rng.random(n)
    assert probes.sfc64_words(rng.bit_generator) - w0 == n


class CountingStream:
    """Generator stand-in that counts the normals the path engine asks for."""

    def __init__(self, rng):
        self.rng, self.normals = rng, 0

    def standard_normal(self, size):
        out = self.rng.standard_normal(size)
        self.normals += out.size
        return out


@pytest.mark.parametrize("model", [pure_splitting(1.0, 2), KERNEL])
def test_path_cell_steps_match_brute_force_width_sum(model, monkeypatch):
    bg = harness.background_solution(tiny_clt_config(), model)
    n_paths, block = 5, 2
    cells = []
    engine_step = spde._engine_step

    def counting_step(z, k, co, w0, w1, rng):
        if rng is not None:
            cells.append(z.shape[0] * w0)
        return engine_step(z, k, co, w0, w1, rng)

    monkeypatch.setattr(spde, "_engine_step", counting_step)
    streams = []

    def factory(b):
        streams.append(CountingStream(harness.spde_noise_stream(9, b)))
        return streams[-1]

    z0 = np.zeros(bg.values.shape[1])
    spde.simulate_fluctuation_paths(model, bg, z0, n_paths, make_panel(t_star=bg.t_star),
                                    [0.5], factory, block_size=block)
    derived = probes.path_cell_steps(bg, n_paths)
    assert derived == sum(cells) > 0
    n_steps = bg.values.shape[0] - 1
    assert sum(s.normals for s in streams) == derived + n_paths * n_steps


def test_spde_rng_words_cover_the_normals():
    cfg = tiny_clt_config(model=dict(workloads.KERNEL_MODEL))
    probe = probes.Probe(traced=True)
    with probe.installed():
        harness.run_clt(cfg, workers=1)
    layers, _ = probe.layer_metrics()
    bg = harness.background_solution(cfg, cfg.build_model())
    normals = layers["spde.path_cell_steps"] + cfg.n_spde_paths * (bg.values.shape[0] - 1)
    assert normals <= layers["spde.rng_words"] <= 1.1 * normals
    assert layers["spde.path_blocks"] == 3


def traced_counts(cfg):
    probe = probes.Probe(traced=True)
    with probe.installed():
        harness.run_clt(cfg, workers=1)
    layers, _ = probe.layer_metrics()
    return probe, {k: v for k, v in layers.items()
                   if isinstance(v, int) or k.endswith("words_per_replicate")}


def test_counts_repeat_exactly_and_spans_nest():
    cfg = tiny_clt_config()
    first, counts = traced_counts(cfg)
    _, again = traced_counts(dataclasses.replace(cfg))
    assert counts == again
    assert counts["branching.candidates"] > counts["branching.events"] > 0
    assert counts["branching.simulate.calls"] == cfg.replicates
    assert counts["mvf.steps"] == 10 and counts["spde.mean_steps"] == 10
    assert not first.failures and first.attempted > 0
    assert all(parent < i for i, (_, parent, _, _) in enumerate(first.spans))
    _, own = first.span_times()
    assert min(own.values()) >= 0.0
    plain = probes.Probe(traced=False)
    with plain.installed():
        harness.run_clt(cfg, workers=1)
    assert plain.attempted == first.attempted and not plain.spans


def test_probes_are_removed_afterwards():
    before = (harness.simulate, harness.run_clt, probes.RateModel.death_rate)
    with probes.Probe(traced=True).installed():
        assert harness.simulate is not before[0]
    assert (harness.simulate, harness.run_clt, probes.RateModel.death_rate) == before


def test_a_raising_operation_counts_as_failed():
    probe = probes.Probe(traced=True)

    def broken():
        raise ArithmeticError("boom")

    with pytest.raises(ArithmeticError):
        probe.wrap("x.op", broken)()
    assert probe.attempted == 1 and "boom" in probe.failures[0]
    assert probe.spans[0][3] >= probe.spans[0][2] and not probe._open
