"""Alg. 2 first-hit scans and the tiled EM merge against naive references.

Every Alg. 2 scan (the dense ``_dpbook_above`` rounds, the tiled
``_fold_dpbook`` cursors and ``dpbook_kernel``) starts where the trial's
previous segment ended and compares a doubling window at a time.  These
properties pin it to the naive form that rescans the whole suffix
``noisy[start:]`` on every refresh: same positions, same selections, same
``processed``, for dense and tiled runs, shared and per-trial streams,
single epsilons and grids.  The tiled EM merge (per-tile top c first) must
equal the dense kernel, also when c reaches the tile width or n.  The last
test counts replay work without timing anything.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import normalize_thresholds
from repro.engine import trials as engine_trials
from repro.engine.kernels import (
    dpbook_kernel,
    dpbook_kernel_stream,
    first_hit,
    scan_window,
)
from repro.engine.noise import TrialStreams, laplace_matrix, laplace_vector
from repro.engine.plans import noise_plan
from repro.engine.trials import _UnitNoise, run_trials
from repro.rng import derive_rngs, ensure_rng

FIELDS = ("selection", "processed", "halted", "num_positives", "ser", "fnr")


def suffix_first_hit(row, thresholds, rho, start):
    """The naive scan: compare the whole suffix, take its first hit."""
    hits = np.nonzero(row[start:] >= thresholds[start:] + rho)[0]
    return start + int(hits[0]) if hits.size else -1


def naive_dpbook_above(values, thr, plan, c, rng, trials, units=None):
    """Alg. 2's comparison matrix by full-suffix rescans, one round at a
    time over the active trials: the draw order of ``_dpbook_above``."""
    n = values.shape[1]
    if units is not None:
        rho = units.rho * plan.rho_scale
        nu = units.nu * plan.nu_scale
    else:
        rho = laplace_vector(rng, plan.rho_scale, trials)
        nu = laplace_matrix(rng, plan.nu_scale, trials, n)
    rho = rho.copy()
    noisy = values + nu
    per_trial = isinstance(rng, (list, tuple))
    above = np.zeros((trials, n), dtype=bool)
    start = np.zeros(trials, dtype=np.int64)
    count = np.zeros(trials, dtype=np.int64)
    active = np.ones(trials, dtype=bool)
    while active.any():
        refresh = []
        for t in np.nonzero(active)[0]:
            pos = suffix_first_hit(noisy[t], thr, rho[t], int(start[t]))
            if pos < 0:
                active[t] = False
                continue
            above[t, pos] = True
            count[t] += 1
            start[t] = pos + 1
            if count[t] >= c:
                active[t] = False
            else:
                refresh.append(t)
        if refresh:
            if per_trial:
                for t in refresh:
                    rho[t] = float(rng[t].laplace(scale=plan.refresh_scale))
            else:
                rho[refresh] = rng.laplace(scale=plan.refresh_scale, size=len(refresh))
    return above


def naive_alg2_trial(values, thr, epsilons, c, gen, grid):
    """One trial's Alg. 2 selections per epsilon from its own stream, by
    full-suffix rescans (the per-trial loop the engine must reproduce)."""
    n = values.size
    if grid:
        rho_unit = float(gen.laplace(scale=1.0))
        nu_unit = gen.laplace(scale=1.0, size=n)
    out = []
    for eps in epsilons:
        plan = noise_plan("alg2", eps, c, 1.0)
        if grid:
            rho, nu = rho_unit * plan.rho_scale, nu_unit * plan.nu_scale
        else:
            rho = float(gen.laplace(scale=plan.rho_scale))
            nu = gen.laplace(scale=plan.nu_scale, size=n)
        noisy = values + nu
        selection, start, processed = [], 0, n
        while start < n:
            pos = suffix_first_hit(noisy, thr, rho, start)
            if pos < 0:
                break
            selection.append(pos)
            if len(selection) >= c:
                processed = pos + 1
                break
            rho = float(gen.laplace(scale=plan.refresh_scale))
            start = pos + 1
        out.append((selection, processed))
    return out


def alg2_instance(data, max_n=60):
    """Scores, a scalar or per-query threshold, c (possibly >= n), trials."""
    n = data.draw(st.integers(1, max_n), label="n")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    values = np.floor(np.random.default_rng(seed).pareto(1.5, size=n) * 20 + 1)
    c = data.draw(st.integers(1, n + 3), label="c")
    level = float(np.sort(values)[::-1][min(c, n) - 1])
    if data.draw(st.booleans(), label="vector thresholds"):
        thresholds = np.random.default_rng(seed + 1).normal(level, 5.0, size=n)
    else:
        thresholds = level
    trials = data.draw(st.integers(1, 5), label="trials")
    return values, thresholds, c, trials, seed


def draw_chunk_n(data, n):
    """1, a width that does not divide n, or a width wider than n."""
    kinds = ["one", "wide"] + (["ragged"] if n >= 3 else [])
    kind = data.draw(st.sampled_from(kinds), label="chunk kind")
    if kind == "one":
        return 1
    if kind == "wide":
        return n + data.draw(st.integers(1, 5), label="extra width")
    return data.draw(st.integers(2, n - 1).filter(lambda k: n % k), label="chunk_n")


epsilon_grids = st.one_of(
    st.sampled_from([0.2, 1.0, 5.0]),
    st.lists(st.sampled_from([0.1, 0.5, 2.0, 8.0]), min_size=1, max_size=3, unique=True),
)


def as_cells(result):
    return result if isinstance(result, dict) else {None: result}


def assert_same(a, b, msg):
    for eps in a:
        for field in FIELDS:
            np.testing.assert_array_equal(
                getattr(a[eps], field), getattr(b[eps], field), err_msg=f"{msg} {field}"
            )


class TestFirstHit:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_first_hit_equals_suffix_scan(self, data):
        n = data.draw(st.integers(1, 1500), label="n")
        gen = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        row = gen.normal(size=n)
        thresholds = gen.normal(size=n)
        # The offset thins the hits out, down to one in a few hundred, so
        # scans also miss whole windows and double them.
        offset = data.draw(st.sampled_from([0.0, 2.5, 3.5]), label="offset")
        rho = offset + gen.normal() * 0.1
        start = data.draw(st.integers(0, n), label="start")
        window = data.draw(st.sampled_from([1, 3, 64, 200, 1000]), label="window")
        want = suffix_first_hit(row, thresholds, rho, start)
        assert first_hit(row, thresholds, rho, start, window) == want

    def test_scan_window_comes_from_n_and_c(self):
        assert scan_window(100_000, 50) == 100_000 // 51
        assert scan_window(10, 3) == 2
        assert scan_window(10, 20) == scan_window(0, 1) == 1


class TestDpbookKernel:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_kernel_equals_stream_and_suffix_reference(self, data):
        n = data.draw(st.integers(1, 400), label="n")
        c = data.draw(st.integers(1, n + 3), label="c")
        gen = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        values = gen.normal(size=n) * 3
        thresholds = gen.normal(size=n)
        nu = gen.laplace(size=n) * data.draw(st.sampled_from([0.5, 2.0, 6.0]))
        rhos = gen.laplace(scale=2.0, size=c + 1)
        result = dpbook_kernel(values, thresholds, rhos, nu, c)
        stream = dpbook_kernel_stream(values, thresholds, rhos, nu, c)
        assert result.positives == stream.positives
        assert (result.processed, result.halted) == (stream.processed, stream.halted)
        assert result.noisy_threshold_trace == stream.noisy_threshold_trace
        noisy, positives, start = values + nu, [], 0
        while start < n and len(positives) < c:
            pos = suffix_first_hit(noisy, thresholds, rhos[len(positives)], start)
            if pos < 0:
                break
            positives.append(pos)
            start = pos + 1
        assert result.positives == positives


class TestAlg2DenseAboveMatrix:
    @given(st.data(), st.booleans(), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_above_matrix_equals_suffix_rounds(self, data, per_trial, with_units):
        values, thresholds, c, trials, seed = alg2_instance(data)
        n = values.size
        thr = normalize_thresholds(thresholds, n)
        matrix = np.broadcast_to(values, (trials, n))
        plan = noise_plan("alg2", data.draw(st.sampled_from([0.1, 1.0, 4.0])), c, 1.0)

        def fresh():
            if per_trial:
                return derive_rngs(seed, trials, "dense-above")
            return ensure_rng(seed)

        def units(rng):
            if not with_units:
                return None
            return _UnitNoise(rho=laplace_vector(rng, 1.0, trials),
                              nu=laplace_matrix(rng, 1.0, trials, n))

        rng_a, rng_b = fresh(), fresh()
        got = engine_trials._dpbook_above(matrix, thr, plan, c, rng_a, trials, units(rng_a))
        want = naive_dpbook_above(matrix, thr, plan, c, rng_b, trials, units(rng_b))
        np.testing.assert_array_equal(got, want)


class TestAlg2RunTrials:
    @given(st.data(), epsilon_grids)
    @settings(max_examples=80, deadline=None)
    def test_dense_and_tiled_equal_per_trial_reference(self, data, epsilons):
        values, thresholds, c, trials, seed = alg2_instance(data)
        n = values.size
        chunk_n = draw_chunk_n(data, n)
        grid = not np.isscalar(epsilons)
        eps_list = list(epsilons) if grid else [epsilons]
        kwargs = dict(thresholds=thresholds, compute_metrics=c <= n)
        dense = as_cells(run_trials("alg2", values, epsilons, c, trials,
                                    rng=derive_rngs(seed, trials, "alg2"), **kwargs))
        tiled = as_cells(run_trials("alg2", values, epsilons, c, trials, chunk_n=chunk_n,
                                    rng=derive_rngs(seed, trials, "alg2"), **kwargs))
        assert_same(dense, tiled, f"chunk_n={chunk_n}")

        thr = normalize_thresholds(thresholds, n)
        for t, gen in enumerate(derive_rngs(seed, trials, "alg2")):
            for k, (selection, processed) in enumerate(
                naive_alg2_trial(values, thr, eps_list, c, gen, grid)
            ):
                cell = dense[eps_list[k] if grid else None]
                padded = selection + [-1] * (c - len(selection))
                assert cell.selection[t].tolist() == padded
                assert cell.processed[t] == processed

    @given(st.data(), epsilon_grids)
    @settings(max_examples=40, deadline=None)
    def test_shared_stream_tiled_equals_dense(self, data, epsilons):
        """From one seed, the execution layer derives the same per-trial
        streams for a dense budgeted run and a tiled one."""
        values, thresholds, c, trials, seed = alg2_instance(data)
        chunk_n = draw_chunk_n(data, values.size)
        kwargs = dict(thresholds=thresholds, compute_metrics=c <= values.size)
        tiled = as_cells(run_trials("alg2", values, epsilons, c, trials,
                                    rng=seed, chunk_n=chunk_n, **kwargs))
        dense = as_cells(run_trials("alg2", values, epsilons, c, trials,
                                    rng=seed, max_bytes=1 << 30, **kwargs))
        assert_same(dense, tiled, f"chunk_n={chunk_n}")


class TestTiledEm:
    @given(st.data(), epsilon_grids)
    @settings(max_examples=80, deadline=None)
    def test_tiled_equals_dense(self, data, epsilons):
        values, _thresholds, c, trials, seed = alg2_instance(data, max_n=80)
        n = values.size
        # Widths at, below and above c, so the per-tile partition is both
        # taken and skipped.
        chunk_n = data.draw(st.sampled_from(sorted({1, max(1, c - 1), c, c + 1, n, n + 4})),
                            label="chunk_n")
        kwargs = dict(compute_metrics=c <= n,
                      monotonic=data.draw(st.booleans(), label="monotonic"))
        dense = as_cells(run_trials("em", values, epsilons, c, trials,
                                    rng=derive_rngs(seed, trials, "em"), **kwargs))
        tiled = as_cells(run_trials("em", values, epsilons, c, trials, chunk_n=chunk_n,
                                    rng=derive_rngs(seed, trials, "em"), **kwargs))
        assert_same(dense, tiled, f"c={c} n={n} chunk_n={chunk_n}")


class _CountingGenerator:
    """A replay generator that counts the query-noise draws it makes."""

    def __init__(self, gen, trial, drawn):
        self._gen, self._trial, self._drawn = gen, trial, drawn

    def laplace(self, *, scale, size):
        self._drawn[self._trial] += size
        return self._gen.laplace(scale=scale, size=size)


class TestTiledAlg2ReplayCost:
    @pytest.mark.parametrize("epsilons", [0.05, [0.05, 0.2, 1.0]])
    def test_later_rounds_replay_each_tile_at_most_once(self, monkeypatch, epsilons):
        """Counted, not timed: after the first sweep, each trial opens at
        most one replayer and re-derives at most n draws per epsilon."""
        opened, drawn = Counter(), Counter()
        replayer = TrialStreams.replayer

        def counting_replayer(self, trial, state):
            opened[trial] += 1
            return _CountingGenerator(replayer(self, trial, state), trial, drawn)

        monkeypatch.setattr(TrialStreams, "replayer", counting_replayer)
        n, c, trials = 400, 12, 4
        values = np.floor(np.random.default_rng(5).pareto(1.5, size=n) * 20 + 1)
        threshold = float(np.sort(values)[::-1][c])
        result = as_cells(run_trials("alg2", values, epsilons, c, trials, thresholds=threshold,
                                     rng=derive_rngs(5, trials, "cost"), chunk_n=7))
        grid_points = len(result)
        assert sum(int(b.num_positives.sum()) for b in result.values()) > 2 * trials
        assert opened, "no later round ever left its first tile"
        assert max(opened.values()) <= grid_points
        assert max(drawn.values()) <= grid_points * n
