import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncdm import datagen
from ncdm.datagen import (
    FEATURE_NAMES,
    CellModelParams,
    cell_radius,
    simulate_population,
    write_population,
)
from ncdm.datagen import _cell_rng, _run_and_tumble, _turn_angles, _unit_vector
from ncdm.ingest import read_timeseries_csv


def params(upsilon=3.0, **kw) -> CellModelParams:
    return CellModelParams(upsilon=upsilon, **kw)


# ----------------------------------------------------------------------
# Loop oracles: the simulator's kernels one sample at a time. The array
# kernels must give the same bytes and consume the same random stream.
# ----------------------------------------------------------------------


def oracle_run_and_tumble(rng: np.random.Generator, n_steps: int, p: CellModelParams) -> np.ndarray:
    pos = np.zeros((n_steps, 3))
    cur = np.zeros(3)
    i = 1
    while i < n_steps:
        run_len = max(1, int(round(rng.exponential(p.run_duration_mean))))
        direction = _unit_vector(rng)
        for _ in range(run_len):
            if i >= n_steps:
                break
            cur = cur + p.run_speed * direction
            pos[i] = cur
            i += 1
        if i >= n_steps:
            break
        tumble_len = max(1, int(round(rng.exponential(p.tumble_duration_mean))))
        for _ in range(tumble_len):
            if i >= n_steps:
                break
            cur = cur + p.run_speed * p.tumble_step_scale * rng.normal(size=3)
            pos[i] = cur
            i += 1
    return pos


def oracle_turn_angles(deltas: np.ndarray) -> np.ndarray:
    angles = np.zeros(len(deltas))
    for t in range(2, len(deltas)):
        a, b = deltas[t - 1], deltas[t]
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na > 1e-12 and nb > 1e-12:
            cosine = float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))
            angles[t] = np.arccos(cosine)
    return angles


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_steps=st.integers(2, 300),
    run_mean=st.floats(0.05, 30.0),
    tumble_mean=st.floats(0.05, 10.0),
    speed=st.floats(0.01, 5.0),
    jitter=st.floats(0.0, 2.0),
)
def test_run_and_tumble_matches_the_loop_bit_for_bit(seed, n_steps, run_mean, tumble_mean, speed, jitter):
    p = params(
        run_duration_mean=run_mean,
        tumble_duration_mean=tumble_mean,
        run_speed=speed,
        tumble_step_scale=jitter,
    )
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _run_and_tumble(rng, n_steps, p)
    want = oracle_run_and_tumble(oracle_rng, n_steps, p)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


# A row is a random vector, a zero row, a row below the 1e-12 norm cut, or
# the previous row times a power of two: exactly parallel or antiparallel,
# so the cosine can land just outside [-1, 1] and the clip acts.
_ROW = st.one_of(
    st.tuples(st.just("vector"), st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3)),
    st.tuples(st.just("zero"), st.none()),
    st.tuples(st.just("tiny"), st.lists(st.floats(-4e-13, 4e-13), min_size=3, max_size=3)),
    st.tuples(st.just("scaled"), st.sampled_from([1.0, 2.0, 0.5, -1.0, -4.0, -0.25])),
)


def _deltas(rows) -> np.ndarray:
    out = [np.zeros(3)]
    for kind, value in rows:
        if kind == "scaled":
            out.append(out[-1] * value)
        elif kind == "zero":
            out.append(np.zeros(3))
        else:
            out.append(np.array(value))
    return np.array(out)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ROW, min_size=0, max_size=40))
@example([  # cosines of 1 + 2**-52 and -(1 + 2**-52) before the clip, then both masks
    ("vector", [-1.303, 0.905, 0.446]), ("scaled", 1.0),
    ("vector", [0.294, 0.028, 0.547]), ("scaled", -1.0),
    ("zero", None), ("vector", [0.1, 0.2, 0.3]), ("tiny", [1e-13, 0.0, 0.0]), ("scaled", 2.0),
])
def test_turn_angles_match_the_loop_bit_for_bit(rows):
    deltas = _deltas(rows)
    assert _turn_angles(deltas).tobytes() == oracle_turn_angles(deltas).tobytes()


@pytest.mark.parametrize("seed", [0, 1])
def test_population_matches_the_loop_oracles(monkeypatch, seed):
    """The benchmark's cell corpus: 16 cells per class, seeds from one SeedSequence."""
    for upsilon, cell_seed in zip((3.0, 0.9), np.random.SeedSequence(seed).generate_state(2)):
        p = params(upsilon=upsilon, track_len_range=(228, 280), seed=int(cell_seed))
        got = simulate_population(p, 16)
        with monkeypatch.context() as m:
            m.setattr(datagen, "_run_and_tumble", oracle_run_and_tumble)
            m.setattr(datagen, "_turn_angles", oracle_turn_angles)
            want = simulate_population(p, 16)
        assert [(t.index, t.birth_time, t.lifespan, t.fate) for t in got] == [
            (t.index, t.birth_time, t.lifespan, t.fate) for t in want
        ]
        for g, w in zip(got, want):
            assert g.features.tobytes() == w.features.tobytes()


# -- radius model ---------------------------------------------------------


def test_radius_at_birth_is_r0():
    assert cell_radius(5.0, 5.0, 10.0, 500.0, 3.0) == 10.0


def test_radius_doubles_at_end_of_life():
    assert cell_radius(505.0, 5.0, 10.0, 500.0, 3.0) == pytest.approx(20.0)
    assert cell_radius(505.0, 5.0, 10.0, 500.0, 0.9) == pytest.approx(20.0)


def test_radius_linear_case_midlife():
    assert cell_radius(250.0, 0.0, 10.0, 500.0, 1.0) == pytest.approx(15.0)


def test_radius_outside_lifespan_rejected():
    with pytest.raises(ValueError):
        cell_radius(-1.0, 0.0, 10.0, 500.0, 3.0)
    with pytest.raises(ValueError):
        cell_radius(501.0, 0.0, 10.0, 500.0, 3.0)


# -- parameter draws -------------------------------------------------------


def test_gamma_lifespan_moments():
    p = params(seed=11)
    draws = np.array(
        [_cell_rng(p.seed, i).gamma(p.lifespan_shape, p.lifespan_scale) for i in range(100_000)]
    )
    mean, var = draws.mean(), draws.var()
    se_mean = math.sqrt(50 * 100) / math.sqrt(len(draws))
    assert abs(mean - 500.0) <= 3 * se_mean
    # variance must be shape*scale^2; a shape/scale swap would give 25000
    se_var = 5000.0 * math.sqrt((2.0 + 6.0 / 50) / len(draws))  # SE of gamma sample variance
    assert abs(var - 5000.0) <= 3 * se_var


def test_gamma_initial_radius_moments():
    p = params(seed=12)
    draws = np.array([_cell_rng(p.seed, i + 500_000).gamma(p.r0_shape, p.r0_scale) for i in range(100_000)])
    assert abs(draws.mean() - 10.0) <= 0.05
    assert abs(draws.var() - 200 * 0.05**2) <= 0.05


def test_population_lifespan_sample_mean():
    tracks = simulate_population(params(seed=3), 400)
    mean = np.mean([t.lifespan for t in tracks])
    assert abs(mean - 500.0) <= 3 * (500.0 / math.sqrt(50 * 400)) * math.sqrt(50)


# -- simulation -------------------------------------------------------------


def test_track_shapes_and_lengths():
    tracks = simulate_population(params(seed=0), 30)
    assert len(tracks) == 30
    for t in tracks:
        rows, cols = t.features.shape
        assert cols == 23 == len(FEATURE_NAMES)
        assert 228 <= rows <= 280
        assert np.isfinite(t.features).all()


def test_population_limit_respected_and_fates():
    n = 25
    tracks = simulate_population(params(seed=1), n)
    assert len(tracks) == n
    fates = {t.fate for t in tracks}
    assert fates <= {"divided", "apoptosis"}
    assert "apoptosis" in fates  # the limit always stops the lineage
    divided = sum(t.fate == "divided" for t in tracks)
    # each division creates two cells; total created stays within the limit
    assert 1 + 2 * divided <= n + 2


def test_children_born_at_parent_death():
    tracks = simulate_population(params(seed=2), 15)
    death_times = {round(t.birth_time + t.lifespan, 9) for t in tracks if t.fate == "divided"}
    child_births = sorted({round(t.birth_time, 9) for t in tracks if t.birth_time > 0})
    for b in child_births:
        assert b in death_times


def test_deterministic_under_seed():
    a = simulate_population(params(seed=9), 10)
    b = simulate_population(params(seed=9), 10)
    for x, y in zip(a, b):
        assert x.lifespan == y.lifespan
        assert np.array_equal(x.features, y.features)


def test_noise_and_motion_independent_of_upsilon():
    fast = simulate_population(params(upsilon=3.0, seed=4), 10)
    slow = simulate_population(params(upsilon=0.9, seed=4), 10)
    radius_col = FEATURE_NAMES.index("radius")
    rate_col = FEATURE_NAMES.index("radius_rate")
    growth_cols = {radius_col, rate_col}
    for f, s in zip(fast, slow):
        assert f.features.shape == s.features.shape
        for col in range(23):
            same = np.array_equal(f.features[:, col], s.features[:, col])
            if col in growth_cols:
                assert not same
            else:
                assert same  # motion and noise draws never touch upsilon


def test_radius_trajectory_convex_vs_concave():
    fast = simulate_population(params(upsilon=3.0, seed=5), 5)
    slow = simulate_population(params(upsilon=0.9, seed=5), 5)
    col = FEATURE_NAMES.index("radius")
    for t in fast:
        second_diff = np.diff(t.features[:, col], n=2)
        assert second_diff.mean() > 0  # accelerating growth
    for t in slow:
        second_diff = np.diff(t.features[:, col], n=2)
        assert second_diff.mean() < 0  # decelerating growth


def test_radius_column_matches_model():
    tracks = simulate_population(params(upsilon=2.0, seed=6), 3)
    col = FEATURE_NAMES.index("radius")
    for t in tracks:
        rows = t.features.shape[0]
        r0 = t.features[0, col]
        end = t.features[rows - 1, col]
        assert end == pytest.approx(2 * r0, rel=1e-9)
        mid = t.features[(rows - 1) // 2, col]
        assert r0 < mid < end


def test_params_validation():
    with pytest.raises(ValueError):
        CellModelParams(upsilon=0.0)
    with pytest.raises(ValueError):
        CellModelParams(upsilon=1.0, lifespan_shape=-1)
    with pytest.raises(ValueError):
        CellModelParams(upsilon=1.0, track_len_range=(10, 5))
    with pytest.raises(ValueError):
        simulate_population(params(), 0)


# -- output -----------------------------------------------------------------


def test_write_population_round_trip(tmp_path):
    p = params(seed=7)
    tracks = simulate_population(p, 5)
    manifest = write_population(tracks, tmp_path, p)
    assert (tmp_path / "manifest.json").is_file()
    loaded = json.loads((tmp_path / "manifest.json").read_text())
    assert loaded["n_cells"] == 5
    assert loaded["params"]["upsilon"] == 3.0
    assert loaded == manifest
    for entry in loaded["cells"]:
        ts = read_timeseries_csv(tmp_path / entry["file"])
        assert ts.values.shape == (entry["length"], 23)
        assert ts.feature_names == FEATURE_NAMES
        assert entry["fate"] in ("divided", "apoptosis")
