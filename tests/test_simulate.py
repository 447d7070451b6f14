"""Series generation, lag embedding, and Monte Carlo estimators."""

import warnings

import numpy as np
import pytest

from edforecast.data import DegenerateScaleError, lag_embed, push_lag, write_csv
from edforecast.simulate import (
    estimate_fdm,
    generate,
    high_d_model,
    linear_model,
    low_d_model,
    prediction_error_mc,
    seasonal_model,
    zero_model,
    TimeSeriesModel,
    UnstableModelError,
)


def ar1_model(a=0.7, sd=1.0):
    return linear_model(np.array([[1.0]]), np.array([[a]]), noise_sd=sd, name="ar1")


def test_zero_model_zero_noise_gives_zeros():
    model = zero_model(d=3, r=1, noise_sd=0.0)
    series = generate(model, 50, burn_in=10)
    assert np.all(series == 0.0)


def test_low_d_model_shape_and_eigenvalue():
    model = low_d_model()
    assert model.d == 5 and model.r == 1
    # rank-1 companion eigenvalue a . v = 0.85
    assert model.spectral_radius == pytest.approx(0.85, abs=1e-12)
    series = generate(model, 200, burn_in=200)
    assert series.shape == (200, 5)


def test_high_d_model_structure():
    model = high_d_model()
    assert model.d == 30 and model.r == 1
    assert model.spectral_radius < 1.0
    series = generate(model, 200, burn_in=200)
    assert series.shape == (200, 30)


def test_generated_series_bounded():
    for model in (low_d_model(), high_d_model(), seasonal_model()):
        series = generate(model, 10_000, burn_in=500)
        sd = np.std(series)
        assert np.max(np.abs(series)) < 10.0 * sd


def test_generation_deterministic():
    model = low_d_model()
    a = generate(model, 100, burn_in=50, seed=3)
    b = generate(model, 100, burn_in=50, seed=3)
    assert np.array_equal(a, b)


def test_generate_rejects_negative_burn_in():
    model = low_d_model()
    with pytest.raises(ValueError, match="burn_in"):
        generate(model, 10, burn_in=-5, seed=3)
    assert generate(model, 10, burn_in=0, seed=3).shape == (10, model.d)


def test_trained_network_as_evolution_map():
    # a Network is a valid evolution map through its batched evaluator
    from edforecast.network import Architecture, Network
    from edforecast.simulate import TimeSeriesModel

    A = np.array([[0.3, 0.1], [0.0, 0.2]])
    net = Network([A, np.eye(2)], [np.zeros(2)])
    model = TimeSeriesModel(d=2, r=1, f0=net.eval_batch, noise_sd=0.1, name="net-driven")
    series = generate(model, 100, burn_in=50, seed=8)
    assert series.shape == (100, 2)
    assert np.all(np.isfinite(series))


def test_unstable_model_raises_with_diagnostic():
    model = linear_model(np.array([[2.0]]), np.array([[1.5]]), noise_sd=1.0)
    with pytest.raises(UnstableModelError, match="spectral radius"):
        generate(model, 100, burn_in=5000)


def reference_generate(model, n, burn_in=1000, seed=0):
    # the former generate: the divergence check runs after every step
    rng = np.random.default_rng(seed)
    d, r = model.d, model.r
    state = np.zeros(d * r)
    out = np.empty((n, d))
    total = burn_in + n
    noise = rng.standard_normal((total, d)) * model.noise_sd
    for step in range(total):
        x = model.f0(state[None, :])[0] + noise[step]
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > 1e12:
            raise UnstableModelError(f"path diverged at step {step}")
        if step >= burn_in:
            out[step - burn_in] = x
        state = push_lag(state, x)
    return out


def test_generate_matches_per_step_reference():
    r2 = linear_model(np.array([[0.5], [0.3]]), np.array([[0.4, 0.2, -0.3, 0.1]]),
                      noise_sd=0.7, r=2)
    for model, n, burn_in, seed in ((low_d_model(), 9000, 1000, 1),
                                    (high_d_model(), 3000, 5000, 2),
                                    (seasonal_model(), 4096, 0, 4),
                                    (r2, 5000, 4095, 3)):
        assert np.array_equal(generate(model, n, burn_in=burn_in, seed=seed),
                              reference_generate(model, n, burn_in=burn_in, seed=seed))


def _blows_past_threshold(X):
    # non-finite once the state leaves [-40, 40]
    return np.where(np.abs(X) > 40.0, np.nan, 0.9 * X)


@pytest.mark.parametrize("model, n, burn_in, seed", [
    (linear_model(np.array([[2.0]]), np.array([[1.5]]), noise_sd=1.0), 100, 5000, 0),
    (linear_model(np.array([[1.0]]), np.array([[1.005]]), noise_sd=1.0), 20000, 100, 1),
    (TimeSeriesModel(d=1, r=1, f0=_blows_past_threshold, noise_sd=12.0), 20000, 10, 2),
], ids=["in_burn_in", "second_chunk", "non_finite"])
def test_generate_reports_first_diverged_step_without_warnings(model, n, burn_in, seed):
    with pytest.raises(UnstableModelError) as ref:
        reference_generate(model, n, burn_in=burn_in, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnstableModelError) as got:
            generate(model, n, burn_in=burn_in, seed=seed)
    step = str(ref.value).split(" step ")[1]
    assert str(got.value).startswith(f"path diverged at step {step}")


def test_ar1_autocovariance_matches_closed_form():
    a, sd, n = 0.6, 1.0, 100_000
    model = ar1_model(a=a, sd=sd)
    x = generate(model, n, burn_in=2000, seed=5)[:, 0]
    var_target = sd * sd / (1 - a * a)
    for k in (0, 1, 3):
        emp = float(np.mean(x[: n - k] * x[k:]))
        target = var_target * a ** k
        # 3-sigma Monte Carlo band (conservative scale for dependent data)
        se = 3.0 * var_target / np.sqrt(n) * 3.0
        assert abs(emp - target) < se


def test_stationary_mean_near_zero():
    model = low_d_model()
    series = generate(model, 50_000, burn_in=1000, seed=9)
    sd = np.std(series, axis=0)
    assert np.all(np.abs(series.mean(axis=0)) < 3 * sd / np.sqrt(50_000) * 10)


# -- lag embedding ---------------------------------------------------------


def test_lag_embed_r1_pairs():
    series = np.array([[1.0], [2.0], [3.0]])
    data = lag_embed(series, 1)
    assert data.X.tolist() == [[1.0], [2.0]]
    assert data.Y.tolist() == [[2.0], [3.0]]
    assert data.n == 3 and data.r == 1


def test_lag_embed_r2_newest_first():
    # handwritten embedding of a 5-step scalar series
    series = np.array([[10.0], [11.0], [12.0], [13.0], [14.0]])
    data = lag_embed(series, 2)
    assert data.X.tolist() == [[11.0, 10.0], [12.0, 11.0], [13.0, 12.0]]
    assert data.Y.tolist() == [[12.0], [13.0], [14.0]]


def test_lag_embed_r2_multivariate_order():
    series = np.array([[1.0, -1.0], [2.0, -2.0], [3.0, -3.0]])
    data = lag_embed(series, 2)
    # input = (X_{i-1}, X_{i-2}) concatenated newest-first
    assert data.X.tolist() == [[2.0, -2.0, 1.0, -1.0]]
    assert data.Y.tolist() == [[3.0, -3.0]]


def test_normalize_roundtrip():
    rng = np.random.default_rng(0)
    series = rng.normal(0, 2, size=(100, 3))
    data = lag_embed(series, 1, normalize=True)
    assert np.all(data.X >= 0.0) and np.all(data.X <= 1.0)
    lo, hi = data.scaler.lo, data.scaler.hi
    back = data.scaler.transform(series) * (hi - lo) + lo
    assert np.max(np.abs(back - series)) <= 1e-12


def test_normalize_degenerate_coordinate_named():
    series = np.ones((10, 2))
    series[:, 0] = np.arange(10)
    with pytest.raises(DegenerateScaleError, match="coordinate 1"):
        lag_embed(series, 1, normalize=True)


def test_lag_embed_too_short():
    with pytest.raises(ValueError):
        lag_embed(np.zeros((2, 1)), 2)


# -- Monte Carlo prediction error ------------------------------------------


def test_prediction_error_of_truth_is_noise_variance():
    model = low_d_model()
    est, se = prediction_error_mc(model.f0, model, n_mc=100_000, seed=7920)
    assert abs(est - 0.25) < 3 * se


def test_prediction_error_zero_predictor_matches_long_run_average():
    model = low_d_model()
    zero = lambda X: np.zeros((X.shape[0], model.d))
    est, se = prediction_error_mc(zero, model, n_mc=200_000, seed=7921)
    # independent oracle: long sample path average of |X|^2/d
    series = generate(model, 1_000_000, burn_in=2000, seed=123)
    oracle = float(np.mean(np.sum(series * series, axis=1) / model.d))
    assert abs(est - oracle) < 4 * se


def test_prediction_error_zero_weight_gives_zero():
    model = low_d_model()
    zero_w = lambda X: np.zeros(X.shape[0])
    est, se = prediction_error_mc(model.f0, model, w=zero_w, n_mc=1000, seed=7922)
    assert est == 0.0


# -- functional dependence measure ------------------------------------------


def test_fdm_iid_series_is_zero():
    model = zero_model(d=2, r=1, noise_sd=1.0)
    for k in (1, 3):
        delta, se = estimate_fdm(model, k, n_mc=2000, burn_in=10, seed=104729)
        assert delta == 0.0


def test_fdm_ar1_closed_form():
    a, sd = 0.7, 1.0
    model = ar1_model(a=a, sd=sd)
    for k in (1, 4):
        delta, se = estimate_fdm(model, k, q=2.0, n_mc=20_000, burn_in=50, seed=104740)
        target = a ** k * np.sqrt(2.0) * sd
        assert abs(delta - target) < 3 * se


def test_fdm_nonincreasing_in_k():
    model = ar1_model(a=0.8)
    deltas = [estimate_fdm(model, k, n_mc=20_000, burn_in=50, seed=104742)[0]
              for k in (1, 3, 5, 8)]
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))


def test_fdm_variance_scales_with_paths():
    # halving the number of paths roughly doubles the estimator variance
    model = ar1_model(a=0.7)
    big, small = [], []
    for rep in range(20):
        big.append(estimate_fdm(model, 2, n_mc=4000, burn_in=20, seed=1000 + rep)[0])
        small.append(estimate_fdm(model, 2, n_mc=2000, burn_in=20, seed=5000 + rep)[0])
    ratio = np.var(small, ddof=1) / np.var(big, ddof=1)
    assert 1.5 < ratio < 2.5


def reference_estimate_fdm(model, k, q=2.0, n_mc=10000, burn_in=300, seed=0):
    # the path and its coupled copy as two arrays, each advanced on its own
    rng = np.random.default_rng(seed)
    d = model.d
    states = np.zeros((n_mc, d * model.r))
    for _ in range(burn_in):
        states = push_lag(states, model.f0(states) + model.innovations(rng, n_mc))
    coupled = states.copy()
    eps_swap = model.innovations(rng, n_mc)
    eps_star = model.innovations(rng, n_mc)
    states = push_lag(states, model.f0(states) + eps_swap)
    coupled = push_lag(coupled, model.f0(coupled) + eps_star)
    for _ in range(k):
        eps = model.innovations(rng, n_mc)
        states = push_lag(states, model.f0(states) + eps)
        coupled = push_lag(coupled, model.f0(coupled) + eps)
    diff = np.abs(states[:, :d] - coupled[:, :d]) ** q
    moments = np.mean(diff, axis=0)
    j = int(np.argmax(moments))
    m = moments[j]
    se_m = float(np.std(diff[:, j], ddof=1) / np.sqrt(n_mc))
    delta = float(m ** (1.0 / q))
    return delta, (se_m * delta / (q * m) if m > 0 else se_m)


def test_fdm_lanes_match_two_array_reference():
    # the path and its copy run as one array of 2 n_mc lanes; each lane's
    # bits are those of the path or the copy advanced on its own
    from edforecast.network import Architecture
    from edforecast.train import init_network

    r2 = linear_model(np.array([[0.5], [0.3]]), np.array([[0.4, 0.2, -0.3, 0.1]]),
                      noise_sd=0.7, r=2)
    net = init_network(Architecture((3, 8, 8, 3)), 5)
    net_model = TimeSeriesModel(d=3, r=1, f0=net.eval_batch, noise_sd=0.2)
    for model, seed in ((low_d_model(), 104732), (r2, 11), (net_model, 12)):
        for k in (1, 5):
            got = estimate_fdm(model, k, q=2.0, n_mc=1500, burn_in=40, seed=seed)
            assert got == reference_estimate_fdm(model, k, q=2.0, n_mc=1500, burn_in=40,
                                                 seed=seed)


@pytest.mark.parametrize("diagnostic, burn_in, k", [
    ("prediction_error_mc", 300, None), ("prediction_error_mc", 2000, None),
    ("prediction_error_mc", 65, None),
    ("estimate_fdm", 300, 2), ("estimate_fdm", 2000, 2),
    ("estimate_fdm", 50, 40), ("estimate_fdm", 50, 2000),
], ids=["prediction_error_mc-300", "prediction_error_mc-2000", "prediction_error_mc-65",
        "estimate_fdm-300", "estimate_fdm-2000", "estimate_fdm-50-k40", "estimate_fdm-50-k2000"])
def test_monte_carlo_diagnostics_refuse_a_diverging_model(diagnostic, burn_in, k):
    # spectral radius 1.5: the lanes pass 1e12 by step 300 and overflow by step
    # 2000 of the burn-in; after a burn-in of 65 they pass it at the one step
    # that follows, and after one of 50 within 41 coupled steps (k = 40) or
    # overflow (k = 2000). As generate does, each run raises where its lanes
    # end instead of returning a figure or NaN
    model = linear_model([[1.0]], [[1.5]])
    run = {"prediction_error_mc": lambda: prediction_error_mc(lambda X: X, model, n_mc=500,
                                                              burn_in=burn_in, seed=7919),
           "estimate_fdm": lambda: estimate_fdm(model, k, n_mc=500, burn_in=burn_in,
                                                seed=104729)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnstableModelError, match=r"spectral radius 1\.5000"):
            run[diagnostic]()


def test_truth_predictor_risk_converges_to_noise_variance():
    model = low_d_model()
    series = generate(model, 100_000, burn_in=1000, seed=4)
    data = lag_embed(series, 1)
    from edforecast.train import WeightFn, empirical_risk

    risk = empirical_risk(model.f0(data.X), data, WeightFn())
    floor = model.noise_sd ** 2
    # 3-sigma Monte Carlo band for the mean of (|eps|^2/d)-type averages
    band = 3.0 * floor * np.sqrt(2.0 / len(data))
    assert abs(risk - floor) < band


def test_series_csv_roundtrip_bit_exact(tmp_path):
    from edforecast.data import load_series_csv, save_series_csv

    rng = np.random.default_rng(3)
    series = rng.normal(0, 1.7, size=(40, 3))
    path = tmp_path / "series.csv"
    save_series_csv(path, series, provenance={"seed": 3})
    back = load_series_csv(path)
    assert np.array_equal(back, series)


def test_write_csv_cells_and_provenance(tmp_path):
    path = tmp_path / "table.csv"
    rows = [(1, np.float64(0.1), None), (2, 0.25, np.float64(-1e-300))]
    write_csv(path, ["k", "a", "b"], rows, provenance={"tool": "x-1", "seed": 7})
    # ints print as themselves, other numbers as repr(float(v)) (never
    # np.float64(...)), None as an empty field
    assert path.read_text() == "# tool=x-1\n# seed=7\nk,a,b\n1,0.1,\n2,0.25,-1e-300\n"
    write_csv(path, ["k"], [(3,)])
    assert path.read_text() == "k\n3\n"


@pytest.mark.parametrize("r", [1, 2, 3])
def test_push_lag_steps_lag_embed_rows(r):
    series = np.random.default_rng(r).normal(size=(12, 2))
    data = lag_embed(series, r)
    for i in range(len(data) - 1):
        assert np.array_equal(push_lag(data.X[i], data.Y[i]), data.X[i + 1])
    assert np.array_equal(push_lag(data.X[:-1], data.Y[:-1]), data.X[1:])
