"""Tracker: initialization, EKF, scoring, per-frame step, memory."""

import functools
import logging
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hst

from quadtrack import scenarios, tracker
from quadtrack.detection import Detection, DetectionSet, GyroSample
from quadtrack.errors import TrackerAbort
from quadtrack.geometry import BoundingBox
from quadtrack.replay import replay_track
from quadtrack.simulator import run
from quadtrack.tracker import (EkfState, Tracker, TrackerConfig, TrackerWeights,
                               _innovation_gain, at_prompt, choose, cosine_score,
                               ekf_predict, ekf_update, initialize,
                               predict_jacobian, predicted_box, score, step,
                               update_memory, weighted_total)

from conftest import box_array, camera_from_focal, fd_transition_jacobian

CAM = camera_from_focal(960, 544, 500.0)
DIM = 8


def unit(i, dim=DIM):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def det(box, desc=None, conf=0.9):
    return Detection(box, conf, unit(0) if desc is None else np.asarray(desc, dtype=float))


def make_cfg(**kw):
    return TrackerConfig(camera=CAM, **kw)


def fresh_state(box=BoundingBox(100.0, 100.0, 40.0, 30.0), cfg=None):
    cfg = cfg or make_cfg()
    return initialize(box.center, DetectionSet(0.0, [det(box)]), cfg)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_initialize_picks_nearest_center():
    # centers (90, 100) and (100, 130); prompt (100, 100): d = 10 vs 30
    b1 = BoundingBox(80.0, 90.0, 20.0, 20.0)
    b2 = BoundingBox(90.0, 120.0, 20.0, 20.0)
    cfg = make_cfg()
    st = initialize((100.0, 100.0), DetectionSet(0.5, [det(b1), det(b2, unit(1))]), cfg)
    assert st.last_box == b1
    assert np.array_equal(st.ekf.mean, [80.0, 90.0, 20.0, 20.0, 0.0, 0.0])
    assert np.array_equal(st.ekf.cov, np.diag(cfg.p0_diag))
    assert st.ekf.p is cfg.p0_floats   # the config's packed P0, built once
    assert st.ekf.t == 0.5
    assert np.array_equal(st.memory, unit(0))
    assert st.coast_frames == 0


def test_initialize_prompt_at_center_wins():
    b1 = BoundingBox(0.0, 0.0, 20.0, 20.0)
    b2 = BoundingBox(300.0, 300.0, 20.0, 20.0)
    st = initialize(b2.center, DetectionSet(0.0, [det(b1), det(b2)]), make_cfg())
    assert st.last_box == b2


def test_initialize_matches_brute_force_scan():
    rng = np.random.default_rng(17)
    cfg = make_cfg()
    for _ in range(20):
        boxes = [BoundingBox(rng.uniform(0, 900), rng.uniform(0, 500),
                             rng.uniform(5, 120), rng.uniform(5, 120))
                 for _ in range(50)]
        prompt = (rng.uniform(0, 960), rng.uniform(0, 544))
        dets = DetectionSet(0.0, [det(b) for b in boxes])
        want = min(range(50), key=lambda i: math.hypot(
            boxes[i].center[0] - prompt[0], boxes[i].center[1] - prompt[1]))
        assert initialize(prompt, dets, cfg).last_box == boxes[want]


def test_initialize_tie_keeps_list_order():
    b = BoundingBox(10.0, 10.0, 20.0, 20.0)
    st = initialize(b.center, DetectionSet(0.0, [det(b, unit(2)), det(b, unit(3))]),
                    make_cfg())
    assert np.array_equal(st.memory, unit(2))


def test_initialize_empty_frame_raises():
    with pytest.raises(TrackerAbort, match=r"^tracker: no detections at prompt time; "
                       r"cannot initialize at t=0\.250000 s$"):
        initialize((0.0, 0.0), DetectionSet(0.25, []), make_cfg())


def test_initialize_zero_descriptor_raises():
    bad = Detection(BoundingBox(0, 0, 10, 10), 0.9, np.zeros(DIM))
    with pytest.raises(TrackerAbort, match="^tracker: chosen detection has a zero "
                       "descriptor at t=0.000000 s$"):
        initialize((5.0, 5.0), DetectionSet(0.0, [bad]), make_cfg())


# ---------------------------------------------------------------------------
# EKF predict
# ---------------------------------------------------------------------------


def test_predict_pure_constant_velocity():
    cfg = make_cfg()
    st = EkfState(np.array([100.0, 50.0, 20.0, 10.0, 10.0, -5.0]),
                  np.diag(cfg.p0_diag).astype(float), 0.0)
    out = ekf_predict(st, GyroSample(0.1, np.zeros(3)), cfg)
    assert np.allclose(out.mean, [101.0, 49.5, 20.0, 10.0, 10.0, -5.0], atol=1e-12)
    F = np.eye(6)
    F[0, 4] = F[1, 5] = 0.1
    want = F @ st.cov @ F.T + np.diag(cfg.q_diag) * 0.1
    assert np.allclose(out.cov, want, atol=1e-12)
    assert out.t == 0.1


def test_predict_rotation_at_principal_point():
    # box centered on the optical axis: normalized coords vanish, so the
    # flow reduces to (-f wy, f wx) and yaw induces nothing
    cfg = make_cfg()
    mean = np.array([455.0, 247.0, 50.0, 50.0, 0.0, 0.0])
    st = EkfState(mean, np.eye(6), 0.0)
    out = ekf_predict(st, GyroSample(0.01, np.array([0.0, 0.1, 0.0])), cfg)
    assert np.allclose(out.mean[:2], [455.0 - 500.0 * 0.1 * 0.01, 247.0], atol=1e-12)
    out = ekf_predict(st, GyroSample(0.01, np.array([0.1, 0.0, 0.0])), cfg)
    assert np.allclose(out.mean[:2], [455.0, 247.0 + 500.0 * 0.1 * 0.01], atol=1e-12)
    out = ekf_predict(st, GyroSample(0.01, np.array([0.0, 0.0, 0.1])), cfg)
    assert np.allclose(out.mean[:2], [455.0, 247.0], atol=1e-12)


def test_predict_compensation_off_ignores_gyro():
    cfg = make_cfg(gyro_compensation=False)
    mean = np.array([100.0, 100.0, 40.0, 30.0, 0.0, 0.0])
    st = EkfState(mean, np.eye(6), 0.0)
    out = ekf_predict(st, GyroSample(0.01, np.array([0.5, -0.8, 0.3])), cfg)
    assert np.array_equal(out.mean, mean)


def test_predict_zero_dt_is_noop():
    cfg = make_cfg()
    st = EkfState(np.array([10.0, 20.0, 30.0, 40.0, 1.0, 2.0]),
                  np.diag(cfg.p0_diag).astype(float), 2.0)
    out = ekf_predict(st, GyroSample(2.0, np.array([0.3, 0.1, -0.2])), cfg)
    assert np.array_equal(out.mean, st.mean)
    assert np.allclose(out.cov, st.cov, atol=0.0)


def test_predict_negative_dt_raises():
    st = EkfState(np.zeros(6) + 10.0, np.eye(6), 1.0)
    with pytest.raises(TrackerAbort, match=r"^tracker: gyro sample precedes the filter "
                       r"state \(1\.0 s\) at t=0\.990000 s$"):
        ekf_predict(st, GyroSample(0.99, np.zeros(3)), make_cfg())


def test_predict_stale_gap_warns_but_propagates(caplog):
    cfg = make_cfg()
    st = EkfState(np.array([100.0, 100.0, 40.0, 30.0, 10.0, 0.0]), np.eye(6), 0.0)
    with caplog.at_level(logging.WARNING, logger="quadtrack.tracker"):
        out = ekf_predict(st, GyroSample(0.25, np.zeros(3)), cfg)
    assert any("stale gyro" in r.message for r in caplog.records)
    assert abs(out.mean[0] - 102.5) < 1e-12


@pytest.mark.parametrize("vx,p_vx", [
    (0.0, 1e306),   # F P F^T overflows: 1e306 times dt^2 = 1e4
    (1e308, 1.0),   # the mean overflows: x + vx * dt
], ids=["covariance", "mean"])
def test_predict_overflow_raises(vx, p_vx):
    cfg = make_cfg()
    st = EkfState(np.array([100.0, 100.0, 40.0, 30.0, vx, 0.0]),
                  np.diag([1.0, 1.0, 1.0, 1.0, p_vx, 1.0]), 0.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            TrackerAbort,
            match="^tracker: filter mean or covariance is not finite after predict "
                  "at t=100.000000 s$"):
        ekf_predict(st, GyroSample(100.0, np.zeros(3)), cfg)


def test_predict_jacobian_matches_finite_differences():
    rng = np.random.default_rng(23)
    for compensate in (True, False):
        for _ in range(25):
            mean = np.array([rng.uniform(0, 960), rng.uniform(0, 544),
                             rng.uniform(5, 200), rng.uniform(5, 200),
                             rng.uniform(-80, 80), rng.uniform(-80, 80)])
            w = rng.uniform(-1.5, 1.5, size=3)
            dt = rng.uniform(0.001, 0.05)
            F = predict_jacobian(EkfState(mean, np.eye(6), 0.0), w, dt, CAM,
                                 compensate)
            J = fd_transition_jacobian(mean, w, dt, CAM, compensate)
            assert np.max(np.abs(F - J)) <= 1e-5 * max(1.0, np.max(np.abs(J)))


def test_predict_rate_independence_without_rotation():
    # constant-velocity means integrate exactly: 100 Hz and 1000 Hz land on
    # identical posteriors over the same interval
    cfg = make_cfg()
    start = EkfState(np.array([100.0, 100.0, 40.0, 30.0, 12.0, -7.0]),
                     np.diag(cfg.p0_diag).astype(float), 0.0)
    coarse = start
    for k in range(10):
        coarse = ekf_predict(coarse, GyroSample((k + 1) * 0.01, np.zeros(3)), cfg)
    fine = start
    for k in range(100):
        fine = ekf_predict(fine, GyroSample((k + 1) * 0.001, np.zeros(3)), cfg)
    assert np.max(np.abs(coarse.mean - fine.mean)) < 1e-9


def test_predicted_box_semigroup_without_rotation():
    cfg = make_cfg()
    st = EkfState(np.array([10.0, 20.0, 30.0, 40.0, 6.0, -3.0]), np.eye(6), 0.0)
    once = ekf_predict(st, GyroSample(0.1, np.zeros(3)), cfg)
    twice = ekf_predict(ekf_predict(st, GyroSample(0.05, np.zeros(3)), cfg),
                        GyroSample(0.1, np.zeros(3)), cfg)
    a, b = predicted_box(once), predicted_box(twice)
    assert np.max(np.abs(box_array(a) - box_array(b))) < 1e-9


# ---------------------------------------------------------------------------
# EKF update
# ---------------------------------------------------------------------------


def test_update_trusts_tiny_noise_measurement():
    cfg = make_cfg(r_diag=(1e-12,) * 4)
    st = EkfState(np.array([100.0, 100.0, 40.0, 30.0, 5.0, 5.0]),
                  np.diag(cfg.p0_diag).astype(float), 1.0)
    z = BoundingBox(110.0, 95.0, 42.0, 31.0)
    out = ekf_update(st, z, cfg)
    assert np.allclose(out.mean[:4], box_array(z), atol=1e-9)
    assert out.t == 1.0


def test_update_ignores_huge_noise_measurement():
    cfg = make_cfg(r_diag=(1e9,) * 4)
    st = EkfState(np.array([100.0, 100.0, 40.0, 30.0, 5.0, 5.0]),
                  np.diag(cfg.p0_diag).astype(float), 1.0)
    out = ekf_update(st, BoundingBox(400.0, 400.0, 80.0, 80.0), cfg)
    assert np.allclose(out.mean, st.mean, atol=1e-5)


def test_update_matches_scalar_kalman_closed_form():
    # diagonal P and R decouple the update into four independent 1-D
    # filters with gain p/(p+r); velocities carry zero cross-covariance
    p = np.array([10.0, 4.0, 2.5, 8.0, 100.0, 100.0])
    r = np.array([0.5, 2.0, 1.0, 4.0])
    cfg = make_cfg(r_diag=tuple(r))
    st = EkfState(np.array([100.0, 100.0, 40.0, 30.0, 5.0, -5.0]),
                  np.diag(p), 0.0)
    z = np.array([104.0, 98.0, 43.0, 29.0])
    out = ekf_update(st, BoundingBox.from_array(z), cfg)
    k = p[:4] / (p[:4] + r)
    want_mean = st.mean.copy()
    want_mean[:4] += k * (z - st.mean[:4])
    assert np.allclose(out.mean, want_mean, atol=1e-12)
    want_var = (1.0 - k) ** 2 * p[:4] + k ** 2 * r
    assert np.allclose(np.diag(out.cov)[:4], want_var, atol=1e-12)
    assert np.allclose(np.diag(out.cov)[4:], p[4:], atol=1e-12)
    off = out.cov - np.diag(np.diag(out.cov))
    assert np.max(np.abs(off)) < 1e-12


def test_update_covariance_stays_symmetric_psd():
    cfg = make_cfg()
    rng = np.random.default_rng(3)
    st = fresh_state(cfg=cfg)
    ekf = st.ekf
    t = 0.0
    for _ in range(200):
        t += 0.01
        ekf = ekf_predict(ekf, GyroSample(t, rng.uniform(-1, 1, 3)), cfg)
        if rng.uniform() < 0.5:
            z = BoundingBox(rng.uniform(0, 900), rng.uniform(0, 500),
                            rng.uniform(5, 100), rng.uniform(5, 100))
            ekf = ekf_update(ekf, z, cfg)
        assert np.max(np.abs(ekf.cov - ekf.cov.T)) < 1e-9
        assert np.linalg.eigvalsh(ekf.cov).min() >= -1e-9


def test_update_degenerate_innovation_raises():
    st = EkfState(np.array([100.0, 100.0, 40.0, 30.0, 0.0, 0.0]),
                  np.diag([1e15, 1.0, 1.0, 1.0, 1.0, 1.0]), 0.0)
    with pytest.raises(TrackerAbort, match="condition number exceeds 1e"):
        ekf_update(st, BoundingBox(100, 100, 40, 30), make_cfg())


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_update_non_finite_covariance_raises(bad):
    cov = np.eye(6)
    cov[1, 1] = bad
    st = EkfState(np.array([100.0, 100.0, 40.0, 30.0, 0.0, 0.0]), cov, 0.5)
    with pytest.raises(TrackerAbort, match="^tracker: innovation covariance is not "
                       "finite at t=0.500000 s$"):
        ekf_update(st, BoundingBox(100, 100, 40, 30), make_cfg())


def test_update_indefinite_innovation_raises():
    st = EkfState(np.array([100.0, 100.0, 40.0, 30.0, 0.0, 0.0]),
                  np.diag([-10.0, 1.0, 1.0, 1.0, 1.0, 1.0]), 0.0)
    with pytest.raises(TrackerAbort, match="not positive definite at t=0.000000 s$"):
        ekf_update(st, BoundingBox(100, 100, 40, 30), make_cfg())


# ---------------------------------------------------------------------------
# the array form of the filter: the oracle the scalar filter must match
# within a rounding-error bound derived below
# ---------------------------------------------------------------------------


def ref_ekf_predict(state, gyro, cfg):
    """The filter's predict as plain numpy arrays: eye-built F, H-free."""
    dt = gyro.t - state.t
    w = np.asarray(gyro.w, dtype=float)
    mean = state.mean.copy()
    F = np.eye(6)
    F[0, 4] = dt
    F[1, 5] = dt
    if cfg.gyro_compensation:
        f = cfg.camera.focal
        xn = (state.mean[0] + state.mean[2] / 2.0 - cfg.camera.cx) / f
        yn = (state.mean[1] + state.mean[3] / 2.0 - cfg.camera.cy) / f
        wx, wy, wz = w
        du = f * (xn * yn * wx - (1.0 + xn * xn) * wy + yn * wz)
        dv = f * ((1.0 + yn * yn) * wx - xn * yn * wy - xn * wz)
        a = yn * wx - 2.0 * xn * wy
        b = xn * wx + wz
        c = -(yn * wy + wz)
        d = 2.0 * yn * wx - xn * wy
        F[0, 0] += dt * a
        F[0, 1] = dt * b
        F[0, 2] = dt * a / 2.0
        F[0, 3] = dt * b / 2.0
        F[1, 0] = dt * c
        F[1, 1] += dt * d
        F[1, 2] = dt * c / 2.0
        F[1, 3] = dt * d / 2.0
    else:
        du = dv = 0.0
    mean[0] += (mean[4] + du) * dt
    mean[1] += (mean[5] + dv) * dt
    mean[2] = max(1.0, mean[2])
    mean[3] = max(1.0, mean[3])
    cov = F @ state.cov @ F.T + np.diag(cfg.q_diag) * dt
    cov = 0.5 * (cov + cov.T)
    return EkfState(mean, cov, gyro.t)


def ref_ekf_update(state, box, cfg):
    """The filter's update with the full selection matrix H and R."""
    H = np.zeros((4, 6))
    H[:4, :4] = np.eye(4)
    R = np.diag(cfg.r_diag).astype(float)
    S = H @ state.cov @ H.T + R
    K = np.linalg.solve(S.T, (state.cov @ H.T).T).T
    mean = state.mean + K @ (box_array(box) - H @ state.mean)
    mean[2] = max(1.0, mean[2])
    mean[3] = max(1.0, mean[3])
    IKH = np.eye(6) - K @ H
    cov = IKH @ state.cov @ IKH.T + K @ R @ K.T
    cov = 0.5 * (cov + cov.T)
    return EkfState(mean, cov, state.t)


def random_filter_state(rng, t, max_size):
    mean = np.array([rng.uniform(-100, 1000), rng.uniform(-100, 600),
                     rng.uniform(0.1, max_size), rng.uniform(0.1, max_size),
                     rng.uniform(-300, 300), rng.uniform(-300, 300)])
    A = rng.normal(size=(6, 6)) * 10.0 ** rng.uniform(-2, 2)
    cov = A @ A.T + np.diag(rng.uniform(0.01, 50.0, 6))
    return EkfState(mean, 0.5 * (cov + cov.T), t)


U = 2.0 ** -53  # unit roundoff of binary64


def gamma(n):
    """γₙ = n u / (1 − n u): the relative error bound of n roundings
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, §3.1)."""
    return n * U / (1.0 - n * U)


# Normwise backward error of a 4×4 solve, as a multiple of u: LU with
# partial pivoting gives |ΔS| ≤ γ₁₂ |L||U| (Higham Thm 9.4), with
# ‖|L||U|‖∞ ≤ (1 + 2(n² − n)ρₙ)‖S‖∞ = 193‖S‖∞ for growth ρₙ ≤ 2ⁿ⁻¹ = 8, and a
# factor n = 4 between the ∞- and 2-norms: 12 · 193 · 4 ≤ 10⁴.  The
# Cholesky-based inverse's constant is smaller (Higham §10.1, §14.2).
SOLVE_BACKWARD = 1e4


def gain_difference_bound(P, r):
    """Bound on ‖K_new − K_ref‖_F for K = B S⁻¹, B = P[:, :4], in terms of
    κ₂(S).  With ε = SOLVE_BACKWARD·u and ρ = κε/(1 − κε), each route is
    within ρ‖B‖_F‖S⁻¹‖₂ of the exact K (Higham Thm 7.2), and the scalar
    route's product B·S⁻¹ adds γ₄‖|B||X̂|‖_F ≤ 2γ₄(1 + ρ)‖B‖_F‖S⁻¹‖₂."""
    S = P[:4, :4] + np.diag(r)
    ev = np.linalg.eigvalsh(S)
    kappa = ev[-1] / ev[0]
    eps = SOLVE_BACKWARD * U * kappa
    assert eps < 0.5, kappa
    rho = eps / (1.0 - eps)
    scale = np.linalg.norm(P[:, :4]) / ev[0]
    return (2.0 * rho + 2.0 * gamma(4) * (1.0 + rho)) * scale


def test_filter_matches_array_form_within_rounding():
    # Predict: the mean keeps the array form's expressions, so its bits.
    # Both sides evaluate F P Fᵀ + Q dt with at most 15 roundings per entry
    # (two 6-term products, the Q dt product and sum, and the symmetrizing
    # sum), so each is within γ₁₅ M of the exact value, M = |F||P||F|ᵀ + Q dt
    # (Higham §3.5); one more unit covers evaluating M: |Δ| ≤ 2γ₁₆ M.
    # Update: both sides get the reference's predicted state.  The gains
    # differ by δK (gain_difference_bound); the mean m + Kν then moves by at
    # most δK‖ν‖₂ plus each side's 5-term rounding γ₅(|m| + |K||ν|); the
    # Joseph form A P Aᵀ + K R Kᵀ (A = I − KH) by at most
    # δK(‖P‖₂(2‖A‖₂ + δK) + ‖R‖₂(2‖K‖₂ + δK)) plus each side's γ₁₆
    # (two 6-term products, K·r, a 4-term product, the sums, forming A)
    # times W = |A||P||A|ᵀ + |K|R|K|ᵀ.  Observed worst: 12% of the predict
    # bound; the update bounds are looser (5.5e-5 and 2.2e-6 of them), as
    # the worst-case backward-error constant dominates.
    rng = np.random.default_rng(2024)
    kinds = {"zero_dt": 0, "stale": 0, "clamped": 0, "clamped_compensated": 0,
             "fast_gain": 0}
    for i in range(240):
        cfg = make_cfg(gyro_compensation=bool(i % 2),
                       q_diag=tuple(rng.uniform(0.0, 1.0, 6)),
                       r_diag=tuple(rng.uniform(0.01, 5.0, 4)))
        # two boxes in every 8 are below MIN_BOX_SIZE, so the mean gets
        # clamped, one predicted with gyro compensation and one without
        st = random_filter_state(rng, rng.uniform(0.0, 10.0),
                                 1.0 if i % 8 < 2 else 200.0)
        dt = (0.0, rng.uniform(0.0, 0.05), rng.uniform(0.1, 2.0))[i % 3]
        gyro = GyroSample(st.t + dt, rng.uniform(-3.0, 3.0, 3))
        kinds["zero_dt"] += dt == 0.0
        kinds["stale"] += gyro.t - st.t > 0.1
        kinds["clamped"] += bool(min(st.mean[2:4]) < 1.0)
        kinds["clamped_compensated"] += bool(min(st.mean[2:4]) < 1.0
                                             and cfg.gyro_compensation)
        logging.disable(logging.WARNING)
        try:
            got = ekf_predict(st, gyro, cfg)
        finally:
            logging.disable(logging.NOTSET)
        want = ref_ekf_predict(st, gyro, cfg)
        assert np.array_equal(got.mean, want.mean) and got.t == want.t
        assert np.array_equal(got.cov, got.cov.T)
        F = predict_jacobian(st, gyro.w, dt, CAM, cfg.gyro_compensation)
        M = np.abs(F) @ np.abs(st.cov) @ np.abs(F).T + np.diag(cfg.q_diag) * dt
        assert np.all(np.abs(got.cov - want.cov) <= 2.0 * gamma(16) * M)

        z = BoundingBox(rng.uniform(-50, 950), rng.uniform(-50, 550),
                        rng.uniform(1.0, 150), rng.uniform(1.0, 150))
        P, m = want.cov, want.mean
        got_u = ekf_update(want, z, cfg)
        want_u = ref_ekf_update(want, z, cfg)
        kinds["fast_gain"] += _innovation_gain(want.p, cfg.r_floats) is not None
        r = np.asarray(cfg.r_diag)
        dK = gain_difference_bound(P, r)
        K = np.linalg.solve(P[:4, :4] + np.diag(r), P[:4, :]).T
        A = np.eye(6)
        A[:, :4] -= K
        nu = box_array(z) - m[:4]
        mean_bound = (dK * np.linalg.norm(nu)
                      + 2.0 * gamma(5) * (np.abs(m) + np.abs(K) @ np.abs(nu)))
        assert np.all(np.abs(got_u.mean - want_u.mean) <= mean_bound)
        W = np.abs(A) @ np.abs(P) @ np.abs(A).T + (np.abs(K) * r) @ np.abs(K).T
        cov_bound = (dK * (np.linalg.norm(P, 2) * (2.0 * np.linalg.norm(A, 2) + dK)
                           + r.max() * (2.0 * np.linalg.norm(K, 2) + dK))
                     + 2.0 * gamma(16) * W)
        assert np.all(np.abs(got_u.cov - want_u.cov) <= cov_bound)
    assert min(kinds.values()) >= 20, kinds
    # every oracle state is well conditioned, so the Cholesky path takes it
    assert kinds["fast_gain"] == 240, kinds


@pytest.mark.parametrize("name", ["occlusion_decoy", "corridor_approach",
                                  "false_positive_storm"])
def test_replay_selections_equal_array_form_filter(name, monkeypatch):
    # AC7's three logs replayed with the scalar filter and with the array
    # form patched in where step() and Tracker.predict look it up: every
    # per-frame selection is the same, and the post-update means agree to
    # 1e-9 px (px/s for velocities), a thousandth of the 1e-6 px step of a
    # %.9g-formatted coordinate in the hundreds of px.  Observed: 4.8e-13.
    def selections(trace):
        return [(r["t"], r["status"], r["coast"],
                 None if r["box"] is None else tuple(np.asarray(r["box"]).tolist()))
                for r in trace]

    sc = scenarios.get(name)
    events = run(sc).events
    cfg = sc.tracker.build(sc.camera.build())
    prompt = (sc.prompt.x, sc.prompt.y)
    got = replay_track(events, prompt, sc.prompt.t, cfg)
    monkeypatch.setattr(tracker, "ekf_predict", ref_ekf_predict)
    monkeypatch.setattr(tracker, "ekf_update", ref_ekf_update)
    want = replay_track(events, prompt, sc.prompt.t, cfg)
    assert len(got) > 0 and selections(got) == selections(want)
    assert max(np.max(np.abs(np.asarray(a["mean"]) - np.asarray(b["mean"])))
               for a, b in zip(got, want)) <= 1e-9


def ref_gate(S):
    """The exact gate on S as it stood before the Cholesky fast path: the
    message class it raises, or None to accept."""
    if not np.isfinite(S).all():
        return "innovation covariance is not finite"
    ev = np.linalg.eigvalsh(S)
    if not ev[0] > 0.0:
        return "innovation covariance is not positive definite"
    if ev[-1] > 1e12 * ev[0]:
        return "innovation covariance condition number exceeds"
    return None


def gate_corpus(rng, n):
    """(P, r) pairs, S = P[:4, :4] + diag(r) built as Q Λ Qᵀ: 60% positive
    definite with κ log-uniform in [1e10, 1e14], 20% indefinite or
    singular, 20% well conditioned with a NaN or ±inf entry and its
    mirror."""
    Q, _ = np.linalg.qr(rng.normal(size=(n, 4, 4)))
    for k in range(n):
        kind = k % 5
        if kind < 3:
            lam = 10.0 ** (-rng.uniform(10.0, 14.0) * np.array(
                [0.0, *rng.uniform(0.0, 1.0, 2), 1.0]))
        else:
            lam = 10.0 ** rng.uniform(-3.0, 0.0, 4)
        if kind == 3:
            neg = int(rng.integers(1, 4))
            lam[4 - neg:] *= -(10.0 ** rng.uniform(-16.0, 0.0, neg))
            if rng.uniform() < 0.2:
                lam[3] = 0.0
        scale = 10.0 ** rng.uniform(-2.0, 4.0)
        S = scale * (Q[k] * lam) @ Q[k].T
        r = scale * rng.uniform(0.0, 1.0, 4)
        P = np.eye(6)
        P[:4, :4] = 0.5 * (S + S.T) - np.diag(r)
        if kind == 4:
            i, j = rng.integers(0, 4, 2)
            P[i, j] = P[j, i] = rng.choice([math.nan, math.inf, -math.inf])
        yield P, r


def test_cholesky_gate_decides_like_the_exact_gate(monkeypatch):
    # Every S the fast path declines goes to the exact gate unchanged, so a
    # mismatch could only be an S the fast path accepts and the exact gate
    # rejects.  The corpus straddles the 1e12 condition bound.
    exact_calls = []
    exact_gain = tracker._exact_gain

    def counting(P, cfg, t):
        exact_calls.append(t)
        return exact_gain(P, cfg, t)

    monkeypatch.setattr(tracker, "_exact_gain", counting)
    rng = np.random.default_rng(7)
    box = BoundingBox(100.0, 100.0, 40.0, 30.0)
    paths = Counter()  # (fast path took S, exact gate accepts S)
    for n, (P, r) in enumerate(gate_corpus(rng, 20000)):
        cfg = make_cfg(r_diag=tuple(r))
        want = ref_gate(P[:4, :4] + np.diag(r))
        st = EkfState(np.array([100.0, 100.0, 40.0, 30.0, 0.0, 0.0]), P, 1.0)
        try:
            ekf_update(st, box, cfg)
            got = None
        except TrackerAbort as e:
            got = e.args[1].split(" 1e+12")[0]
        assert got == want, (n, P[:4, :4], r)
        paths[_innovation_gain(st.p, cfg.r_floats) is not None, want is None] += 1
    # every branch is exercised: the fast path takes well-conditioned S;
    # S near the bound decline and are accepted by the exact gate; the rest
    # decline and raise.  (The seeded corpus gives 4918 / 1110 / 13972.)
    assert paths[True, False] == 0, paths
    assert len(exact_calls) == paths[False, True] + paths[False, False], paths
    assert (paths[True, True] >= 3000 and paths[False, True] >= 500
            and paths[False, False] >= 10000), paths


# ---------------------------------------------------------------------------
# the written-out Joseph update against numpy's, for one gain
# ---------------------------------------------------------------------------


def joseph_reference(state, box, K, r):
    """The update in numpy for gain K (6×4): m + K ν, and the Joseph form
    IKH P IKHᵀ + (K r) Kᵀ with IKH = I − K H."""
    P, m = state.cov, state.mean
    mean = m + K @ (box_array(box) - m[:4])
    mean[2:4] = np.maximum(1.0, mean[2:4])
    IKH = np.eye(6)
    IKH[:, :4] -= K
    return mean, IKH @ P @ IKH.T + (K * r) @ K.T


def joseph_bound(P, K, r):
    """Entrywise bound on |ekf_update's P⁺ − joseph_reference's| for the
    same K.  Both evaluate C = M + (K R − M[:, :4]) Kᵀ, M = P − K P[:4],
    which is A P Aᵀ + K R Kᵀ (A = I − KH).  Every term of C, written as a
    sum of products of entries of P, K and r, is one of the terms of
    |P| + |K||P[:4]| + (|K| r + |P[:, :4]| + |K||P[:4, :4]|)|K|ᵀ, and a
    sum of products evaluated in any order is within γ_d of that sum of
    absolute terms, for d the most roundings on one term's path (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, §3.1, §3.5).
    The written-out form rounds a term at most 11 times (a product and
    three additions for K P[:4], the subtraction from P, K r − M, a
    product and three additions for G Kᵀ, the addition of M).  The numpy
    form rounds at most 14 times (forming A, two 6-term products of 6
    roundings each, the addition of (K r) Kᵀ), on |A||P||A|ᵀ + |K| r |K|ᵀ,
    which is at most the sum above since |A| ≤ I + |K| H entrywise.  The
    state keeps the upper triangle, which `cov` mirrors, so the
    transpose's bound is added."""
    aK, aP = np.abs(K), np.abs(P)
    W = aP + aK @ aP[:4] + (aK * r + aP[:, :4] + aK @ aP[:4, :4]) @ aK.T
    return 2.0 * gamma(14) * np.maximum(W, W.T)


@functools.cache
def recorded_calls(name):
    """The arguments of every `ekf_predict` and `ekf_update` call of a
    replay of the bundled run, keyed by the function's name: (state, gyro,
    cfg) and (state, box, cfg)."""
    sc = scenarios.get(name)
    events = run(sc).events
    cfg = sc.tracker.build(sc.camera.build())
    calls = {"ekf_predict": [], "ekf_update": []}

    def spy(fn):
        real = getattr(tracker, fn)

        def recording(state, arg, cfg):
            calls[fn].append((state, arg, cfg))
            return real(state, arg, cfg)
        return recording

    with pytest.MonkeyPatch.context() as mp:
        for fn in calls:
            mp.setattr(tracker, fn, spy(fn))
        replay_track(events, (sc.prompt.x, sc.prompt.y), sc.prompt.t, cfg)
    return calls


def recorded_updates(name):
    """(state, box, cfg) of every update of a replay of the bundled run."""
    return recorded_calls(name)["ekf_update"]


def random_updates(n):
    rng = np.random.default_rng(31)
    for _ in range(n):
        cfg = make_cfg(r_diag=tuple(rng.uniform(0.01, 5.0, 4)))
        box = BoundingBox(rng.uniform(-50, 950), rng.uniform(-50, 550),
                          rng.uniform(1.0, 150), rng.uniform(1.0, 150))
        yield random_filter_state(rng, 1.0, 200.0), box, cfg


def test_update_matches_numpy_joseph_form_within_rounding():
    # recorded decoy and storm states, and random SPD ones: the gain is the
    # fast path's own, so only the update's arithmetic is compared.  The
    # mean's 4-term product and addition round at most 5 times on either
    # side: |Δ| ≤ 2γ₅(|m| + |K||ν|).  Observed worst: 29% of the mean's
    # bound and 16% of the covariance's (decoy, storm, random).
    cases = (recorded_updates("occlusion_decoy")
             + recorded_updates("false_positive_storm")
             + list(random_updates(300)))
    assert len(cases) > 1900
    for state, box, cfg in cases:
        r = np.asarray(cfg.r_floats)
        K = np.array(_innovation_gain(state.p, cfg.r_floats)).reshape(6, 4)
        got = ekf_update(state, box, cfg)
        mean, cov = joseph_reference(state, box, K, r)
        nu = box_array(box) - state.mean[:4]
        assert np.all(np.abs(got.mean - mean)
                      <= 2.0 * gamma(5) * (np.abs(state.mean) + np.abs(K) @ np.abs(nu)))
        assert np.all(np.abs(got.cov - cov) <= joseph_bound(state.cov, K, r))


# ---------------------------------------------------------------------------
# the written-out predict against its earlier form, bit for bit
# ---------------------------------------------------------------------------


def old_rotational_flow(mean, w, cam):
    """Pixel-rate of the box center induced by camera rotation, plus the
    partials of (u', v') w.r.t. normalized center coordinates."""
    f = cam.focal
    xn = (mean[0] + mean[2] / 2.0 - cam.cx) / f
    yn = (mean[1] + mean[3] / 2.0 - cam.cy) / f
    wx, wy, wz = w
    du = f * (xn * yn * wx - (1.0 + xn * xn) * wy + yn * wz)
    dv = f * ((1.0 + yn * yn) * wx - xn * yn * wy - xn * wz)
    a = yn * wx - 2.0 * xn * wy
    b = xn * wx + wz
    c = -(yn * wy + wz)
    d = 2.0 * yn * wx - xn * wy
    return du, dv, a, b, c, d


def old_gyro_rows(dt, a, b, c, d):
    """Columns 0..3 of F's rows 0 and 1, where the flow partials enter."""
    return ((1.0 + dt * a, dt * b, dt * a / 2.0, dt * b / 2.0),
            (dt * c, 1.0 + dt * d, dt * c / 2.0, dt * d / 2.0))


def old_predict(state, gyro, cfg):
    """`ekf_predict` as it stood before it was written out: row slices, two
    comprehensions for P g0 and P g1, and the two helpers above."""
    dt = gyro.t - state.t
    if dt < 0.0:
        raise TrackerAbort(gyro.t, f"gyro sample precedes the filter state ({state.t!r} s)")
    if dt > tracker.STALE_GYRO_DT:
        tracker.log.warning("stale gyro: dt=%.4f s exceeds %.2f s, propagating anyway",
                            dt, tracker.STALE_GYRO_DT)
    m = state.m
    if cfg.gyro_compensation:
        du, dv, a, b, c, d = old_rotational_flow(m, gyro.w.tolist(), cfg.camera)
    else:
        du = dv = a = b = c = d = 0.0
    x, y, bw, bh, vx, vy = m
    m = (x + (vx + du) * dt, y + (vy + dv) * dt,
         max(tracker.MIN_BOX_SIZE, bw), max(tracker.MIN_BOX_SIZE, bh), vx, vy)
    (f00, f01, f02, f03), (f10, f11, f12, f13) = old_gyro_rows(dt, a, b, c, d)
    p = state.cov.ravel().tolist()
    P = (p[0:6], p[6:12], p[12:18], p[18:24], p[24:30], p[30:36])
    u0 = [p0 * f00 + p1 * f01 + p2 * f02 + p3 * f03 + p4 * dt
          for p0, p1, p2, p3, p4, _ in P]
    u1 = [p0 * f10 + p1 * f11 + p2 * f12 + p3 * f13 + p5 * dt
          for p0, p1, p2, p3, _, p5 in P]
    q0, q1, q2, q3, q4, q5 = cfg.q_floats
    c00 = (f00 * u0[0] + f01 * u0[1] + f02 * u0[2] + f03 * u0[3] + dt * u0[4]
           + q0 * dt)
    c01 = f00 * u1[0] + f01 * u1[1] + f02 * u1[2] + f03 * u1[3] + dt * u1[4]
    c11 = (f10 * u1[0] + f11 * u1[1] + f12 * u1[2] + f13 * u1[3] + dt * u1[5]
           + q1 * dt)
    _, _, a2, a3, a4, a5 = u0
    _, _, b2, b3, b4, b5 = u1
    _, _, p22, p23, p24, p25 = P[2]
    _, _, _, p33, p34, p35 = P[3]
    _, _, _, _, p44, p45 = P[4]
    p55 = P[5][5]
    p22 += q2 * dt
    p33 += q3 * dt
    p44 += q4 * dt
    p55 += q5 * dt
    return tracker._finite_state(m, (c00, c01, a2, a3, a4, a5, c11, b2, b3, b4, b5,
                                     p22, p23, p24, p25, p33, p34, p35, p44, p45, p55),
                                 gyro.t, "predict")


def float_bits(state):
    """The 6 + 21 floats and the time of a filter state, as `float.hex`, so
    that +0.0 and −0.0 (and NaNs) are told apart."""
    return [v.hex() for v in (*state.m, *state.p, state.t)]


def random_predicts(n):
    """(state, gyro, cfg) cases cycling over compensation on and off; dt of
    0, in (0, 0.05) and stale; a box below MIN_BOX_SIZE in 2 of every 8,
    compensated or not; −0.0 in the mean and the rates in every 5th; P
    plus a symmetric normal matrix, not always positive definite, in every
    7th; and one with dt = −0.0."""
    rng = np.random.default_rng(32)
    for i in range(n):
        cfg = make_cfg(gyro_compensation=bool(i % 2),
                       q_diag=tuple(rng.uniform(0.0, 1.0, 6)))
        st = random_filter_state(rng, rng.uniform(0.0, 10.0),
                                 1.0 if i % 8 < 2 else 200.0)
        dt = (0.0, rng.uniform(0.0, 0.05), rng.uniform(0.1, 2.0))[i % 3]
        w = rng.uniform(-3.0, 3.0, 3)
        t = st.t + dt
        if i % 5 == 0:
            mean = st.mean.copy()
            mean[[0, 4, 5][i % 3]] = -0.0
            mean[1] = -0.0
            w[i % 3] = -0.0
            st = EkfState(mean, st.cov, st.t)
        if i % 7 == 3:
            E = rng.normal(size=(6, 6))
            st = EkfState(st.mean, st.cov + (E + E.T), st.t)
        if i == 5:
            st, t = EkfState(st.mean, st.cov, 0.0), -0.0
        yield st, GyroSample(t, w), cfg


def test_written_out_predict_is_bit_identical_to_its_earlier_form(caplog):
    # every predict of three replays and random states with each branch's
    # edge: the same 27 floats and time, and the same stale-gyro warning
    cases = [c for name in ("occlusion_decoy", "false_positive_storm",
                            "corridor_approach")
             for c in recorded_calls(name)["ekf_predict"]]
    assert len(cases) > 6000
    cases += random_predicts(400)
    kinds = Counter()
    for state, gyro, cfg in cases:
        dt = gyro.t - state.t
        kinds["zero_dt"] += dt == 0.0
        kinds["negative_zero_dt"] += math.copysign(1.0, dt) < 0.0
        kinds["stale"] += dt > tracker.STALE_GYRO_DT
        kinds["clamped"] += (min(state.m[2:4]) < tracker.MIN_BOX_SIZE
                             and cfg.gyro_compensation)
        kinds["negative_zero"] += any(math.copysign(1.0, v) < 0.0 and v == 0.0
                                      for v in (*state.m, *gyro.w.tolist()))
        kinds["uncompensated"] += not cfg.gyro_compensation
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="quadtrack.tracker"):
            got = ekf_predict(state, gyro, cfg)
            logged = caplog.messages
            caplog.clear()
            want = old_predict(state, gyro, cfg)
        assert float_bits(got) == float_bits(want)
        assert logged == caplog.messages
    assert kinds["negative_zero_dt"] == 1, kinds
    assert min(kinds[k] for k in ("zero_dt", "stale", "clamped", "negative_zero",
                                  "uncompensated")) >= 40, kinds


@pytest.mark.parametrize("vx,p_vx,dt", [
    (0.0, 1e306, 100.0),   # F P Fᵀ overflows
    (0.0, 1.7e308, 0.0),   # Q dt is zero, but the sum of every entry overflows
    (1e308, 1.0, 100.0),   # the mean overflows
])
def test_written_out_predict_aborts_as_its_earlier_form(vx, p_vx, dt):
    cfg = make_cfg()
    st = EkfState(np.array([100.0, 100.0, 40.0, 30.0, vx, 0.0]),
                  np.diag([1.0, 1.0, 1.0, 1.0, p_vx, p_vx]), 1.0)
    gyro = GyroSample(1.0 + dt, np.array([0.1, -0.2, 0.3]))
    outcomes = []
    for predict in (ekf_predict, old_predict):
        try:
            outcomes.append(float_bits(predict(st, gyro, cfg)))
        except TrackerAbort as e:
            outcomes.append(str(e))
    assert outcomes[0] == outcomes[1]
    if dt:
        assert outcomes[0].startswith("tracker: filter mean or covariance is not "
                                      "finite after predict at t=101.000000 s")


def test_predict_jacobian_rows_are_the_earlier_gyro_rows():
    # rows 0 and 1 of the one written F: the earlier _gyro_rows of the
    # earlier flow partials, then dt; rows 2..5 the identity's
    for state, gyro, cfg in random_predicts(120):
        dt = gyro.t - state.t
        partials = (old_rotational_flow(state.m, gyro.w, CAM)[2:]
                    if cfg.gyro_compensation else (0.0, 0.0, 0.0, 0.0))
        g0, g1 = old_gyro_rows(dt, *partials)
        F = predict_jacobian(state, gyro.w, dt, CAM, cfg.gyro_compensation)
        assert ([v.hex() for v in F[:2].ravel().tolist()]
                == [v.hex() for v in (*g0, dt, 0.0, *g1, 0.0, dt)])
        assert np.array_equal(F[2:], np.eye(6)[2:])


# ---------------------------------------------------------------------------
# the packed covariance against the filter that held all 36 floats
# ---------------------------------------------------------------------------


class FullState:
    """A filter state as the filter held it before its covariance was
    packed: the mean as 6 floats and the covariance as 36, row-major."""

    __slots__ = ("m", "p", "t")

    def __init__(self, m, p, t):
        self.m, self.p, self.t = m, p, t


def full_state(state):
    """`state` with its covariance as 36 floats, row-major."""
    return FullState(state.m, tuple(state.cov.ravel().tolist()), state.t)


def parent_finite_state(m, p, t, step):
    if (not math.isfinite(sum(m) + sum(p))
            and not (all(map(math.isfinite, m)) and all(map(math.isfinite, p)))):
        raise TrackerAbort(t, f"filter mean or covariance is not finite after {step}")
    return FullState(m, p, t)


# parent_predict, parent_gain and parent_update are ekf_predict,
# _innovation_gain and ekf_update as they stood on 36 covariance floats:
# they read p_ij below the diagonal as its own name, mirror P's upper
# triangle on return, and the gain declines a P that is not exactly
# symmetric.


def parent_predict(state, gyro, cfg):
    t = gyro.t
    dt = t - state.t
    if dt < 0.0:
        raise TrackerAbort(t, f"gyro sample precedes the filter state ({state.t!r} s)")
    if dt > tracker.STALE_GYRO_DT:
        tracker.log.warning("stale gyro: dt=%.4f s exceeds %.2f s, propagating anyway",
                            dt, tracker.STALE_GYRO_DT)
    x, y, bw, bh, vx, vy = state.m
    if cfg.gyro_compensation:
        cam = cfg.camera
        f = cam.focal
        xn = (x + bw / 2.0 - cam.cx) / f
        yn = (y + bh / 2.0 - cam.cy) / f
        wx, wy, wz = gyro.w.tolist()
        du = f * (xn * yn * wx - (1.0 + xn * xn) * wy + yn * wz)
        dv = f * ((1.0 + yn * yn) * wx - xn * yn * wy - xn * wz)
        a = yn * wx - 2.0 * xn * wy
        b = xn * wx + wz
        c = -(yn * wy + wz)
        d = 2.0 * yn * wx - xn * wy
    else:
        du = dv = a = b = c = d = 0.0
    f00 = 1.0 + dt * a
    f01 = dt * b
    f02 = dt * a / 2.0
    f03 = dt * b / 2.0
    f10 = dt * c
    f11 = 1.0 + dt * d
    f12 = dt * c / 2.0
    f13 = dt * d / 2.0
    (p00, p01, p02, p03, p04, p05, p10, p11, p12, p13, p14, p15,
     p20, p21, p22, p23, p24, p25, p30, p31, p32, p33, p34, p35,
     p40, p41, p42, p43, p44, p45, p50, p51, p52, p53, p54, p55) = state.p
    # u0 = P g0, u1 = P g1
    u00 = p00 * f00 + p01 * f01 + p02 * f02 + p03 * f03 + p04 * dt
    u01 = p10 * f00 + p11 * f01 + p12 * f02 + p13 * f03 + p14 * dt
    u02 = p20 * f00 + p21 * f01 + p22 * f02 + p23 * f03 + p24 * dt
    u03 = p30 * f00 + p31 * f01 + p32 * f02 + p33 * f03 + p34 * dt
    u04 = p40 * f00 + p41 * f01 + p42 * f02 + p43 * f03 + p44 * dt
    u05 = p50 * f00 + p51 * f01 + p52 * f02 + p53 * f03 + p54 * dt
    u10 = p00 * f10 + p01 * f11 + p02 * f12 + p03 * f13 + p05 * dt
    u11 = p10 * f10 + p11 * f11 + p12 * f12 + p13 * f13 + p15 * dt
    u12 = p20 * f10 + p21 * f11 + p22 * f12 + p23 * f13 + p25 * dt
    u13 = p30 * f10 + p31 * f11 + p32 * f12 + p33 * f13 + p35 * dt
    u14 = p40 * f10 + p41 * f11 + p42 * f12 + p43 * f13 + p45 * dt
    u15 = p50 * f10 + p51 * f11 + p52 * f12 + p53 * f13 + p55 * dt
    q0, q1, q2, q3, q4, q5 = cfg.q_floats
    # the 2×2 corner gᵢ·uⱼ, plus Q dt on its diagonal
    c00 = f00 * u00 + f01 * u01 + f02 * u02 + f03 * u03 + dt * u04 + q0 * dt
    c01 = f00 * u10 + f01 * u11 + f02 * u12 + f03 * u13 + dt * u14
    c11 = f10 * u10 + f11 * u11 + f12 * u12 + f13 * u13 + dt * u15 + q1 * dt
    p22 += q2 * dt
    p33 += q3 * dt
    p44 += q4 * dt
    p55 += q5 * dt
    return parent_finite_state((x + (vx + du) * dt, y + (vy + dv) * dt,
                                max(tracker.MIN_BOX_SIZE, bw),
                                max(tracker.MIN_BOX_SIZE, bh), vx, vy),
                               (c00, c01, u02, u03, u04, u05,
                                c01, c11, u12, u13, u14, u15,
                                u02, u12, p22, p23, p24, p25,
                                u03, u13, p23, p33, p34, p35,
                                u04, u14, p24, p34, p44, p45,
                                u05, u15, p25, p35, p45, p55), t, "predict")


def parent_gain(p, r):
    (p00, p01, p02, p03, _, _, p10, p11, p12, p13, _, _,
     p20, p21, p22, p23, _, _, p30, p31, p32, p33, _, _,
     p40, p41, p42, p43, _, _, p50, p51, p52, p53, _, _) = p
    # exactly symmetric (a NaN never is), as every filter covariance is
    if not (p10 == p01 and p20 == p02 and p30 == p03 and p21 == p12
            and p31 == p13 and p32 == p23):
        return None
    r0, r1, r2, r3 = r
    s00 = p00 + r0
    s11 = p11 + r1
    s22 = p22 + r2
    s33 = p33 + r3
    if not s00 > 0.0:
        return None
    l00 = math.sqrt(s00)
    l10 = p01 / l00
    l20 = p02 / l00
    l30 = p03 / l00
    d = s11 - l10 * l10
    if not d > 0.0:
        return None
    l11 = math.sqrt(d)
    l21 = (p12 - l20 * l10) / l11
    l31 = (p13 - l30 * l10) / l11
    d = s22 - l20 * l20 - l21 * l21
    if not d > 0.0:
        return None
    l22 = math.sqrt(d)
    l32 = (p23 - l30 * l20 - l31 * l21) / l22
    d = s33 - l30 * l30 - l31 * l31 - l32 * l32
    if not d > 0.0:
        return None
    l33 = math.sqrt(d)
    # M = L⁻¹, lower triangular, by forward substitution
    m00 = 1.0 / l00
    m11 = 1.0 / l11
    m22 = 1.0 / l22
    m33 = 1.0 / l33
    m10 = -l10 * m00 * m11
    m21 = -l21 * m11 * m22
    m20 = -(l20 * m00 + l21 * m10) * m22
    m32 = -l32 * m22 * m33
    m31 = -(l31 * m11 + l32 * m21) * m33
    m30 = -(l30 * m00 + l31 * m10 + l32 * m20) * m33
    # S⁻¹ = Mᵀ M, symmetric: iᵢⱼ for i ≤ j
    i00 = m00 * m00 + m10 * m10 + m20 * m20 + m30 * m30
    i11 = m11 * m11 + m21 * m21 + m31 * m31
    i22 = m22 * m22 + m32 * m32
    i33 = m33 * m33
    if not ((s00 + s11 + s22 + s33) * (i00 + i11 + i22 + i33)
            <= tracker.MAX_INNOVATION_COND / 2.0):
        return None
    i01 = m10 * m11 + m20 * m21 + m30 * m31
    i02 = m20 * m22 + m30 * m32
    i03 = m30 * m33
    i12 = m21 * m22 + m31 * m32
    i13 = m31 * m33
    i23 = m32 * m33
    return (p00 * i00 + p01 * i01 + p02 * i02 + p03 * i03,
            p00 * i01 + p01 * i11 + p02 * i12 + p03 * i13,
            p00 * i02 + p01 * i12 + p02 * i22 + p03 * i23,
            p00 * i03 + p01 * i13 + p02 * i23 + p03 * i33,
            p10 * i00 + p11 * i01 + p12 * i02 + p13 * i03,
            p10 * i01 + p11 * i11 + p12 * i12 + p13 * i13,
            p10 * i02 + p11 * i12 + p12 * i22 + p13 * i23,
            p10 * i03 + p11 * i13 + p12 * i23 + p13 * i33,
            p20 * i00 + p21 * i01 + p22 * i02 + p23 * i03,
            p20 * i01 + p21 * i11 + p22 * i12 + p23 * i13,
            p20 * i02 + p21 * i12 + p22 * i22 + p23 * i23,
            p20 * i03 + p21 * i13 + p22 * i23 + p23 * i33,
            p30 * i00 + p31 * i01 + p32 * i02 + p33 * i03,
            p30 * i01 + p31 * i11 + p32 * i12 + p33 * i13,
            p30 * i02 + p31 * i12 + p32 * i22 + p33 * i23,
            p30 * i03 + p31 * i13 + p32 * i23 + p33 * i33,
            p40 * i00 + p41 * i01 + p42 * i02 + p43 * i03,
            p40 * i01 + p41 * i11 + p42 * i12 + p43 * i13,
            p40 * i02 + p41 * i12 + p42 * i22 + p43 * i23,
            p40 * i03 + p41 * i13 + p42 * i23 + p43 * i33,
            p50 * i00 + p51 * i01 + p52 * i02 + p53 * i03,
            p50 * i01 + p51 * i11 + p52 * i12 + p53 * i13,
            p50 * i02 + p51 * i12 + p52 * i22 + p53 * i23,
            p50 * i03 + p51 * i13 + p52 * i23 + p53 * i33)


def parent_update(state, box, cfg):
    K = parent_gain(state.p, cfg.r_floats)
    if K is None:
        P = np.array(state.p).reshape(6, 6)
        K = tracker._exact_gain(P, cfg, state.t).ravel().tolist()
    (k00, k01, k02, k03, k10, k11, k12, k13, k20, k21, k22, k23,
     k30, k31, k32, k33, k40, k41, k42, k43, k50, k51, k52, k53) = K
    (p00, p01, p02, p03, p04, p05, p10, p11, p12, p13, p14, p15,
     p20, p21, p22, p23, p24, p25, p30, p31, p32, p33, p34, p35,
     p40, p41, p42, p43, p44, p45, p50, p51, p52, p53, _, p55) = state.p
    r0, r1, r2, r3 = cfg.r_floats
    x0, x1, x2, x3, x4, x5 = state.m
    n0 = box.x - x0
    n1 = box.y - x1
    n2 = box.w - x2
    n3 = box.h - x3
    mean = (x0 + (k00 * n0 + k01 * n1 + k02 * n2 + k03 * n3),
            x1 + (k10 * n0 + k11 * n1 + k12 * n2 + k13 * n3),
            max(tracker.MIN_BOX_SIZE, x2 + (k20 * n0 + k21 * n1 + k22 * n2 + k23 * n3)),
            max(tracker.MIN_BOX_SIZE, x3 + (k30 * n0 + k31 * n1 + k32 * n2 + k33 * n3)),
            x4 + (k40 * n0 + k41 * n1 + k42 * n2 + k43 * n3),
            x5 + (k50 * n0 + k51 * n1 + k52 * n2 + k53 * n3))
    # M = P − K P[:4]: columns 0..3, and the upper triangle of columns 4, 5
    m00 = p00 - (k00 * p00 + k01 * p10 + k02 * p20 + k03 * p30)
    m01 = p01 - (k00 * p01 + k01 * p11 + k02 * p21 + k03 * p31)
    m02 = p02 - (k00 * p02 + k01 * p12 + k02 * p22 + k03 * p32)
    m03 = p03 - (k00 * p03 + k01 * p13 + k02 * p23 + k03 * p33)
    m04 = p04 - (k00 * p04 + k01 * p14 + k02 * p24 + k03 * p34)
    m05 = p05 - (k00 * p05 + k01 * p15 + k02 * p25 + k03 * p35)
    m10 = p10 - (k10 * p00 + k11 * p10 + k12 * p20 + k13 * p30)
    m11 = p11 - (k10 * p01 + k11 * p11 + k12 * p21 + k13 * p31)
    m12 = p12 - (k10 * p02 + k11 * p12 + k12 * p22 + k13 * p32)
    m13 = p13 - (k10 * p03 + k11 * p13 + k12 * p23 + k13 * p33)
    m14 = p14 - (k10 * p04 + k11 * p14 + k12 * p24 + k13 * p34)
    m15 = p15 - (k10 * p05 + k11 * p15 + k12 * p25 + k13 * p35)
    m20 = p20 - (k20 * p00 + k21 * p10 + k22 * p20 + k23 * p30)
    m21 = p21 - (k20 * p01 + k21 * p11 + k22 * p21 + k23 * p31)
    m22 = p22 - (k20 * p02 + k21 * p12 + k22 * p22 + k23 * p32)
    m23 = p23 - (k20 * p03 + k21 * p13 + k22 * p23 + k23 * p33)
    m24 = p24 - (k20 * p04 + k21 * p14 + k22 * p24 + k23 * p34)
    m25 = p25 - (k20 * p05 + k21 * p15 + k22 * p25 + k23 * p35)
    m30 = p30 - (k30 * p00 + k31 * p10 + k32 * p20 + k33 * p30)
    m31 = p31 - (k30 * p01 + k31 * p11 + k32 * p21 + k33 * p31)
    m32 = p32 - (k30 * p02 + k31 * p12 + k32 * p22 + k33 * p32)
    m33 = p33 - (k30 * p03 + k31 * p13 + k32 * p23 + k33 * p33)
    m34 = p34 - (k30 * p04 + k31 * p14 + k32 * p24 + k33 * p34)
    m35 = p35 - (k30 * p05 + k31 * p15 + k32 * p25 + k33 * p35)
    m40 = p40 - (k40 * p00 + k41 * p10 + k42 * p20 + k43 * p30)
    m41 = p41 - (k40 * p01 + k41 * p11 + k42 * p21 + k43 * p31)
    m42 = p42 - (k40 * p02 + k41 * p12 + k42 * p22 + k43 * p32)
    m43 = p43 - (k40 * p03 + k41 * p13 + k42 * p23 + k43 * p33)
    m44 = p44 - (k40 * p04 + k41 * p14 + k42 * p24 + k43 * p34)
    m45 = p45 - (k40 * p05 + k41 * p15 + k42 * p25 + k43 * p35)
    m50 = p50 - (k50 * p00 + k51 * p10 + k52 * p20 + k53 * p30)
    m51 = p51 - (k50 * p01 + k51 * p11 + k52 * p21 + k53 * p31)
    m52 = p52 - (k50 * p02 + k51 * p12 + k52 * p22 + k53 * p32)
    m53 = p53 - (k50 * p03 + k51 * p13 + k52 * p23 + k53 * p33)
    m55 = p55 - (k50 * p05 + k51 * p15 + k52 * p25 + k53 * p35)
    # G = K R − M[:, :4]
    g00 = k00 * r0 - m00
    g01 = k01 * r1 - m01
    g02 = k02 * r2 - m02
    g03 = k03 * r3 - m03
    g10 = k10 * r0 - m10
    g11 = k11 * r1 - m11
    g12 = k12 * r2 - m12
    g13 = k13 * r3 - m13
    g20 = k20 * r0 - m20
    g21 = k21 * r1 - m21
    g22 = k22 * r2 - m22
    g23 = k23 * r3 - m23
    g30 = k30 * r0 - m30
    g31 = k31 * r1 - m31
    g32 = k32 * r2 - m32
    g33 = k33 * r3 - m33
    g40 = k40 * r0 - m40
    g41 = k41 * r1 - m41
    g42 = k42 * r2 - m42
    g43 = k43 * r3 - m43
    g50 = k50 * r0 - m50
    g51 = k51 * r1 - m51
    g52 = k52 * r2 - m52
    g53 = k53 * r3 - m53
    # P⁺ = M + G Kᵀ, upper triangle
    c00 = m00 + (g00 * k00 + g01 * k01 + g02 * k02 + g03 * k03)
    c01 = m01 + (g00 * k10 + g01 * k11 + g02 * k12 + g03 * k13)
    c02 = m02 + (g00 * k20 + g01 * k21 + g02 * k22 + g03 * k23)
    c03 = m03 + (g00 * k30 + g01 * k31 + g02 * k32 + g03 * k33)
    c04 = m04 + (g00 * k40 + g01 * k41 + g02 * k42 + g03 * k43)
    c05 = m05 + (g00 * k50 + g01 * k51 + g02 * k52 + g03 * k53)
    c11 = m11 + (g10 * k10 + g11 * k11 + g12 * k12 + g13 * k13)
    c12 = m12 + (g10 * k20 + g11 * k21 + g12 * k22 + g13 * k23)
    c13 = m13 + (g10 * k30 + g11 * k31 + g12 * k32 + g13 * k33)
    c14 = m14 + (g10 * k40 + g11 * k41 + g12 * k42 + g13 * k43)
    c15 = m15 + (g10 * k50 + g11 * k51 + g12 * k52 + g13 * k53)
    c22 = m22 + (g20 * k20 + g21 * k21 + g22 * k22 + g23 * k23)
    c23 = m23 + (g20 * k30 + g21 * k31 + g22 * k32 + g23 * k33)
    c24 = m24 + (g20 * k40 + g21 * k41 + g22 * k42 + g23 * k43)
    c25 = m25 + (g20 * k50 + g21 * k51 + g22 * k52 + g23 * k53)
    c33 = m33 + (g30 * k30 + g31 * k31 + g32 * k32 + g33 * k33)
    c34 = m34 + (g30 * k40 + g31 * k41 + g32 * k42 + g33 * k43)
    c35 = m35 + (g30 * k50 + g31 * k51 + g32 * k52 + g33 * k53)
    c44 = m44 + (g40 * k40 + g41 * k41 + g42 * k42 + g43 * k43)
    c45 = m45 + (g40 * k50 + g41 * k51 + g42 * k52 + g43 * k53)
    c55 = m55 + (g50 * k50 + g51 * k51 + g52 * k52 + g53 * k53)
    return parent_finite_state(mean, (c00, c01, c02, c03, c04, c05,
                                      c01, c11, c12, c13, c14, c15,
                                      c02, c12, c22, c23, c24, c25,
                                      c03, c13, c23, c33, c34, c35,
                                      c04, c14, c24, c34, c44, c45,
                                      c05, c15, c25, c35, c45, c55),
                               state.t, "update")


def parent_bits(state):
    """`float_bits` of a FullState whose 36 floats are exactly symmetric:
    its mean, the upper triangle of its covariance row by row, and its
    time."""
    p = state.p
    assert all(p[6 * i + j] == p[6 * j + i] for i in range(6) for j in range(i))
    return [v.hex() for v in (*state.m, *(p[6 * i + j] for i in range(6)
                                         for j in range(i, 6)), state.t)]


def outcome(step, bits, *args):
    """bits(step(*args)), or the message of the TrackerAbort it raises."""
    try:
        return bits(step(*args))
    except TrackerAbort as e:
        return str(e)


def gain_bits(K):
    return None if K is None else [v.hex() for v in K]


def test_packed_filter_is_bit_identical_to_the_full_covariance_form():
    # every predict and update of three replays, the seeded random states
    # and the exact gate's cases: the mean, the 21 covariance floats and
    # the gain are the 36-float form's, bit for bit, as is each abort
    replays = ("occlusion_decoy", "false_positive_storm", "corridor_approach")
    predicts = [c for name in replays for c in recorded_calls(name)["ekf_predict"]]
    updates = [c for name in replays for c in recorded_calls(name)["ekf_update"]]
    assert len(predicts) > 6000 and len(updates) > 1900
    predicts += random_predicts(400)
    updates += random_updates(300)
    updates += [(s, BoundingBox(30.0, 40.0, 20.0, 10.0), c) for _, s, c in declined_states()]
    for state, gyro, cfg in predicts:
        assert (outcome(ekf_predict, float_bits, state, gyro, cfg)
                == outcome(parent_predict, parent_bits, full_state(state), gyro, cfg))
    kinds = Counter()
    for state, box, cfg in updates:
        gain = _innovation_gain(state.p, cfg.r_floats)
        assert gain_bits(gain) == gain_bits(parent_gain(full_state(state).p, cfg.r_floats))
        got = outcome(ekf_update, float_bits, state, box, cfg)
        assert got == outcome(parent_update, parent_bits, full_state(state), box, cfg)
        kinds["fast_gain" if gain is not None
              else "abort" if isinstance(got, str) else "exact_gain"] += 1
    assert kinds["fast_gain"] > 2200 and kinds["exact_gain"] >= 2 and kinds["abort"] >= 2, kinds


def old_update(state, box, cfg):
    """The update as the array form computed it before the written-out
    one: the exact gate's gain, then the Joseph form, averaged with its
    transpose."""
    P, r = state.cov, np.asarray(cfg.r_floats)
    K = tracker._exact_gain(P, cfg, state.t)
    mean, cov = joseph_reference(state, box, K, r)
    return mean, 0.5 * (cov + cov.T), K


def declined_states():
    """(name, state, cfg) whose S the Cholesky fast path declines: S = Q Λ Qᵀ
    with κ₂(S) on either side of MAX_INNOVATION_COND (above the fast path's
    bound of MAX_INNOVATION_COND / 2 on trace(S)·trace(S⁻¹) ≥ κ₂(S))."""
    rng = np.random.default_rng(12)
    cfg = make_cfg()
    r = np.asarray(cfg.r_floats)
    for kappa in (0.6e12, 0.9e12, 1.1e12, 3e12):
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        lam = np.array([1.0, 2.0, 3.0, kappa])
        P = np.eye(6) * 4.0
        P[:4, :4] = (Q * lam) @ Q.T
        P[:4, :4] = 0.5 * (P[:4, :4] + P[:4, :4].T) - np.diag(r)
        yield f"kappa_{kappa:g}", EkfState(rng.uniform(10.0, 100.0, 6), P, 1.0), cfg


@pytest.mark.parametrize("name,state,cfg", declined_states(),
                         ids=[c[0] for c in declined_states()])
def test_the_exact_gate_takes_what_the_cholesky_declines(monkeypatch, name, state,
                                                         cfg):
    # the exact gate decides, aborts as it did, or its gain takes the same
    # written-out update; that update is the array form's within
    # joseph_bound (plus a unit for the averaging)
    exact_calls = []
    exact_gain = tracker._exact_gain

    def counting(P, cfg, t):
        exact_calls.append(t)
        return exact_gain(P, cfg, t)

    monkeypatch.setattr(tracker, "_exact_gain", counting)
    assert _innovation_gain(state.p, cfg.r_floats) is None
    box = BoundingBox(30.0, 40.0, 20.0, 10.0)
    P = state.cov
    S = P[:4, :4] + np.diag(cfg.r_floats)
    if ref_gate(S) is not None:
        assert ref_gate(S) == "innovation covariance condition number exceeds"
        with pytest.raises(TrackerAbort, match="^tracker: innovation covariance condition "
                           "number exceeds 1e\\+12 at t=1.000000 s$"):
            ekf_update(state, box, cfg)
        assert exact_calls == [1.0]
        return
    got = ekf_update(state, box, cfg)
    assert exact_calls == [1.0]
    mean, cov, K = old_update(state, box, cfg)
    nu = box_array(box) - state.mean[:4]
    assert np.all(np.abs(got.mean - mean)
                  <= 2.0 * gamma(5) * (np.abs(state.mean) + np.abs(K) @ np.abs(nu)))
    bound = joseph_bound(P, K, np.asarray(cfg.r_floats)) * (1.0 + 2.0 * U)
    assert np.all(np.abs(got.cov - cov) <= bound)


def test_updated_covariance_is_exactly_symmetric():
    # the update keeps P⁺'s upper triangle, and its `cov` is the 36 floats
    # the full-covariance update wrote, mirrored half included, bit for
    # bit, on the fast path and behind the exact gate
    cases = list(random_updates(200))
    cases += [(s, BoundingBox(30.0, 40.0, 20.0, 10.0), c)
              for _, s, c in declined_states() if ref_gate(s.cov[:4, :4]
                                                           + np.diag(c.r_floats)) is None]
    assert len(cases) == 202
    for state, box, cfg in cases:
        got = ekf_update(state, box, cfg)
        assert len(got.p) == 21
        want = parent_update(full_state(state), box, cfg).p
        assert [v.hex() for v in got.cov.ravel().tolist()] == [v.hex() for v in want]


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} called on the filter's fast path")


def test_filter_fast_path_calls_no_numpy(monkeypatch):
    # predict and update on the floats alone, with or without gyro
    # compensation: no numpy function, so no BLAS kernel, is reached
    cfg = make_cfg()
    states = [fresh_state(cfg=cfg).ekf, random_filter_state(np.random.default_rng(4), 0.0, 200.0)]
    monkeypatch.setattr(tracker, "np", _NoNumpy())
    for compensate in (True, False):
        cfg = make_cfg(gyro_compensation=compensate)
        for ekf in states:
            ekf = ekf_predict(ekf, GyroSample(0.02, np.array([0.1, -0.2, 0.3])), cfg)
            ekf = ekf_update(ekf, BoundingBox(101.0, 99.0, 41.0, 29.0), cfg)
            assert isinstance(ekf.p[0], float) and isinstance(ekf.m[0], float)


def test_update_memory_bit_identical_to_norm_form():
    rng = np.random.default_rng(9)
    for _ in range(300):
        mem, alpha = _rand_unit(rng, 256), rng.uniform(0.0, 1.0)
        f = rng.normal(size=256) * rng.uniform(0.1, 10.0)
        blended = alpha * mem + (1.0 - alpha) * f
        want = blended / np.linalg.norm(blended)
        assert np.array_equal(update_memory(mem, f, alpha), want)


def test_cosine_score_bit_identical_to_norm_form():
    rng = np.random.default_rng(5)
    for _ in range(300):
        mem = rng.normal(size=256) * rng.uniform(0.1, 10.0)
        d = rng.normal(size=256) + rng.uniform(-1, 1) * mem
        n = np.linalg.norm(d) * np.linalg.norm(mem)
        want = min(1.0, max(0.0, float(np.dot(mem, d) / n)))
        assert cosine_score(mem, d) == want


def test_ekf_state_keeps_the_upper_triangle_of_a_symmetric_covariance():
    # 21 floats, row by row, and `cov` mirrors them back to the 6×6 it was
    # given, bit for bit (−0.0 and NaN included); NaN mirroring NaN is
    # symmetric, one unit in the last place or a lone NaN is not, and the
    # refusal comes before any field is set
    A = np.random.default_rng(41).normal(size=(6, 6))
    C = A + A.T
    C[2, 5] = C[5, 2] = -0.0
    C[1, 4] = C[4, 1] = math.nan
    st = EkfState(np.arange(6.0), C, 0.5)
    assert all(type(v) is float for v in st.p)
    assert [v.hex() for v in st.p] == [C[i, j].hex() for i in range(6) for j in range(i, 6)]
    assert [v.hex() for v in st.cov.ravel()] == [v.hex() for v in C.ravel()]
    lone_nan = np.eye(6)
    lone_nan[0, 3] = math.nan
    for ij in ((0, 1), (3, 2), (5, 0), None):
        bad = lone_nan
        if ij is not None:
            bad = C.copy()
            bad[ij] = np.nextafter(bad[ij], np.inf)
        with pytest.raises(ValueError, match="^covariance must be exactly symmetric$"):
            EkfState.__init__(st, np.zeros(6), bad, 1.0)
        assert st.m == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0) and st.t == 0.5
        assert [v.hex() for v in st.cov.ravel()] == [v.hex() for v in C.ravel()]


def test_predicted_box_reads_mean_and_clamps():
    st = EkfState(np.array([10.0, 20.0, 30.0, 40.0, 1.0, 1.0]), np.eye(6), 0.0)
    assert predicted_box(st) == BoundingBox(10.0, 20.0, 30.0, 40.0)
    tiny = EkfState(np.array([10.0, 20.0, 0.5, 0.2, 0.0, 0.0]), np.eye(6), 0.0)
    b = predicted_box(tiny)
    assert b.w == 1.0 and b.h == 1.0


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def test_score_perfect_candidate_sums_weights():
    st = fresh_state()
    d = det(st.last_box, st.memory)
    s = score(d, st, predicted_box(st.ekf))
    assert s == (1.0, 1.0, 1.0)
    assert weighted_total(TrackerWeights(), *s) == TrackerWeights().total


def test_score_disjoint_orthogonal_is_zero():
    st = fresh_state(BoundingBox(0.0, 0.0, 10.0, 10.0))
    d = det(BoundingBox(500.0, 500.0, 10.0, 10.0), unit(1))
    s = score(d, st, predicted_box(st.ekf))
    assert s == (0.0, 0.0, 0.0)
    assert weighted_total(TrackerWeights(), *s) == 0.0


def test_score_weighted_sum_example():
    # s_iou 0.5, s_ekf 0.2, s_map 0.9 at weights (3, 3, 4) -> 5.7
    cfg = make_cfg()
    st = initialize((5.0, 5.0),
                    DetectionSet(0.0, [det(BoundingBox(0, 0, 10, 10))]), cfg)
    st.ekf = EkfState([0.0, 0.0, 25.0, 10.0, 0.0, 0.0], st.ekf.cov, st.ekf.t)
    cand = det(BoundingBox(0.0, 0.0, 5.0, 10.0),
               0.9 * unit(0) + math.sqrt(0.19) * unit(1))
    s = score(cand, st, predicted_box(st.ekf))
    assert len(s) == 3
    assert abs(s[0] - 0.5) < 1e-12
    assert abs(s[1] - 0.2) < 1e-12
    assert abs(s[2] - 0.9) < 1e-12
    assert abs(weighted_total(TrackerWeights(3.0, 3.0, 4.0), *s) - 5.7) < 1e-12


def test_score_negative_or_zero_descriptor_clamps_to_zero():
    st = fresh_state()
    flipped = det(st.last_box, -st.memory)
    pred = predicted_box(st.ekf)
    assert score(flipped, st, pred)[2] == 0.0
    hollow = Detection(st.last_box, 0.9, np.zeros(DIM))
    assert score(hollow, st, pred)[2] == 0.0


def test_cosine_score_clamps_to_unit_interval():
    m = unit(0)
    assert cosine_score(m, 2.0 * unit(0)) == 1.0
    assert cosine_score(m, -3.0 * unit(0)) == 0.0
    assert abs(cosine_score(m, unit(0) + unit(1)) - 1.0 / math.sqrt(2)) < 1e-12


def test_score_scaling_weights_preserves_argmax():
    rng = np.random.default_rng(31)
    st = fresh_state()
    pred = predicted_box(st.ekf)
    for _ in range(50):
        cands = [det(BoundingBox(rng.uniform(60, 140), rng.uniform(60, 140),
                                 rng.uniform(20, 60), rng.uniform(20, 60)),
                     _rand_unit(rng))
                 for _ in range(5)]
        cues = [score(c, st, pred) for c in cands]
        chosen = {c: choose(cues, TrackerWeights(3.0 * c, 3.0 * c, 4.0 * c), 0.0)
                  for c in (0.1, 1.0, 10.0)}
        assert chosen[0.1] == chosen[1.0] == chosen[10.0] is not None


def _rand_unit(rng, dim=DIM):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# memory update
# ---------------------------------------------------------------------------


def test_update_memory_alpha_endpoints():
    assert np.array_equal(update_memory(unit(0), unit(1), 1.0), unit(0))
    assert np.allclose(update_memory(unit(0), 3.0 * unit(1), 0.0), unit(1), atol=1e-12)


def test_update_memory_orthogonal_blend():
    # 0.9 e1 + 0.1 e2 has norm sqrt(0.82) before re-normalization
    out = update_memory(unit(0), unit(1), 0.9)
    want = (0.9 * unit(0) + 0.1 * unit(1)) / math.sqrt(0.82)
    assert np.allclose(out, want, atol=1e-12)


def test_update_memory_keeps_unit_norm():
    rng = np.random.default_rng(12)
    m = _rand_unit(rng)
    for _ in range(100):
        m = update_memory(m, _rand_unit(rng), 0.9)
        assert abs(np.linalg.norm(m) - 1.0) < 1e-9


def test_update_memory_cancelled_blend_keeps_previous():
    m = unit(0)
    out = update_memory(m, -unit(0), 0.5)
    assert out is m


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------


def test_step_accepts_matching_detection():
    cfg = make_cfg()
    st = fresh_state(cfg=cfg)
    d = det(BoundingBox(101.0, 99.0, 40.0, 30.0), st.memory)
    res = step(st, DetectionSet(0.0, [d]), cfg)
    assert res.selected is d
    assert res.state.coast_frames == 0
    assert res.state.last_box == d.box
    assert res.scores[3] > cfg.s_min


def test_step_empty_frame_coasts():
    cfg = make_cfg()
    st = fresh_state(cfg=cfg)
    before_mean = st.ekf.mean.copy()
    res = step(st, DetectionSet(0.0, []), cfg)
    assert res.selected is None and res.scores is None
    assert res.state.coast_frames == 1
    assert np.array_equal(res.state.ekf.mean, before_mean)
    assert res.state.last_box == st.last_box
    assert res.state.memory is st.memory
    # coasting keeps counting on consecutive misses
    res2 = step(res.state, DetectionSet(0.0, []), cfg)
    assert res2.state.coast_frames == 2


def test_step_below_threshold_coasts():
    cfg = make_cfg(acceptance_fraction=0.9)
    st = fresh_state(cfg=cfg)
    weak = det(BoundingBox(800.0, 400.0, 20.0, 20.0), unit(1))
    res = step(st, DetectionSet(0.0, [weak]), cfg)
    assert res.state.coast_frames == 1 and res.selected is None


def test_step_tie_prefers_lower_index():
    cfg = make_cfg()
    st = fresh_state(cfg=cfg)
    d1 = det(st.last_box, st.memory)
    d2 = det(st.last_box, st.memory)
    dets = DetectionSet(0.0, [d1, d2])
    res = step(st, dets, cfg)
    assert res.selected is dets.detections[0]


def test_step_time_regression_raises():
    cfg = make_cfg()
    st = fresh_state(cfg=cfg)
    st.ekf.t = 1.0
    with pytest.raises(TrackerAbort, match=r"^tracker: detections precede the filter "
                       r"state \(1\.0 s\) at t=0\.500000 s$"):
        step(st, DetectionSet(0.5, [det(st.last_box)]), cfg)


def test_step_fills_gyro_gap_with_zero_order_hold():
    cfg = make_cfg()
    tr = Tracker(cfg)
    box = BoundingBox(455.0, 247.0, 50.0, 50.0)
    tr.initialize(box.center, DetectionSet(0.0, [det(box)]))
    w = np.array([0.0, 0.4, 0.0])
    tr.predict(GyroSample(0.01, w))
    # detection frame lands between gyro ticks: the step must extrapolate
    # 0.01 -> 0.02 holding the last rate
    manual = ekf_predict(EkfState(tr.state.ekf.mean.copy(),
                                  tr.state.ekf.cov.copy(), tr.state.ekf.t),
                         GyroSample(0.02, w), cfg)
    res = tr.step(DetectionSet(0.02, []))
    assert np.allclose(box_array(res.pred_box),
                       box_array(predicted_box(manual)), atol=1e-12)
    assert tr.state.ekf.t == 0.02


def test_step_selection_matches_brute_force_argmax():
    # one hundred frames of random candidate sets: the accepted index must
    # equal an independently computed argmax of the weighted score
    def ref_iou(a, b):
        ix = max(a[0], b[0])
        iy = max(a[1], b[1])
        ix2 = min(a[0] + a[2], b[0] + b[2])
        iy2 = min(a[1] + a[3], b[1] + b[3])
        if ix2 <= ix or iy2 <= iy:
            return 0.0
        inter = (ix2 - ix) * (iy2 - iy)
        return inter / (a[2] * a[3] + b[2] * b[3] - inter)

    rng = np.random.default_rng(77)
    cfg = make_cfg()
    tr = Tracker(cfg)
    base = BoundingBox(450.0, 250.0, 50.0, 40.0)
    tr.initialize(base.center, DetectionSet(0.0, [det(base, _rand_unit(rng))]))
    picked = coasted = 0
    for k in range(1, 101):
        t = k / 60.0
        tr.predict(GyroSample(t, rng.uniform(-0.2, 0.2, 3)))
        last = box_array(tr.state.last_box)
        pred = np.array([tr.state.ekf.mean[0], tr.state.ekf.mean[1],
                         max(1.0, tr.state.ekf.mean[2]),
                         max(1.0, tr.state.ekf.mean[3])])
        mem = tr.state.memory.copy()
        far_frame = rng.uniform() < 0.2
        cands = []
        for _ in range(int(rng.integers(1, 5))):
            if far_frame:
                b = BoundingBox(rng.uniform(0, 900), rng.uniform(0, 500),
                                rng.uniform(10, 40), rng.uniform(10, 40))
                desc = _rand_unit(rng)
            else:
                b = BoundingBox(last[0] + rng.normal(0, 15),
                                last[1] + rng.normal(0, 15),
                                max(5.0, last[2] * rng.uniform(0.7, 1.3)),
                                max(5.0, last[3] * rng.uniform(0.7, 1.3)))
                v = 0.7 * mem + 0.5 * _rand_unit(rng)
                desc = v / np.linalg.norm(v)
            cands.append(det(b, desc))
        totals = []
        for d in cands:
            s_iou = ref_iou(last, box_array(d.box))
            s_ekf = ref_iou(pred, box_array(d.box))
            c = float(mem @ d.descriptor)
            s_map = min(1.0, max(0.0, c))
            totals.append(cfg.weights.w_iou * s_iou + cfg.weights.w_ekf * s_ekf
                          + cfg.weights.w_map * s_map)
        want = int(np.argmax(totals))
        dets = DetectionSet(t, cands)
        res = tr.step(dets)
        if totals[want] < cfg.s_min:
            assert res.selected is None
            coasted += 1
        else:
            assert res.selected is dets.detections[want]
            picked += 1
    assert picked > 50 and coasted > 0


def ref_choice(scored, s_min):
    """The selection loop as `step` once wrote it inline, over (s_iou,
    s_ekf, s_map, total) tuples: the index of the candidate it accepts, or
    None when the frame coasts."""
    best = None  # (index, scores)
    for k, s in enumerate(scored):
        if best is None or s[3] > best[1][3]:
            best = (k, s)
    if best is None or best[1][3] < s_min:
        return None
    return best[0]


# few distinct cue values and weights, so that frames often hold exact ties
# and totals equal to s_min
_CUE = hst.sampled_from([0.0, 0.25, 0.5, 1.0]) | hst.floats(0.0, 1.0)
_WEIGHT = hst.sampled_from([0.0, 1.0, 3.0, 4.0]) | hst.floats(0.0, 10.0)
_WEIGHTS = hst.tuples(_WEIGHT, _WEIGHT, _WEIGHT).filter(lambda w: sum(w) > 0)


@given(hst.lists(hst.tuples(_CUE, _CUE, _CUE), max_size=6), _WEIGHTS,
       hst.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0, 4.0]))
@example([], (3.0, 3.0, 4.0), 0.0)
@example([(0.25, 0.0, 0.0), (0.5, 0.0, 0.0), (0.0, 0.5, 0.0)], (3.0, 3.0, 4.0), 0.5)
@example([(0.5, 0.0, 0.0), (0.25, 0.0, 0.0)], (1.0, 1.0, 1.0), 0.5)
def test_choose_decides_as_the_inline_loop(cues, weights, s_min):
    # the examples: an empty frame, an exact tie after the first candidate,
    # and a best total equal to s_min
    w = TrackerWeights(*weights)
    scored = [(*c, weighted_total(w, *c)) for c in cues]
    assert choose(cues, w, s_min) == ref_choice(scored, s_min)


def test_step_records_its_candidates_scores_and_decides_by_choose():
    cfg = make_cfg()
    st = fresh_state(cfg=cfg)
    frame = DetectionSet(0.0, [det(BoundingBox(300.0, 300.0, 20.0, 20.0), unit(1)),
                               det(st.last_box, st.memory),
                               det(st.last_box, st.memory)])
    kept = []
    res = step(st, frame, cfg, kept)
    assert res.selected is frame.detections[1]
    cues, = kept
    assert cues == [score(d, st, predicted_box(st.ekf)) for d in frame.detections]
    assert choose(cues, cfg.weights, cfg.s_min) == 1
    assert res.scores == (*cues[1], weighted_total(cfg.weights, *cues[1]))
    assert step(st, frame, cfg).scores == res.scores


# ---------------------------------------------------------------------------
# stateful wrapper
# ---------------------------------------------------------------------------


def test_tracker_requires_initialization():
    tr = Tracker(make_cfg())
    assert not tr.initialized
    with pytest.raises(TrackerAbort, match="predict before initialize"):
        tr.predict(GyroSample(0.0, np.zeros(3)))
    with pytest.raises(TrackerAbort, match="step before initialize"):
        tr.step(DetectionSet(0.0, []))


def test_trace_record_schema():
    tr = Tracker(make_cfg())
    box = BoundingBox(100.0, 100.0, 40.0, 30.0)
    tr.initialize(box.center, DetectionSet(0.0, [det(box)]))
    res = tr.step(DetectionSet(1.0 / 60.0, [det(box)]))
    rec = tr.trace_record(res, 1.0 / 60.0)
    assert rec["status"] == "tracking" and rec["coast"] == 0
    assert rec["s_total"] == res.scores[3]
    assert np.array_equal(rec["box"], box_array(box))
    res = tr.step(DetectionSet(2.0 / 60.0, []))
    rec = tr.trace_record(res, 2.0 / 60.0)
    assert rec["status"] == "coasting" and rec["box"] is None
    assert rec["s_total"] is None and rec["coast"] == 1


@pytest.mark.parametrize("name", scenarios.names())
def test_trace_status_and_box_follow_the_coast_count(name):
    # the coast count is the one record of coasting: on every row of the
    # live trace and of a replay of the run's log, "status" is "coasting"
    # and "box" is null exactly when "coast" is positive
    sc = scenarios.get(name)
    art = run(sc)
    replayed = replay_track(art.events, (sc.prompt.x, sc.prompt.y), sc.prompt.t,
                            sc.tracker.build(sc.camera.build()))
    for trace in (art.tracker_trace, replayed):
        assert trace
        for r in trace:
            coasting = r["coast"] > 0
            assert r["status"] == ("coasting" if coasting else "tracking"), r
            assert (r["box"] is None) is coasting, r


def test_at_prompt_is_the_prompt_frame_rule():
    # a frame up to PROMPT_TOL before the prompt time is the prompt frame
    assert at_prompt(1.0, 1.0) and at_prompt(2.0, 1.0)
    assert at_prompt(1.0 - 0.5 * tracker.PROMPT_TOL, 1.0)
    assert not at_prompt(1.0 - 2.0 * tracker.PROMPT_TOL, 1.0)
    tr = Tracker(make_cfg())
    box = BoundingBox(100.0, 100.0, 40.0, 30.0)
    assert tr.feed(DetectionSet(1.0 - 2.0 * tracker.PROMPT_TOL, [det(box)]),
                   box.center, 1.0) is None
    assert not tr.initialized
    row = tr.feed(DetectionSet(1.0 - 0.5 * tracker.PROMPT_TOL, [det(box)]),
                  box.center, 1.0)
    assert tr.initialized and row["status"] == "tracking"


def test_config_validation():
    with pytest.raises(ValueError):
        TrackerWeights(-1.0, 3.0, 4.0)
    with pytest.raises(ValueError):
        TrackerWeights(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        make_cfg(memory_alpha=1.5)
    with pytest.raises(ValueError):
        make_cfg(acceptance_fraction=-0.1)
    with pytest.raises(ValueError):
        make_cfg(q_diag=(1.0, 1.0))
    assert make_cfg(acceptance_fraction=0.05).s_min == pytest.approx(0.5)


@pytest.mark.parametrize("weights", [(math.nan, 3.0, 4.0), (3.0, math.inf, 4.0),
                                     (-math.inf, 3.0, 4.0), (1e308, 1e308, 1e308)],
                         ids=["nan", "inf", "minus_inf", "total_overflow"])
def test_weights_and_their_total_must_be_finite(weights):
    # a NaN weight passed the sign checks, and an infinite total made every
    # candidate's score and the acceptance threshold inf or NaN
    with pytest.raises(ValueError, match="weights and their total must be finite"):
        TrackerWeights(*weights)
