"""Reference implementations used as test oracles, and imu_rows, the
imu.csv rows that the tests feed them and the filter.

PlainEkf is a from-scratch error-state EKF with no parameter-estimation
machinery at all; it shares the package's linear algebra (propagation,
linearization, kalman_step, retraction) so the reduction-equivalence test
can demand bit-identical output from the adaptive filter with its parameter
channel disabled.
"""

import numpy as np

from viwo import geom
from viwo.dynamics import GyroParams, NavState, correct_gyro
from viwo.features import RHO_CEIL, RHO_FLOOR
from viwo.filter import (FEAT_DIM, NAV_DIM, assemble_linearization,
                         kalman_step, propagate_joint, retract)
from viwo.sensors import (vehicle_measurement_jacobian,
                          vehicle_predicted_measurement,
                          vehicle_velocity_measurement)
from scipy.stats import chi2


def imu_rows(samples):
    """A (T, 7) block of imu.csv rows [t, omega_m, accel_m] from (t,
    omega_m, accel_m) triples."""
    return np.array([[t, *omega_m, *accel_m] for t, omega_m, accel_m in samples])


class PlainEkf:
    """Minimal EKF over the same error state, bearing measurement mode."""

    def __init__(self, noise, ext, capacity, rho_sg, gravity, nav, t):
        self.noise = noise
        self.ext = ext
        self.capacity = capacity
        self.rho_sg = rho_sg
        self.g = gravity
        self.nav = nav.copy()
        self.t = t
        self.dim = NAV_DIM + FEAT_DIM * capacity
        self.qf = np.tile(geom.IDENTITY_QUAT, (capacity, 1))
        self.rho = np.full(capacity, noise.rho0)
        self.active = np.zeros(capacity, dtype=bool)
        p0 = np.zeros(self.dim)
        p0[0:3] = noise.p0_vel ** 2
        p0[3:6] = noise.p0_att ** 2
        p0[6:9] = noise.p0_pos ** 2
        p0[NAV_DIM:] = 1.0
        self.cov = np.diag(p0)
        self._eye = np.eye(self.dim)
        self._miss = np.zeros(capacity, dtype=int)
        self._gated = np.zeros(capacity, dtype=int)
        self._wheel_zero_since = None
        self.params = GyroParams()  # fixed identity: no calibration channel

    def predict(self, imu):
        """One step to a (1, 7) block of imu.csv rows [t, omega_m, accel_m]."""
        t, omega_m = imu[0, 0], imu[:, 1:4]
        dt = t - self.t
        omega = correct_gyro(omega_m, self.params)
        act = np.nonzero(self.active)[0]
        qf = self.qf[act]
        rho = self.rho[act]
        nav = np.concatenate((self.nav.vel, self.nav.quat, self.nav.pos))[None]
        f_c, _ = assemble_linearization(nav, qf[None], rho[None], omega, omega_m,
                                        self.params, self.ext, self.g)
        f_c = f_c[0]
        idx = np.concatenate([np.arange(NAV_DIM)]
                             + [NAV_DIM + FEAT_DIM * i + np.arange(3) for i in act]
                             ).astype(int) if len(act) else np.arange(NAV_DIM)
        phi = self._eye.copy()
        phi[np.ix_(idx, idx)] += f_c * dt
        q_diag = np.zeros(self.dim)
        q_diag[0:3] = self.noise.accel_noise ** 2 * dt
        q_diag[3:6] = self.noise.gyro_noise ** 2 * dt
        q_diag[6:9] = self.noise.pos_process ** 2 * dt
        for i in act:
            o = NAV_DIM + FEAT_DIM * i
            q_diag[o:o + 2] = self.noise.bearing_process ** 2 * dt
            q_diag[o + 2] = self.noise.rho_process ** 2 * dt
        navs, qfs, rhos = propagate_joint(self.nav, qf, rho, omega, imu[:, 4:7],
                                          np.array([dt]), self.ext, self.g)
        cov = phi @ self.cov @ phi.T
        cov[np.diag_indices_from(cov)] += q_diag
        self.cov = 0.5 * (cov + cov.T)
        self.nav = NavState.from_row(navs[1])
        if len(act):
            self.qf[act] = qfs[1]
            self.rho[act] = np.clip(rhos[1], RHO_FLOOR, RHO_CEIL)
        self.t = t

    def note_wheel(self, t, v):
        if v != 0.0:
            self._wheel_zero_since = None
        elif self._wheel_zero_since is None:
            self._wheel_zero_since = t

    def _standstill(self, t):
        return (self._wheel_zero_since is not None
                and t - self._wheel_zero_since >= 0.5)

    def _gate(self, resid, cols, h_local, r_diag):
        p_block = self.cov[np.ix_(cols, cols)]
        sig = h_local @ p_block @ h_local.T + np.diag(r_diag)
        if len(resid) == 2:
            det = sig[0, 0] * sig[1, 1] - sig[0, 1] * sig[1, 0]
            if det <= 0.0:
                return False
            d2 = (sig[1, 1] * resid[0] ** 2 - 2 * sig[0, 1] * resid[0] * resid[1]
                  + sig[0, 0] * resid[1] ** 2) / det
        else:
            d2 = float(resid @ np.linalg.solve(sig, resid))
        return d2 <= chi2.ppf(0.99, len(resid))

    def frame(self, t, observations, veh, max_misses=3):
        obs = {s: np.asarray(q) for s, q in observations if 0 <= s < self.capacity}
        rows = []  # (label, slot, resid, cols, h_local, r_diag)
        if veh is not None:
            z = vehicle_velocity_measurement(veh.v_x_m, veh.a_y_m, self.rho_sg)
            pred = vehicle_predicted_measurement(self.nav.vel, veh.v_x_m,
                                                 veh.a_y_m, self.rho_sg)
            hv = vehicle_measurement_jacobian(self.rho_sg, veh.a_y_m)
            sig_lat = self.noise.sigma_lateral
            if (abs(veh.v_x_m) < self.noise.lateral_min_speed
                    or abs(veh.a_y_m) > self.noise.lateral_max_ay):
                sig_lat *= self.noise.lateral_inflation
            r_map = [self.noise.sigma_wheel, sig_lat, self.noise.sigma_vertical]
            sel = [0, 1, 2]
            rows.append(("vehicle", None, (z - pred)[sel], np.array([0, 1, 2]),
                         hv[sel, :], np.array([r_map[r] ** 2 for r in sel])))
        if self._standstill(t):
            rows.append(("zupt", None, -self.nav.vel.copy(), np.array([0, 1, 2]),
                         np.eye(3), np.full(3, self.noise.sigma_zupt ** 2)))
        for slot in sorted(obs):
            if self.active[slot]:
                o = NAV_DIM + FEAT_DIM * slot
                resid = geom.s2_boxminus(obs[slot], self.qf[slot])
                rows.append(("bearing", slot, resid, np.array([o, o + 1]),
                             np.eye(2), np.full(2, self.noise.sigma_bearing ** 2)))

        kept = [r for r in rows if self._gate(r[2], r[3], r[4], r[5])]
        gated_slots = {r[1] for r in rows if r not in kept and r[0] == "bearing"}
        if kept:
            m = sum(len(r[2]) for r in kept)
            h = np.zeros((m, self.dim))
            resid = np.empty(m)
            r_diag = np.empty(m)
            at = 0
            for r in kept:
                n_r = len(r[2])
                h[at:at + n_r, r[3]] = r[4]
                resid[at:at + n_r] = r[2]
                r_diag[at:at + n_r] = r[5]
                at += n_r
            step = kalman_step(self.cov, h, r_diag, resid)
            if step is not None:
                dx, p_new, _, _, _ = step
                self.cov = p_new
                self.nav = retract(self.nav, dx[0:NAV_DIM])
                for i in np.nonzero(self.active)[0]:
                    o = NAV_DIM + FEAT_DIM * i
                    self.qf[i] = geom.s2_boxplus(self.qf[i], dx[o:o + 2])
                    self.rho[i] = np.clip(self.rho[i] + dx[o + 2],
                                          RHO_FLOOR, RHO_CEIL)

        # feature lifecycle identical to the adaptive filter's bearing path
        for slot in [int(i) for i in np.nonzero(self.active)[0]]:
            if slot in obs:
                if slot in gated_slots:
                    self._gated[slot] += 1
                else:
                    self._gated[slot] = 0
                    self._miss[slot] = 0
            else:
                self._miss[slot] += 1
            o = NAV_DIM + FEAT_DIM * slot
            unhealthy = (self.rho[slot] <= RHO_FLOOR or self.rho[slot] >= RHO_CEIL
                         or max(self.cov[o, o], self.cov[o + 1, o + 1]) > 0.04)
            if self._miss[slot] >= max_misses or unhealthy:
                self._drop(slot)
            elif self._gated[slot] >= max_misses and slot in obs:
                self._drop(slot)
                self._init(slot, obs[slot])
        for slot, q_obs in sorted(obs.items()):
            if not self.active[slot]:
                self._init(slot, q_obs)

    def _init(self, slot, bearing):
        o = NAV_DIM + FEAT_DIM * slot
        self.active[slot] = True
        self.qf[slot] = geom.quat_normalize(np.asarray(bearing, dtype=float))
        self.rho[slot] = self.noise.rho0
        self.cov[o:o + 3, :] = 0.0
        self.cov[:, o:o + 3] = 0.0
        self.cov[o, o] = self.noise.sigma_bearing0 ** 2
        self.cov[o + 1, o + 1] = self.noise.sigma_bearing0 ** 2
        self.cov[o + 2, o + 2] = self.noise.sigma_rho0 ** 2
        self._miss[slot] = 0
        self._gated[slot] = 0

    def _drop(self, slot):
        o = NAV_DIM + FEAT_DIM * slot
        self.active[slot] = False
        self.cov[o:o + 3, :] = 0.0
        self.cov[:, o:o + 3] = 0.0
        self.cov[o, o] = self.cov[o + 1, o + 1] = self.cov[o + 2, o + 2] = 1.0
        self._miss[slot] = 0
        self._gated[slot] = 0


def batch_rls(omegas, sigmas, ytildes, theta_hats, s0, theta0, lam):
    """Information-form weighted least squares matching the RLS recursion.

    The recursion's virtual measurement at step k is
    z_k = ytilde_k + Omega_k theta_hat_k; a measurement absorbed at step k is
    forgotten by a factor lam at that update and at every later one, so after
    N steps the batch normal equations are

      (lam^N S0^-1 + sum_k lam^(N-k) Omega^T Sigma^-1 Omega) theta
        = lam^N S0^-1 theta0 + sum_k lam^(N-k) Omega^T Sigma^-1 z_k

    with k = 0..N-1.  The recursive estimate equals the batch solution
    exactly (Kalman/information-filter identity), up to rounding.
    """
    n = len(omegas)
    s0_inv = np.linalg.inv(s0)
    info = lam ** n * s0_inv
    vec = lam ** n * (s0_inv @ theta0)
    for k in range(n):
        w = lam ** (n - k)
        om = np.atleast_2d(omegas[k])
        sig_inv = np.linalg.inv(np.atleast_2d(sigmas[k]))
        z = np.atleast_1d(ytildes[k]) + om @ theta_hats[k]
        info = info + w * om.T @ sig_inv @ om
        vec = vec + w * (om.T @ sig_inv @ z)
    return np.linalg.solve(info, vec)
