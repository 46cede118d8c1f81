"""Test instruments: measurements of orbits that only the tests take.

Each one checks a law of the paper against the integrator's output; no
program path needs them, so they live beside the tests that use them.
"""

import csv
import math

import numpy as np

from resonance.apriori import _polar_rates
from resonance.integrate import (HomotopyField, LapPatternError, PhaseState,
                                 Trajectory, integrate)
from resonance.util import fmt_float

ELASTIC_AMPLITUDES = (1e2, 1e3, 1e4)      # check_elastic's amplitude ladder


def flat_grid(f_of_x):
    """The grid form (NonlinearityModel.f_tarr) of a t-independent f given
    one x at a time: one value per time at a number x, an array of shape
    x.shape + t.shape at a 1-D array of x."""
    def grid(t, x):
        fx = np.array([float(f_of_x(v)) for v in np.ravel(x).tolist()])
        fx = fx.reshape(np.shape(x) + (1,) * np.ndim(t))
        return np.broadcast_to(fx, np.shape(x) + np.shape(t))
    return grid


def measure_halfturn(fld: HomotopyField, y0: float, tol: float = 1e-10,
                     horizon: float | None = None) -> tuple[float, float]:
    """Durations (right half-turn, left half-turn) from the start (0, y0).

    Starting on the positive y-axis, the right half-turn ends at the x=0
    downward crossing and the left half-turn at the next upward one.
    """
    if y0 <= 0:
        raise ValueError("y0 must be positive")
    if horizon is None:
        horizon = 2.0 * fld.model.period
    traj = integrate(fld, PhaseState(0.0, 0.0, y0), horizon, tol)
    seq = [ev for ev in sorted(traj.events, key=lambda e: e.t)
           if ev.kind in ("cross_x_eq_0", "cross_y_eq_0")]
    t4 = t8 = None
    stage = 0   # 0: expect y=0 (x>0); 1: expect x=0 down; 2: expect x=0 up
    for ev in seq:
        if stage == 0 and ev.kind == "cross_y_eq_0" and ev.x > 0:
            stage = 1
        elif stage == 1 and ev.kind == "cross_x_eq_0" and ev.y < 0:
            t4 = ev.t
            stage = 2
        elif stage == 2 and ev.kind == "cross_x_eq_0" and ev.y > 0:
            t8 = ev.t
            break
    if t4 is None or t8 is None:
        raise LapPatternError("half-turn pattern not completed within the horizon")
    return t4, t8 - t4


def measure_kappa(fld: HomotopyField, d: float, r: float, n_probes: int):
    """omega0 = min(-theta') and ell0 = max|rho'|/rho over the samples in
    the region {x > d, rho >= r} of n_probes orbits started on the circle
    of radius r: the polar constants as one orbit sample sees them."""
    omega0 = math.inf
    ell0 = 0.0
    for k in range(n_probes):
        ang = 2.0 * math.pi * (k + 0.5) / n_probes
        z0 = PhaseState(0.0, r * math.cos(ang), r * math.sin(ang))
        traj = integrate(fld, z0, fld.model.period)
        mtd, rd = _polar_rates(fld, traj)
        mask = (traj.x > d) & (traj.rho >= r)
        if np.any(mask):
            omega0 = min(omega0, float(np.min(mtd[mask])))
            ell0 = max(ell0, float(np.max(np.abs(rd[mask]) / traj.rho[mask])))
    return omega0, ell0


def check_elastic(fld: HomotopyField, kit, n_orbits: int = 8) -> dict:
    """Empirical escape-radius validation plus the vanishing-minimum trend.

    Orbits started beyond kit.R_elastic must stay kit.R0-large for a full
    period; orbits started at the ELASTIC_AMPLITUDES must show
    |min x| / sup|x| decreasing toward zero (the left excursion is of
    lower order).
    """
    period = fld.model.period
    start = 1.05 * kit.R_elastic
    stays_large = []
    for k in range(n_orbits):
        ang = 2.0 * math.pi * (k + 0.5) / n_orbits
        z0 = PhaseState(0.0, start * math.cos(ang), start * math.sin(ang))
        traj = integrate(fld, z0, period)
        stays_large.append(bool(traj.min_rho() > kit.R0))
    ratios = []
    for amp in ELASTIC_AMPLITUDES:
        traj = integrate(fld, PhaseState(0.0, 0.0, float(amp)), period)
        ratios.append(float(-np.min(traj.x) / np.max(np.abs(traj.x))))
    decreasing = bool(np.all(np.diff(ratios) < 0))
    return dict(stays_large=stays_large, all_large=all(stays_large),
                min_ratio=ratios, min_ratio_decreasing=decreasing)


def N_measure(x: float, y: float) -> float:
    """Singular-mode largeness functional 1/x^2 + x^2 + y^2 (x > 0)."""
    if x <= 0.0:
        raise ValueError("N_measure needs x > 0")
    return 1.0 / (x * x) + x * x + y * y


def normalized_profile(trajs: list[Trajectory]) -> dict:
    """Arc diagnostics of a family of periodic orbits with growing norms.

    Rescales each orbit by its sup norm, slices it at its zeros into
    positive arcs, and fits each arc with amplitude (peak of the rescaled
    arc) and frequency pi / duration; the fitted frequencies of a family
    blowing up against a band edge settle on the square root of that
    eigenvalue.
    """
    if len(trajs) < 3:
        raise ValueError("need at least 3 orbits of increasing sup norm")
    sups = [tr.sup_norm() for tr in trajs]
    if not all(s2 > s1 for s1, s2 in zip(sups[:-1], sups[1:])):
        raise ValueError("orbits must come with increasing sup norms")
    out = []
    for tr, sup in zip(trajs, sups):
        crossings = [ev for ev in sorted(tr.events, key=lambda e: e.t)
                     if ev.kind == "cross_x_eq_0"]
        zeros = [ev.t for ev in crossings]
        arcs = []
        for e1, e2 in zip(crossings[:-1], crossings[1:]):
            if e1.y > 0 > e2.y:     # positive arc between up and down crossing
                t_mask = (tr.t >= e1.t) & (tr.t <= e2.t)
                if not np.any(t_mask):
                    continue
                peak = float(np.max(tr.x[t_mask])) / sup
                duration = e2.t - e1.t
                arcs.append(dict(start=e1.t, duration=duration,
                                 amplitude=peak,
                                 omega=math.pi / duration))
        out.append(dict(sup_norm=sup, zeros=zeros, arcs=arcs,
                        omega_fit=(float(np.median([a["omega"] for a in arcs]))
                                   if arcs else math.nan),
                        min_ratio=float(np.min(tr.x)) / sup))
    return dict(per_orbit=out,
                omega_trend=[o["omega_fit"] for o in out],
                sup_norms=sups)


def write_csv_reference(path, header, rows):
    """util.write_csv as csv.writer alone writes it, floats serialized via
    fmt_float: the reference its float-row template must match byte for
    byte."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([fmt_float(v) if isinstance(v, float) else v
                        for v in row])
