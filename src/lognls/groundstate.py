"""Radial solitary-wave profiles by shooting, their certificates, and sweeps.

The stationary profile solves, radially,

    phi'' + (d-1)/r phi' = 2 omega phi + 2 phi * rate(phi^2),

integrated from phi(0) = b, phi'(0) = 0.  The amplitude b is searched between
the positive zero of G (too little potential energy to reach zero at infinity)
and the largest admissible amplitude (the stationary point of g), classifying
each trajectory as overshoot / undershoot.  The result is the amplitude plain
bisection reaches at float exhaustion, in about half its shots:

1. estimate: a secant on each shot's ratio of growing to decaying tail mode,
   which is near linear in b - b*, bisecting whenever it leaves the bracket;
2. guard band: a few hundred ulps each side of the estimate, whose lower
   edge must undershoot and upper edge overshoot, widened until they do;
3. replay: the bisection, with every midpoint below the band taken as an
   undershoot and every one above it as an overshoot, and shots only inside.

The replay is exact as long as the classification is monotone outside the
band.  Uniqueness of the ground state makes it monotone away from b*; within
a few ulps of b* it is not (rounding decides), which is why no faster search
to float exhaustion reaches the same bits.  The integrator is a scalar
adaptive Dormand-Prince 5(4) pair: generic library steppers spend two orders
of magnitude more time per step than this loop, which matters for the small
frequency sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import grid as _grid
from .errors import (
    BracketFailure,
    ConfigError,
    GridTooSmall,
    IntegratorFailure,
)
from .model import (
    Family,
    ModelParams,
    Observables,
    _DENSITY_CLAMP,
    _density_log,
    amplitude_roots,
    potential_G,
    stationary_amplitude,
    turning_density,
)

# DP5 tolerances of every shot, the node count of a returned profile, and the
# sample count of the uniqueness certificate's sign conditions
_RTOL, _ATOL = 1e-12, 1e-14
_N_NODES = 3201
_CERTIFICATE_SAMPLES = 10_000


class ShotClass(Enum):
    OVERSHOOT = "overshoot"
    UNDERSHOOT = "undershoot"
    CONVERGED = "converged"


@dataclass
class RadialProfile:
    model: ModelParams
    r_nodes: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    tail_rate: float
    tail_coeff: float
    residuals: tuple[float, float, float] | None = None

    @property
    def center_value(self) -> float:
        return float(self.values[0])

    @property
    def r_cut(self) -> float:
        return float(self.r_nodes[-1])

    def __call__(self, r):
        """Evaluate phi at arbitrary radii (spline inside, exponential tail beyond)."""
        r = np.asarray(r, dtype=float)
        inside = r <= self.r_cut
        out = np.empty_like(r)
        out[inside] = _grid.hermite_cubic(self.r_nodes, self.values, self.derivs, r[inside])[0]
        out[~inside] = self.tail_coeff * np.exp(-self.tail_rate * r[~inside])
        return out


@dataclass
class UniquenessCertificate:
    u1: float
    alpha: float
    sqrt_z_omega: float
    gtilde_monotone_ok: bool
    G_positive_on_interval_ok: bool
    s_prime_negative_ok: bool
    samples: int

    @property
    def all_ok(self) -> bool:
        return (
            self.gtilde_monotone_ok
            and self.G_positive_on_interval_ok
            and self.s_prime_negative_ok
        )


# ---------------------------------------------------------------------------
# scalar Dormand-Prince 5(4) with classification events
# ---------------------------------------------------------------------------

_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (
    19372.0 / 6561.0,
    -25360.0 / 2187.0,
    64448.0 / 6561.0,
    -212.0 / 729.0,
)
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = (
    35.0 / 384.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)


# A scalar copy of model.nonlinear_phase_rate: the array call makes a solve ~5x slower.
# Every scalar is a Python float: numpy scalars would slow the DP5 loop.
def _make_force(model: ModelParams):
    omega = model.require_omega()
    lam = float(model.lam)
    log = math.log

    if model.family is Family.CUBIC_LOG_2D:

        def force(p):
            pp = p * p
            if pp > _DENSITY_CLAMP:
                return 2.0 * (omega * p + lam * p * pp * log(pp))
            return 2.0 * (omega * p)

    elif model.family is Family.QUINTIC_LOG_1D:

        def force(p):
            pp = p * p
            if pp > _DENSITY_CLAMP:
                return 2.0 * (omega * p + lam * p * pp * pp * log(pp))
            return 2.0 * (omega * p)

    else:

        def force(p):
            return 2.0 * (omega * p - lam * p * p * p)

    return force


def _integrate_radial(model, b, store):
    """March p' = q, q' = force(p) - (d-1) q/r from (p, q) = (b, 0) at r = 0 out to
    ``default_r_max``, and classify the trajectory.

    A stage's p-slope is the stage's q, so the first stage's is q and the last one's qn;
    the first q-slope at r = 0 is the limit force(b)/d.  Returns (classification, rs, ps,
    qs): the lists hold every accepted sample from r = 0 when ``store`` is true, and the
    exit sample alone otherwise.  Either way their last entries are the state (r, p, q)
    at which the shot was classified.
    """
    force = _make_force(model)
    dm1 = model.dim - 1
    omega = model.require_omega()
    r_max = default_r_max(omega)
    rtol, atol = _RTOL, _ATOL  # locals: the step loop is hot
    r, p, q = 0.0, float(b), 0.0
    k1q = force(p) / model.dim
    h = min(1e-3 / math.sqrt(2.0 * abs(omega) + abs(k1q / max(b, 1e-300)) + 1e-12), 0.01)
    rs, ps, qs = [0.0], [float(b)], [0.0]
    conv = 1e-12
    cls = None
    while True:
        if r >= r_max:
            cls = ShotClass.CONVERGED if p < 1e-6 * max(b, 1.0) else ShotClass.UNDERSHOOT
            break
        if h > r_max - r:
            h = r_max - r
        if not h >= 1e-14 * max(1.0, r):  # NaN-safe: a NaN force makes a NaN step
            raise IntegratorFailure(f"step size {h} under the floor at r={r}")

        k2p = q + h * _A21 * k1q
        k2q = force(p + h * _A21 * q) - dm1 * k2p / (r + _C2 * h)
        k3p = q + h * (_A31 * k1q + _A32 * k2q)
        k3q = force(p + h * (_A31 * q + _A32 * k2p)) - dm1 * k3p / (r + _C3 * h)
        k4p = q + h * (_A41 * k1q + _A42 * k2q + _A43 * k3q)
        k4q = force(p + h * (_A41 * q + _A42 * k2p + _A43 * k3p)) - dm1 * k4p / (r + _C4 * h)
        k5p = q + h * (_A51 * k1q + _A52 * k2q + _A53 * k3q + _A54 * k4q)
        k5q = (force(p + h * (_A51 * q + _A52 * k2p + _A53 * k3p + _A54 * k4p))
               - dm1 * k5p / (r + _C5 * h))
        k6p = q + h * (_A61 * k1q + _A62 * k2q + _A63 * k3q + _A64 * k4q + _A65 * k5q)
        k6q = (force(p + h * (_A61 * q + _A62 * k2p + _A63 * k3p + _A64 * k4p + _A65 * k5p))
               - dm1 * k6p / (r + h))
        pn = p + h * (_B1 * q + _B3 * k3p + _B4 * k4p + _B5 * k5p + _B6 * k6p)
        qn = q + h * (_B1 * k1q + _B3 * k3q + _B4 * k4q + _B5 * k5q + _B6 * k6q)
        k7q = force(pn) - dm1 * qn / (r + h)

        ep = h * (_E1 * q + _E3 * k3p + _E4 * k4p + _E5 * k5p + _E6 * k6p + _E7 * qn)
        eq = h * (
            _E1 * k1q + _E3 * k3q + _E4 * k4q + _E5 * k5q + _E6 * k6q + _E7 * k7q
        )
        scp = atol + rtol * max(abs(p), abs(pn))
        scq = atol + rtol * max(abs(q), abs(qn))
        err = math.sqrt(0.5 * ((ep / scp) ** 2 + (eq / scq) ** 2))

        if err <= 1.0:
            r += h
            p, q = pn, qn
            k1q = k7q
            if store:
                rs.append(r)
                ps.append(p)
                qs.append(q)
            if p <= 0.0:
                cls = ShotClass.OVERSHOOT
                break
            if q > 0.0:
                cls = ShotClass.UNDERSHOOT
                break
            if p < conv and abs(q) < conv:
                cls = ShotClass.CONVERGED
                break
        if err == 0.0:
            fac = 5.0
        else:
            fac = min(5.0, max(0.2, 0.9 * err ** -0.2))
        h *= fac
    if not store:
        return cls, [r], [p], [q]
    return cls, rs, ps, qs


def default_r_max(omega: float) -> float:
    """40 e-foldings of the linearized tail decay rate sqrt(2 omega)."""
    return 40.0 / math.sqrt(2.0 * omega)


def check_radial_box(omega: float, key: str) -> None:
    """The one radial-box rule, a ConfigError naming ``key``: every shot steps across r_max and
    the certificate's tail integrals divide by the cube of 40/r_max, so that cube (a product,
    as float ** raises OverflowError) must be positive and finite."""
    r_max = default_r_max(omega)
    if not 0.0 < r_max * r_max * r_max < math.inf:
        raise ConfigError(f"{key}: omega = {omega} has a radial box r_max = 40/sqrt(2 omega) "
                          f"= {r_max:.3e} whose cube floats cannot carry")


def _classify(model, b):
    return _integrate_radial(model, b, False)[0]


# The search of find_ground_state, in units of the amplitude.  The estimate
# stops once its step is below _ESTIMATE_STOP (64 to 128 ulps): the tail-mode
# ratio is still close to linear there, and finer steps would chase the
# classification noise, which reaches about 5 ulps around the true amplitude.
# The guard band's half width starts at _GUARD (256 to 512 ulps, so the band
# holds the estimate's error and that noise with room to spare) and grows
# by _GUARD_GROWTH whenever an edge misclassifies.
_ESTIMATE_STOP = 2.0 ** -46
_GUARD = 2.0 ** -44
_GUARD_GROWTH = 256.0


def _tail_mode_ratio(kappa, r, p, q):
    """B/A of the linear tail p = A e^{-kappa r} + B e^{kappa r} through the state (r, p, q).

    kappa p + q = 2 kappa B e^{kappa r} and kappa p - q = 2 kappa A e^{-kappa r}.
    The ratio is near linear in b - b*: positive on undershoots, negative on
    overshoots.  NaN where the decaying part has no positive weight.
    """
    den = kappa * p - q
    if not den > 0.0:
        return math.nan
    return math.exp(-2.0 * kappa * r) * (kappa * p + q) / den


def _estimate_amplitude(model, lo, hi):
    """Secant on the tail-mode ratio of successive shots, bisecting whenever it leaves (lo, hi).

    ``lo`` must undershoot and ``hi`` overshoot.  Returns once a step is
    below _ESTIMATE_STOP of the amplitude, or at a converged shot.  Every
    shot lies strictly inside (lo, hi) and narrows it, so the loop ends.
    """
    kappa = math.sqrt(2.0 * model.omega)
    b, prev = 0.5 * (lo + hi), None
    while True:
        cls, rs, ps, qs = _integrate_radial(model, b, False)
        if cls is ShotClass.CONVERGED:
            return b
        if cls is ShotClass.OVERSHOOT:
            hi = b
        else:
            lo = b
        sigma = _tail_mode_ratio(kappa, rs[-1], ps[-1], qs[-1])
        step = math.nan
        if prev is not None and sigma != prev[1]:
            step = -sigma * (b - prev[0]) / (sigma - prev[1])
        if not lo < b + step < hi:  # a NaN step bisects too
            step = 0.5 * (lo + hi) - b
        if abs(step) < _ESTIMATE_STOP * b:
            return b + step
        prev = (b, sigma)
        b += step


def _exhausted_amplitude(model, lo, hi):
    """The amplitude plain bisection of (lo, hi) reaches at float exhaustion, in fewer shots.

    ``lo`` must undershoot and ``hi`` overshoot.  The bisection is replayed
    decision for decision, but a shot is taken only inside a guard band
    [L, H] around an estimate of the amplitude whose edges classify as
    expected: every midpoint at or below L counts as an undershoot, every
    one at or above H as an overshoot.  That is exact as long as the
    classification is monotone outside the band.  Once the band covers
    (lo, hi) every midpoint is shot, which is plain bisection.
    """
    estimate = _estimate_amplitude(model, lo, hi)
    guard = _GUARD * estimate
    while True:
        L, H = estimate - guard, estimate + guard
        if (L <= lo or _classify(model, L) is ShotClass.UNDERSHOOT) and (
            H >= hi or _classify(model, H) is ShotClass.OVERSHOOT
        ):
            break
        guard *= _GUARD_GROWTH

    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if mid <= L:
            cls = ShotClass.UNDERSHOOT
        elif mid >= H:
            cls = ShotClass.OVERSHOOT
        else:
            cls = _classify(model, mid)
        if cls is ShotClass.OVERSHOOT:
            hi = mid
        elif cls is ShotClass.UNDERSHOOT:
            lo = mid
        else:
            lo = hi = mid
            break
    return 0.5 * (lo + hi)


# the largest Pohozaev residual a returned profile may carry: by default, and in the
# Townes reference and the small-frequency sweep
POHOZAEV_BOUND = 1e-6
_SWEEP_POHOZAEV_BOUND = 1e-8


def find_ground_state(model: ModelParams, bound: float = POHOZAEV_BOUND) -> RadialProfile:
    """Shoot the amplitude to float exhaustion and return the certified profile at ``model.omega``.

    The amplitude is the one plain bisection of the bracket reaches when no
    midpoint lies strictly inside it any more (``_exhausted_amplitude``), so
    nothing steers the search; ``bound`` is the largest Pohozaev residual
    the returned profile may carry.
    """
    if not 1e-12 <= bound <= 1e-1:
        raise ValueError("bound must lie in [1e-12, 1e-1]")
    omega = model.require_omega()
    check_radial_box(omega, "model.omega")
    lo = math.sqrt(turning_density(model))  # the positive zero of G: no shot below it decays
    hi = 2.0 * lo
    if model.family.log_power is not None:
        # Just below the stationary point of g: that point is an exact equilibrium
        # of the radial ODE, so its classification flips on the rounding of the
        # root; every amplitude strictly below it (and above the profile's) overshoots.
        hi = stationary_amplitude(model) * (1.0 - 1e-9)
    if model.family is Family.QUINTIC_LOG_1D:
        # in 1D the G-zero is the exact amplitude; start the bracket below it
        lo *= 0.95

    # One classification per endpoint: a misclassified one fails, no search.
    if _classify(model, lo) is not ShotClass.UNDERSHOOT:
        raise BracketFailure(f"no undershooting amplitude found: {lo} does not undershoot")
    if _classify(model, hi) is not ShotClass.OVERSHOOT:
        raise BracketFailure(f"no overshooting amplitude found: {hi} does not overshoot")

    # Refine to float exhaustion: every extra bit of b pushes the radius where
    # the unstable mode takes over further out, buying clean tail decades.
    b = _exhausted_amplitude(model, lo, hi)
    rs, ps, qs = map(np.asarray, _integrate_radial(model, b, True)[1:])

    positive = ps > 0.0
    if not positive.all():
        stop = int(np.argmin(positive))  # first nonpositive sample
        rs, ps, qs = rs[:stop], ps[:stop], qs[:stop]  # every sample kept is positive
    # Departure radius: turnaround (undershoot side) or the zero crossing.
    # Salvage only what lies a fixed margin of linear e-foldings before it;
    # beyond that the growing mode contaminates the samples.
    kappa = math.sqrt(2.0 * omega)
    r_depart = float(rs[int(np.argmin(ps))])
    r_cut_target = r_depart - 3.0 / kappa
    usable = np.nonzero(rs <= r_cut_target)[0]
    if usable.size < 16:
        raise BracketFailure("trajectory never resolved a decaying tail")
    i_cut = int(usable[-1])
    if ps[i_cut] > 1e-3 * b:
        raise BracketFailure("tail not resolved below 1e-3 of the peak amplitude")

    r_nodes = np.linspace(0.0, float(rs[i_cut]), _N_NODES)
    # at the first node r = 0 the spline returns the first sample (b, +0.0) exactly
    values, derivs = _grid.hermite_cubic(rs[: i_cut + 1], ps[: i_cut + 1], qs[: i_cut + 1], r_nodes)

    window = rs[: i_cut + 1] >= rs[i_cut] - 2.5 * math.log(10.0) / kappa
    if int(window.sum()) < 6:
        raise BracketFailure("too few samples in the tail decades for a rate fit")
    slope = np.polyfit(rs[: i_cut + 1][window], np.log(ps[: i_cut + 1][window]), 1)[0]
    tail_rate = -float(slope)
    if tail_rate <= 0:
        raise BracketFailure("fitted tail rate is not positive")
    tail_coeff = float(values[-1] * math.exp(tail_rate * r_nodes[-1]))

    profile = RadialProfile(model=model, r_nodes=r_nodes, values=values, derivs=derivs,
                            tail_rate=tail_rate, tail_coeff=tail_coeff)
    res = pohozaev_residuals(profile)
    profile.residuals = res
    if not all(abs(x) <= bound for x in res):  # a NaN residual fails too
        raise IntegratorFailure(f"pohozaev certification failed: residuals {res} exceed {bound}")
    return profile


# ---------------------------------------------------------------------------
# certification quadratures
# ---------------------------------------------------------------------------


def _tail_T(a: float, r0: float, m: int) -> float:
    """int_{r0}^inf r^m e^{-a r} dr for m in {0,1,2}."""
    e = math.exp(-a * r0)
    if m == 0:
        return e / a
    if m == 1:
        return e * (r0 / a + 1.0 / a ** 2)
    return e * (r0 ** 2 / a + 2.0 * r0 / a ** 2 + 2.0 / a ** 3)


def _radial_integrals(profile: RadialProfile) -> dict:
    """The certification integrals over R^d its family reads: sampled Simpson + analytic tails."""
    model = profile.model
    r = profile.r_nodes
    phi = profile.values
    dphi = profile.derivs
    dim = model.dim
    C = profile.tail_coeff
    d = profile.tail_rate
    r0 = profile.r_cut

    # the weight |S^{d-1}| r^{d-1}: 2 pi r, or 2 for the even extension to the full line
    area = 2.0 * math.pi if dim == 2 else 2.0
    w = area * r ** (dim - 1)

    def tail(n, m=0):
        # int (C e^{-d r})^n r^m weight over the tail
        return area * C ** n * _tail_T(n * d, r0, m + dim - 1)

    rho = phi * phi
    lnrho = _density_log(rho)
    lnC2 = math.log(C * C) if C > 0 else 0.0

    dr = profile.r_cut / (r.size - 1)

    def I(samples):
        return _grid.simpson(samples * w, dr)

    mass = I(rho) + tail(2)
    grad2 = I(dphi * dphi) + d * d * tail(2)
    quartic = I(rho * rho) + tail(4)

    lam = model.lam
    p = model.family.log_power
    if p is None:
        nl, pd = -lam * quartic, -0.5 * lam * quartic
    else:
        # int rho^(p+1) and int rho^(p+1) ln rho; a phi^n moment has the tail
        # (C e^{-dr})^n, times (ln C^2 - 2 d r) under the logarithm
        n = 2 * p + 2
        moment_samples = np.power(rho, p + 1)
        moment = I(moment_samples) + tail(n)
        log_moment = I(moment_samples * lnrho) + lnC2 * tail(n) - 2.0 * d * tail(n, m=1)
        nl = lam * log_moment
        pd = lam / (p + 1) * (log_moment - moment / (p + 1))

    return {
        "mass": mass,
        "grad2": grad2,
        "quartic": quartic,
        "nl": nl,  # int phi^2 rate(phi^2) = int N(phi) phi
        "pd": pd,  # int V(phi^2)
    }


def pohozaev_residuals(profile: RadialProfile) -> tuple[float, float, float]:
    """Normalized residuals of the stationary integral identities.

    2D families: (multiply-by-phi, dilation, V = int G = 0).  The 1D family
    has no dilation identity; r2 and rV are both the first-integral identity
    (1/2) int phi'^2 + int G = 0 there.
    """
    model, omega = profile.model, profile.model.omega
    ints = _radial_integrals(profile)
    M, K2, nl, pd = ints["mass"], ints["grad2"], ints["nl"], ints["pd"]
    GV = -omega * M - pd  # int G(phi) = -omega M - int V(phi^2)

    def norm(value, *terms):
        scale = max(max(abs(t) for t in terms), 1e-300)
        return value / scale

    r1 = norm(0.5 * K2 + nl + omega * M, 0.5 * K2, nl, omega * M)
    if model.dim == 2:
        # r1_raw + 2 GV reduces to the dilation identity (phi2)
        r2 = norm(0.5 * K2 + nl + omega * M + 2.0 * GV, 0.5 * K2, omega * M, GV)
        rV = norm(GV, omega * M, pd)
    else:
        r2 = norm(0.5 * K2 + GV, 0.5 * K2, GV)
        rV = r2
    return (r1, r2, rV)


def radial_observables(profile: RadialProfile) -> Observables:
    """Mass/energy/action of a radial profile by the certification quadrature."""
    ints = _radial_integrals(profile)
    kinetic = 0.5 * ints["grad2"]
    energy = kinetic + ints["pd"]
    return Observables(
        mass=ints["mass"],
        energy=energy,
        momentum=(0.0,) * profile.model.dim,
        kinetic=kinetic,
        potential=ints["pd"],
        quartic=ints["quartic"],
        action=energy + profile.model.omega * ints["mass"],
    )


# ---------------------------------------------------------------------------
# uniqueness certificate
# ---------------------------------------------------------------------------


def uniqueness_certificate(model: ModelParams) -> UniquenessCertificate:
    """The three sign conditions of the uniqueness proof at ``model.omega``, sampled.

    2D cubic-log family only.
    """
    omega, lam = model.require_omega(), model.lam
    wl = omega / lam
    zstar = math.exp(-0.25)

    u1 = math.sqrt(turning_density(model))
    alpha, sqz = amplitude_roots(model)

    def gtilde(z):
        return z * z * 0.25 - z * z * np.log(z) - wl

    mids = (np.arange(_CERTIFICATE_SAMPLES) + 0.5) / _CERTIFICATE_SAMPLES
    z_inc = mids * zstar
    z_dec = zstar + mids * (2.0 - zstar)
    monotone = bool(
        np.all(np.diff(gtilde(z_inc)) > 0.0) and np.all(np.diff(gtilde(z_dec)) < 0.0)
    )

    z_mid = u1 + mids * (sqz - u1)
    g_positive = bool(np.all(potential_G(z_mid, model) > 0.0))

    sign_expr = 4.0 * lam * z_mid ** 3 * (
        2.0 * omega * (1.0 + np.log(z_mid)) - lam * z_mid ** 2
    )
    s_prime_negative = bool(np.all(sign_expr < 0.0))

    return UniquenessCertificate(
        u1=u1,
        alpha=alpha,
        sqrt_z_omega=sqz,
        gtilde_monotone_ok=monotone,
        G_positive_on_interval_ok=g_positive,
        s_prime_negative_ok=s_prime_negative,
        samples=_CERTIFICATE_SAMPLES,
    )


# ---------------------------------------------------------------------------
# small-frequency mass sweep
# ---------------------------------------------------------------------------


@dataclass
class MassSweepRow:
    omega: float
    mass: float
    ratio: float      # mass * sqrt(ln(1/omega)) / mass_Q
    ratio_log: float  # mass * ln(1/omega) / mass_Q; the rescaling that is
    #                   actually unitary against the cubic reference


def townes_mass(lam: float) -> float:
    """Mass of the cubic reference ground state Q at coupling lam (omega = 1): M(Q_1)/lam, as
    Q_1/sqrt(lam) solves the equation at lam, from one shot whose amplitude floats carry."""
    ModelParams(Family.PURE_CUBIC_2D, lam, omega=1.0)  # the window check: lam > 0
    profile = find_ground_state(ModelParams(Family.PURE_CUBIC_2D, 1.0, 1.0), _SWEEP_POHOZAEV_BOUND)
    return radial_observables(profile).mass / lam


def mass_asymptotics_sweep(lam: float, omega_list) -> tuple[list[MassSweepRow], float]:
    """Ground-state masses along a decreasing omega list, against M(Q)/sqrt(ln(1/w))."""
    # every frequency is window- and box-checked before the reference solve
    models = [ModelParams(Family.CUBIC_LOG_2D, lam, omega) for omega in omega_list]
    for model in models:
        check_radial_box(model.omega, "omega_list")
    mass_Q = townes_mass(lam)
    rows = []
    for model in models:
        profile = find_ground_state(model, _SWEEP_POHOZAEV_BOUND)
        mass = radial_observables(profile).mass
        L = math.log(1.0 / model.omega)
        rows.append(MassSweepRow(omega=float(model.omega), mass=mass,
                                 ratio=mass * math.sqrt(L) / mass_Q, ratio_log=mass * L / mass_Q))
    return rows, mass_Q


# ---------------------------------------------------------------------------
# embedding profiles into periodic grids
# ---------------------------------------------------------------------------


def embed_radial(
    profile: RadialProfile,
    grid: _grid.Grid,
    center=None,
) -> _grid.ComplexField:
    """phi(|x - center|) on the grid with the exponential tail.

    The grid must keep the boundary amplitude below 1e-3 of the peak; the
    documented 1e-8 mass agreement additionally needs the stronger margin
    half_width >= last node + 5/tail_rate.
    """
    profile.model.check_grid(grid)
    if center is None:
        center = (0.0,) * grid.dim
    center = tuple(float(c) for c in center)
    margin = grid.half_width - max(abs(c) for c in center)
    if margin <= 0:
        raise GridTooSmall("center lies outside the grid")
    edge = profile.tail_coeff * math.exp(-profile.tail_rate * margin)
    if margin < profile.r_cut:
        edge = max(edge, float(profile(np.asarray([margin]))[0]))
    if edge > 1e-3 * profile.center_value:
        raise GridTooSmall(
            f"boundary amplitude {edge:.3e} exceeds 1e-3 of the peak "
            f"{profile.center_value:.3e}; enlarge the box"
        )
    r = np.sqrt(_grid.squared_distance(grid, center))
    return _grid.ComplexField(grid, profile(r))
