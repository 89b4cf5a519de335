"""Independent numerical oracles shared by the test suite.

These deliberately avoid the library's solver path: the constrained fit is
checked against a projected-gradient minimizer of the finite-dimensional
quadratic, with the norm-ball projection computed by bisection on its
multiplier.  The free-run step ratio checks the incremental promise on a
fitted simulator itself, from two of its free runs.
"""

import numpy as np

from stable_sysid import simulate


def random_psd(rng, n, lam_min=0.05, lam_max=3.0):
    """Random symmetric PSD matrix with spectrum in [lam_min, lam_max]."""
    A = rng.normal(size=(n, n))
    Q, _ = np.linalg.qr(A)
    lam = rng.uniform(lam_min, lam_max, size=n)
    return (Q * lam) @ Q.T


def random_spectrum_problem(seed, n):
    """A Gram ``K = Q diag(lam) Q'`` with eigenvalues log-uniform in
    [1e-12, 1], exactly symmetric, with its eigenpairs and random targets:
    ``(lam, Q, K, y)``."""
    rng = np.random.default_rng(seed)
    lam = 10.0 ** rng.uniform(-12.0, 0.0, size=n)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    K = (Q * lam) @ Q.T
    return lam, Q, 0.5 * (K + K.T), rng.normal(size=n)


def root_conditioning(lam, z2, alpha):
    """Relative first-order change of the constraint-gap root ``alpha``
    under an eigenvalue error of ``max(lam)``, for squared rotated targets
    ``z2``.  Times ``n eps`` it is the floor of any method that works on the
    rounded K."""
    d = lam + alpha
    return lam.max() * np.sum(z2 * np.abs(alpha - lam) / d ** 3) / (2.0 * alpha * np.sum(lam * z2 / d ** 3))


def quadratic_objective(K, y, beta, c):
    """c'(K + beta I) K c - 2 y' K c + y'y, the fit cost as a function of c."""
    Kc = K @ c
    return beta * float(c @ Kc) + float(Kc @ Kc) - 2.0 * float(y @ Kc) + float(y @ y)


def projected_gradient_min(K, y, m, chi, beta, iterations=20000):
    """Accelerated projected gradient on the quadratic over {c : m c'Kc <= chi}.

    Runs in the eigenbasis of K (elementwise gradient and projection) with
    objective-based momentum restarts; returns coefficients in the original
    basis.
    """
    lam, Q = np.linalg.eigh(0.5 * (K + K.T))
    lam = np.maximum(lam, 0.0)
    yt = Q.T @ y

    def objective(d):
        ld = lam * d
        return beta * float(d @ ld) + float(ld @ ld) - 2.0 * float(yt @ ld) + float(yt @ yt)

    def gradient(d):
        return 2.0 * (lam + beta) * lam * d - 2.0 * lam * yt

    theta_warm = [0.0]

    def constraint(d):
        return m * float(lam @ (d * d)) - chi

    def project(d):
        if constraint(d) <= 0.0:
            return d
        # Newton on the multiplier of min |c - d|^2 s.t. m c'(lam)c = chi,
        # warm-started from the previous projection's multiplier
        theta = max(theta_warm[0], 1e-12)
        for _ in range(100):
            w = 1.0 + theta * m * lam
            scaled = d / w
            phi = m * float(lam @ (scaled * scaled)) - chi
            if abs(phi) <= 1e-14 * chi:
                break
            dphi = -2.0 * m * m * float((lam * lam) @ (d * d / w ** 3))
            step = phi / dphi
            theta_new = theta - step
            if theta_new <= 0.0:
                theta_new = 0.5 * theta
            theta = theta_new
        theta_warm[0] = theta
        return d / (1.0 + theta * m * lam)

    L = 2.0 * float(np.max(lam) * (np.max(lam) + beta)) + 1e-12
    step = 1.0 / L
    x = np.zeros_like(yt)
    x_prev = x.copy()
    t_prev = 1.0
    best = x.copy()
    best_val = objective(x)
    stall = 0
    for _ in range(iterations):
        t = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev ** 2))
        z = x + ((t_prev - 1.0) / t) * (x - x_prev)
        x_next = project(z - step * gradient(z))
        val = objective(x_next)
        if val > best_val:  # restart momentum when acceleration overshoots
            t = 1.0
            x_next = project(x - step * gradient(x))
            val = objective(x_next)
        x_prev, x, t_prev = x, x_next, t
        if val < best_val - 1e-16 * max(1.0, abs(best_val)):
            best_val, best = val, x.copy()
            stall = 0
        else:
            stall += 1
            if stall > 200:
                break
    return Q @ best


def free_run_step_ratio(model, u, y_seed, y_train, d):
    """The largest ratio of ``dy_t^2`` to the mean of ``dy^2`` over the
    previous ``m`` steps, ``dy`` being the gap between two free runs of
    ``model`` under the input ``u``: one from ``y_seed``, one from
    ``y_seed + d std(y_train)``.  Windows whose mean squared gap is at or
    below ``(1e-6 d std(y_train))^2`` are roundoff and skipped; 0.0 when all
    are.  A deltaISS fit at rho = 0 with ``m c'Kc = mu`` keeps the ratio at
    most ``mu``: ``dy_t^2 <= (mu / m) sum_{i=1..m} dy_{t-i}^2``."""
    m = model.model_order
    shift = d * float(np.std(y_train))
    y_seed = np.asarray(y_seed, dtype=float)
    gap_sq = (simulate(model, u, y_seed) - simulate(model, u, y_seed + shift)) ** 2
    window = np.lib.stride_tricks.sliding_window_view(gap_sq[:-1], m).mean(axis=1)
    counted = window > (1e-6 * shift) ** 2
    return float(np.max(gap_sq[m:][counted] / window[counted], initial=0.0))
