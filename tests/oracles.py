"""Independent reference computations backing the test suite.

Everything here is written from scratch against the defining formulas
(frequency integrals, fixed-step ODE integration, dense parameter scans,
plain-loop residue sums) and shares no code with the package, so each
test compares two routes that can only agree if both are right.
"""

import functools

import mpmath
import numpy as np
import scipy.integrate
import scipy.optimize
import scipy.special

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# plain-loop pole/residue evaluation


def pr_transfer(poles, left, right, s):
    """Sum_j l_j r_j^T / (s - mu_j) by explicit loop, one point."""
    poles = np.asarray(poles)
    left = np.asarray(left)
    right = np.asarray(right)
    acc = np.zeros((left.shape[1], right.shape[1]), dtype=complex)
    for j in range(len(poles)):
        acc += np.outer(left[j], right[j]) / (s - poles[j])
    return acc


def pr_impulse(poles, left, right, t_grid):
    """Undelayed impulse response sum_j l_j r_j^T e^{mu_j t}, (ny, nu, T)."""
    poles = np.asarray(poles)
    left = np.asarray(left)
    right = np.asarray(right)
    t = np.asarray(t_grid, dtype=float)
    out = np.zeros((left.shape[1], right.shape[1], t.size), dtype=complex)
    for j in range(len(poles)):
        out += np.outer(left[j], right[j])[:, :, None] * np.exp(poles[j] * t)
    assert np.max(np.abs(out.imag)) < 1e-9
    return out.real


def delayed_impulse(poles, left, right, tau_in, gam_out, t_grid):
    """Channel-wise shifted impulse: entry (m,l) uses t - gam_m - tau_l."""
    t = np.asarray(t_grid, dtype=float)
    ny = np.asarray(left).shape[1]
    nu = np.asarray(right).shape[1]
    out = np.zeros((ny, nu, t.size))
    for m in range(ny):
        for l in range(nu):
            ts = t - gam_out[m] - tau_in[l]
            live = ts >= 0.0
            lm = np.asarray(left)[:, m]
            rl = np.asarray(right)[:, l]
            val = np.zeros(ts.size, dtype=complex)
            for j in range(len(poles)):
                val[live] += lm[j] * rl[j] * np.exp(poles[j] * ts[live])
            assert np.max(np.abs(val.imag), initial=0.0) < 1e-9
            out[m, l] = val.real
    return out


def cross_inner(gp, gl, gr, hp, hl, hr, tau_in, gam_out):
    """<Delta_o H Delta_i, G>_H2 = sum_j ltil_j^T H(-mu_j) rtil_j by loops."""
    gp = np.asarray(gp)
    gl = np.asarray(gl)
    gr = np.asarray(gr)
    acc = 0.0 + 0.0j
    for j in range(len(gp)):
        ltil = gl[j] * np.exp(gp[j] * np.asarray(gam_out))
        rtil = gr[j] * np.exp(gp[j] * np.asarray(tau_in))
        acc += ltil @ pr_transfer(hp, hl, hr, -gp[j]) @ rtil
    assert abs(acc.imag) < 1e-8 * max(1.0, abs(acc.real))
    return acc.real


def h2_norm_sq_pr(poles, left, right):
    """||H||^2 = sum_k c_k^T H(-lambda_k) b_k by loops."""
    zeros_in = np.zeros(np.asarray(right).shape[1])
    zeros_out = np.zeros(np.asarray(left).shape[1])
    return cross_inner(poles, left, right, poles, left, right,
                       zeros_in, zeros_out)


def direct_pencil(poles, left, right, shifts, bdirs, cdirs, dps, pairs=()):
    """Projected IRKA pencil (E, A, B, C) by plain-loop contraction at ``dps``.

    Over the terms (mu_k, l_k, r_k), given as mpmath numbers or binary64:
    V_kj = (r_k . b_j) / (s_j - mu_k) and W_ki = (l_k . c_i) / (s_i - mu_k),
    then E = W^T V, A = W^T diag(mu) V, B = W^T R and C = L^T V. For each
    (k, kc) in ``pairs`` the columns k, kc of V and of W are first replaced
    by their half-sum and half-difference over i. Returns complex128 arrays.
    """
    with mpmath.workdps(dps):
        mpc = mpmath.mpc
        mu = [mpc(p) for p in poles]
        L = [[mpc(v) for v in row] for row in left]
        R = [[mpc(v) for v in row] for row in right]
        s = [mpc(v) for v in shifts]
        b = [[mpc(v) for v in row] for row in bdirs]
        c = [[mpc(v) for v in row] for row in cdirs]
        N, n, ny, nu = len(mu), len(s), len(L[0]), len(R[0])
        V = [[sum(R[k][l] * b[j][l] for l in range(nu)) / (s[j] - mu[k])
              for j in range(n)] for k in range(N)]
        W = [[sum(L[k][m] * c[i][m] for m in range(ny)) / (s[i] - mu[k])
              for i in range(n)] for k in range(N)]
        for k, kc in pairs:
            for X in (V, W):
                for row in X:
                    a, z = row[k], row[kc]
                    row[k], row[kc] = (a + z) / 2, (a - z) / mpc(0, 2)
        E = [[sum(W[k][i] * V[k][j] for k in range(N)) for j in range(n)]
             for i in range(n)]
        A = [[sum(W[k][i] * mu[k] * V[k][j] for k in range(N)) for j in range(n)]
             for i in range(n)]
        B = [[sum(W[k][i] * R[k][l] for k in range(N)) for l in range(nu)]
             for i in range(n)]
        C = [[sum(L[k][m] * V[k][j] for k in range(N)) for j in range(n)]
             for m in range(ny)]
        return [np.array([[complex(v) for v in row] for row in M])
                for M in (E, A, B, C)]


# ---------------------------------------------------------------------------
# frequency-domain quadrature (Simpson on a symmetric grid)


def freq_grid(omega_max=1e4, n_points=2_000_001):
    return np.linspace(-omega_max, omega_max, n_points)


def transfer_on_grid(poles, left, right, omega):
    """Vectorized pole/residue transfer samples G(i omega), (P, ny, nu)."""
    poles = np.asarray(poles)
    left = np.asarray(left)
    right = np.asarray(right)
    denom = 1.0 / (1j * omega[:, None] - poles[None, :])
    return np.einsum("pj,jm,jl->pml", denom, left, right)


def _delayed_sq_norm(h, omega):
    """||H(i omega)||_F^2 of a float (possibly delayed) model on a grid.

    Delay phase factors are applied entry-wise before the Frobenius norm,
    so delayed and undelayed models agree only up to rounding.
    """
    core = getattr(h, "core", h)
    delayed = core is not h
    gam = np.asarray(h.output_delays.delays if delayed else np.zeros(core.ny))
    tau = np.asarray(h.input_delays.delays if delayed else np.zeros(core.nu))
    vals = transfer_on_grid(core.poles, core.left, core.right, omega)
    phase = np.exp(-1j * np.einsum("p,m->pm", omega, gam))[:, :, None] \
        * np.exp(-1j * np.einsum("p,l->pl", omega, tau))[:, None, :]
    return np.sum(np.abs(vals * phase) ** 2, axis=(1, 2))


def h2_norm_quadrature(h, omega_max=1e4, n_points=2_000_001, chunk=1 << 16):
    """Composite-Simpson frequency quadrature of a float model's H2 norm.

    ``h`` is a pole/residue model or a delayed one. O(domega^4) rule plus a
    1/omega tail truncation error. The grid is swept in chunks of ``chunk``
    points to bound memory.
    """
    omega = np.linspace(-float(omega_max), float(omega_max), int(n_points))
    integrand = np.empty(omega.size)
    for lo in range(0, omega.size, chunk):
        w = omega[lo:lo + chunk]
        integrand[lo:lo + w.size] = _delayed_sq_norm(h, w)
    val = scipy.integrate.simpson(integrand, x=omega) / TWO_PI
    return float(np.sqrt(max(val, 0.0)))


@functools.lru_cache(maxsize=None)
def _legendre(n_nodes):
    return scipy.special.roots_legendre(n_nodes)


def h2_norm_gauss(h, n_nodes=4000):
    """Gauss-Legendre frequency quadrature of a float model's H2 norm.

    ``h`` is a pole/residue model or a delayed one. The whole axis maps onto
    theta in (-pi/2, pi/2) by omega = tan(theta), where the integrand
    ||H(i tan theta)||_F^2 sec^2(theta) stays bounded (the 1/omega^2 tail
    meets sec^2), so no tail is truncated; ``n_nodes`` Legendre nodes
    integrate it.
    """
    x, w = _legendre(int(n_nodes))
    theta = 0.5 * np.pi * x
    integrand = _delayed_sq_norm(h, np.tan(theta)) / np.cos(theta) ** 2
    val = 0.5 * np.pi * float(w @ integrand) / TWO_PI
    return float(np.sqrt(max(val, 0.0)))


def gauss_panels(a, b, width=0.5, n_nodes=20):
    """Composite Gauss-Legendre nodes and weights on [a, b]: ``n_nodes`` per
    panel, panels of equal length at most ``width``."""
    x, w = _legendre(int(n_nodes))
    edges = np.linspace(a, b, max(1, int(np.ceil((b - a) / width))) + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def cross_time_gauss(g, hd, n_slow=40, width=0.5, n_nodes=20):
    """<delayed model hd, g>_H2 as a time integral of impulse responses.

    sum over channel pairs (m, l) of int h_ml(t - gam_m - tau_l) g_ml(t) dt,
    both responses from the plain-loop :func:`pr_impulse`. Each pair's
    integrand is smooth from its path delay on, where the integration starts,
    and it runs ``n_slow`` slowest time constants of either model past it
    on :func:`gauss_panels`, so the truncated tail is below e^-n_slow.
    """
    core = hd.core
    tau, gam = hd.input_delays.delays, hd.output_delays.delays
    slow = 1.0 / min(np.min(-g.poles.real), np.min(-core.poles.real))
    total = 0.0
    for m in range(g.ny):
        for l in range(g.nu):
            d = gam[m] + tau[l]
            t, w = gauss_panels(d, d + n_slow * slow, width, n_nodes)
            gv = pr_impulse(g.poles, g.left, g.right, t)[m, l]
            hv = pr_impulse(core.poles, core.left, core.right, t - d)[m, l]
            total += float(w @ (gv * hv))
    return total


def simpson_norm_sq(samples, omega):
    """(1/2pi) int ||G(i w)||_F^2 dw from transfer samples (P, ny, nu)."""
    f = np.sum(np.abs(samples) ** 2, axis=(1, 2))
    return scipy.integrate.simpson(f, x=omega) / TWO_PI


def simpson_cross(g_samples, h_samples, omega, tau_in=None, gam_out=None):
    """(1/2pi) int tr(G(i w)^H Delta_o H Delta_i) dw, real part."""
    hd = h_samples
    if gam_out is not None:
        hd = hd * np.exp(-1j * omega[:, None] * np.asarray(gam_out))[:, :, None]
    if tau_in is not None:
        hd = hd * np.exp(-1j * omega[:, None] * np.asarray(tau_in))[:, None, :]
    f = np.einsum("pml,pml->p", np.conj(g_samples), hd)
    val = scipy.integrate.simpson(f, x=omega) / TWO_PI
    return val.real


# ---------------------------------------------------------------------------
# product-form evaluation of the cascade benchmark G(s) = prod mu_j/(s - mu_j)


def product_transfer(mu, s):
    """Well-conditioned product evaluation, vectorized over s."""
    mu = np.asarray(mu, dtype=complex)
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    out = np.ones(s.shape, dtype=complex)
    for m in mu:
        out *= m / (s - m)
    return out


def cascade_residues_mpmath(order, dps_build=60, dps_store=50):
    """Partial-fraction residues of the cascade benchmark, built in mpmath.

    mu = linspace(-2, -1, order) in binary64; psi_k = prod_j mu_j /
    prod_{j != k} (mu_k - mu_j) is evaluated at ``dps_build`` digits.
    Returns (mu, stored, floats): mu as mpmath numbers, each psi_k rounded
    to ``dps_store`` digits, and each psi_k rounded to binary64 from its
    ``dps_build``-digit value.
    """
    mu_f = np.linspace(-2.0, -1.0, order)
    with mpmath.workdps(dps_build):
        mu = [mpmath.mpf(float(v)) for v in mu_f]
        top = mpmath.fprod(mu)
        psi = [top / mpmath.fprod([mu[k] - mu[j] for j in range(order) if j != k])
               for k in range(order)]
    with mpmath.workdps(dps_store):
        stored = [+p for p in psi]
    return mu, stored, [float(p) for p in psi]


def cascade_gap_sq(mu, poles, left, right, delay=0.0, omega=None):
    """(1/2pi) int |G(i w) - e^{-i w delay} H(i w)|^2 dw by Simpson.

    G is the SISO cascade prod mu_j/(s - mu_j) sampled in product form, so
    its ill-conditioned partial-fraction expansion never enters; H is a SISO
    pole/residue core and ``delay`` its total input + output delay. The
    default grid is freq_grid(); the truncated tail is about
    |sum_j l_j r_j|^2 / (pi omega_max), a lower-bound bias.
    """
    omega = freq_grid() if omega is None else omega
    assert np.asarray(left).shape[1] == 1 and np.asarray(right).shape[1] == 1
    gs = product_transfer(mu, 1j * omega)
    hs = transfer_on_grid(poles, left, right, omega)[:, 0, 0]
    f = np.abs(gs - hs * np.exp(-1j * omega * delay)) ** 2
    return scipy.integrate.simpson(f, x=omega) / TWO_PI


def cascade_ss(mu):
    """State-space cascade of the first-order sections mu/(s - mu).

    Section j: x_j' = mu_j x_j + mu_j u_j with u_1 = u, u_j = x_{j-1};
    the realization is real bidiagonal and well conditioned, unlike the
    partial-fraction (diagonal) basis.
    """
    mu = np.asarray(mu, dtype=float)
    n = mu.size
    A = np.diag(mu)
    for j in range(1, n):
        A[j, j - 1] = mu[j]
    B = np.zeros((n, 1))
    B[0, 0] = mu[0]
    C = np.zeros((1, n))
    C[0, -1] = 1.0
    return A, B, C


def rk4_impulse(A, B, C, t_grid, substeps=8, E=None):
    """Fixed-step RK4 for E x' = A x, x(0) = E^{-1} B, sampled on t_grid."""
    M = A if E is None else np.linalg.solve(E, A)
    x = np.linalg.solve(E, B) if E is not None else B.astype(float).copy()
    t_grid = np.asarray(t_grid, dtype=float)
    ys = np.empty((t_grid.size, C.shape[0], B.shape[1]))
    t = t_grid[0]
    if t != 0.0:
        raise ValueError("grid must start at 0")
    ys[0] = C @ x
    for i in range(1, t_grid.size):
        h = (t_grid[i] - t_grid[i - 1]) / substeps
        for _ in range(substeps):
            k1 = M @ x
            k2 = M @ (x + 0.5 * h * k1)
            k3 = M @ (x + 0.5 * h * k2)
            k4 = M @ (x + h * k3)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        ys[i] = C @ x
    return np.moveaxis(ys, 0, -1)


# ---------------------------------------------------------------------------
# finite-difference gradients of the H2 gap (pair-aware, central differences)
#
# Convention checked against the analytic formulas: the gap is polynomial in
# the reduced parameters, so with the conjugate-closure constraint (the
# partner of every complex term is perturbed conjugately) the derivative of
# the gap in the Re/Im coordinates of a pair representative is
#   d/dRe = 2 Re(grad),   d/dIm = -2 Im(grad),
# and for a real (self-conjugate) term simply d/dRe = grad.


def conj_partner(poles, k, tol=1e-12):
    """Index of the conjugate partner of term k, or None for a real pole."""
    if abs(poles[k].imag) < tol:
        return None
    j = int(np.argmin(np.abs(poles - np.conj(poles[k]))))
    assert j != k
    return j


def fd_delay_grad(gap_fn, tau_in, gam_out, eps=1e-6):
    """Central differences of gap_fn(tau_in, gam_out) in every coordinate."""
    tau_in = np.asarray(tau_in, dtype=float)
    gam_out = np.asarray(gam_out, dtype=float)
    g_in = np.zeros(tau_in.size)
    g_out = np.zeros(gam_out.size)
    for l in range(tau_in.size):
        dp = tau_in.copy()
        dm = tau_in.copy()
        dp[l] += eps
        dm[l] = max(dm[l] - eps, 0.0)
        g_in[l] = (gap_fn(dp, gam_out) - gap_fn(dm, gam_out)) / (dp[l] - dm[l])
    for m in range(gam_out.size):
        dp = gam_out.copy()
        dm = gam_out.copy()
        dp[m] += eps
        dm[m] = max(dm[m] - eps, 0.0)
        g_out[m] = (gap_fn(tau_in, dp) - gap_fn(tau_in, dm)) / (dp[m] - dm[m])
    return g_in, g_out


def fd_complex_grad(f, arr, poles, eps=1e-6):
    """Reconstruct the complex gradient array of f from central differences.

    f maps a complex parameter array (same leading length as poles) to the
    real gap; entries belonging to a conjugate pair are perturbed jointly so
    every evaluation stays conjugate-closed.
    """
    arr = np.asarray(arr, dtype=complex)
    out = np.zeros(arr.shape, dtype=complex)
    flat_idx = [(k,) + rest for k in range(arr.shape[0])
                for rest in np.ndindex(arr.shape[1:])]
    for idx in flat_idx:
        k = idx[0]
        kp = conj_partner(poles, k)
        if kp is not None and kp < k:
            continue

        def perturb(delta, idx=idx, kp=kp):
            ap = arr.copy()
            am = arr.copy()
            ap[idx] += delta
            am[idx] -= delta
            if kp is not None:
                pidx = (kp,) + idx[1:]
                ap[pidx] += np.conj(delta)
                am[pidx] -= np.conj(delta)
            return (f(ap) - f(am)) / (2.0 * eps)

        d_re = perturb(eps)
        if kp is None:
            out[idx] = d_re
        else:
            d_im = perturb(1j * eps)
            # d/dRe = 2 Re(grad), d/dIm = -2 Im(grad)
            out[idx] = 0.5 * d_re - 0.5j * d_im
            out[(kp,) + idx[1:]] = np.conj(out[idx])
    return out


# ---------------------------------------------------------------------------
# brute-force order-2 reduction of a SISO model (oracle for the IRKA result)
#
# For fixed reduced poles the gap is a positive quadratic in the residues, so
# the optimal residues solve the 2x2 Cauchy system
#   sum_k' phi_k' / (-lam_k - lam_k') = G(-lam_k),
# and the resulting gap is ||G||^2 - rhs^T M^{-1} rhs. The outer search over
# the pole pair is a dense scan plus Nelder-Mead refinement, run on both the
# complex-pair and the two-real-poles branches.


def _gap_given_poles(lam, gp, gl, gr, gns):
    lam = np.asarray(lam, dtype=complex)
    M = 1.0 / (-lam[:, None] - lam[None, :])
    rhs = np.array([pr_transfer(gp, gl, gr, -lk)[0, 0] for lk in lam])
    try:
        phi = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return np.inf, None
    val = gns - float(np.real(rhs @ phi))
    return val, phi


def brute_force_reduce_n2(gp, gl, gr, gns, grid=90):
    """Best order-2 gap over all stable real reduced models, by dense scan."""
    xs = np.geomspace(0.05, 6.0, grid)
    best = (np.inf, None, None)

    def eval_pair(x, y):
        lam = np.array([-x + 1j * y, -x - 1j * y])
        val, phi = _gap_given_poles(lam, gp, gl, gr, gns)
        return val, lam, phi

    def eval_reals(x, y):
        if abs(x - y) < 1e-9:
            return np.inf, None, None
        lam = np.array([-x + 0j, -y + 0j])
        val, phi = _gap_given_poles(lam, gp, gl, gr, gns)
        return val, lam, phi

    for x in xs:
        for y in xs:
            for ev in (eval_pair, eval_reals):
                val, lam, phi = ev(x, y)
                if val < best[0]:
                    best = (val, lam, phi)

    x0 = np.array([-best[1][0].real, abs(best[1][0].imag)])
    two_real = abs(best[1][0].imag) < 1e-12
    if two_real:
        x0 = np.array([-best[1][0].real, -best[1][1].real])

    def objective(v):
        x, y = v
        if x <= 0 or y <= 0:
            return np.inf
        ev = eval_reals if two_real else eval_pair
        return ev(x, y)[0]

    res = scipy.optimize.minimize(objective, x0, method="Nelder-Mead",
                                  options={"xatol": 1e-12, "fatol": 1e-15,
                                           "maxiter": 4000})
    val = float(res.fun)
    return min(val, best[0])
