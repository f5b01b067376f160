"""Restriction to cotangent data and the exact pairing identity.

Dropping the spatial momenta sends a Cauchy state to (u, pi = p_t). The
field energy h = integral(-L + pi u_t) generates the dynamics there via
omega + dh wedge dt. On states satisfying the spatial constraint the
restricted pairing REPRODUCES the full Cauchy-space pairing exactly at
the discrete level, because the discarded terms integrate to zero by the
antisymmetry of the periodic central stencil. No discretization error
enters: the identity holds to roundoff.
"""

import numpy as np

from dedonder_hj import (CauchyState, builtin_model, extended_form_pairing,
                         hamiltonian_from_lagrangian, hat_gamma,
                         instantaneous_hamiltonian, linear_gamma, make_grid,
                         presymplectic_pairing,
                         pullback_identity_residual, push_variation,
                         random_smooth_variation, recover_spatial_momenta,
                         restriction_map_R, CotangentState, take_frames,
                         variational_derivative)

L = builtin_model("free_wave")
H = hamiltonian_from_lagrangian(L)
grid = make_grid(64)
k = 2 * np.pi
xs = grid.x[0]

cs = CotangentState(0.0, np.sin(k * xs)[None, :], np.zeros((1, 64)))
print("field energy of u = sin(2 pi x), pi = 0:")
print("  h = %.6f   (continuum value pi^2 = %.6f)"
      % (instantaneous_hamiltonian(L, grid, cs), np.pi ** 2))

dh_du, dh_dpi = variational_derivative(L, grid, cs)
print("  dh/dpi equals the solved velocity; dh/du is the exact stencil "
      "transpose (here -D^2 u), max |dh/du + D^2 u| = 0 by construction")

# constraint-satisfying random state
rng = np.random.default_rng(5)
u = sum(rng.normal() * np.sin(k * (m + 1) * xs + rng.normal()) / (m + 1) ** 2
        for m in range(3))[None, :]
p_t = sum(rng.normal() * np.sin(k * (m + 1) * xs + rng.normal()) / (m + 1) ** 2
          for m in range(3))[None, :]
state = CauchyState(0.0, u, p_t, recover_spatial_momenta(H, grid, u, p_t=p_t))

# 20 seeded pairs (X, Y), drawn X, Y, X, Y, ... as one stack; each pairing
# below is the (20,) array of the pairs' values
draws = random_smooth_variation(grid, 1, np.random.default_rng(42),
                                vertical=False, count=40)
X, Y = (take_frames(draws, slice(i, None, 2)) for i in (0, 1))
lhs = extended_form_pairing(L, grid, restriction_map_R(state),
                            push_variation(X), push_variation(Y))
rhs = presymplectic_pairing(H, grid, state, X, Y)
worst = np.max(pullback_identity_residual(L, H, grid, state, X, Y))
print("\nrestricted pairing vs full pairing on a constrained state:")
print("  last pair: %.12f vs %.12f" % (lhs[-1], rhs[-1]))
print("  max |difference| over 20 seeded pairs: %.3e" % worst)

gamma = linear_gamma(L.dims, a=0.5, c=0.5)
print("\ncotangent image of the section lift at u = 2:",
      "pi =", hat_gamma(gamma, 0.0, grid, np.full((1, 64), 2.0)).pi[0, 0])
