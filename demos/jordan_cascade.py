"""Boundary-controlled cascade with Jordan chains.

The coupling integral I_k both feeds the generalized eigenfunction and
bounds the horizon profile.  Each mode needs two dual profiles (plain and
t-weighted exponential); the coefficients solve a triangular 2x2 system
per mode, and the generalized moment equations are verified in closed
form.
"""

from nullcontrol import (
    PiecewiseConstant,
    cascade_boundary_q,
    synthesize,
    tstar_jordan_profile,
    verify_moments,
)

q = PiecewiseConstant(((0.2, 0.8, 1.0),))
model = cascade_boundary_q(q, y0_rule=lambda k, i: 1.0 / k if i == 1 else 1.0 / k**2)

print("mode data (coupling mu_k = I_k(q), branch ratio gamma_k):")
for m in model.modes(8):
    print(f"  k={m.k}: lam {m.lam.real:9.3f}  mu {m.mu.real:+.5f}  "
          f"gamma {m.gamma.real:+.5f}  obs1 {m.obs[0].value:.4f}")

plan = synthesize(model, T=0.5, N=8)
report = verify_moments(plan)
print(f"\ngeneralized moment residual max: {report.max_abs:.2e}")
print(f"tail bound beyond N = 8:         {report.tail_bound:.2e}")
print(f"control L2 norm:                 {plan.total_norm:.6f}")

prof = tstar_jordan_profile(model, 40)
print(f"\nhorizon profile from |mu_k| decay: tail {prof.tail_estimate:.4f}"
      "\n(polynomially small coupling: no positive minimal horizon here)")
