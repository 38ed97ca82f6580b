"""
Logarithmic companions
======================

At integer alpha = m the second Frobenius solution degenerates and a
logarithm appears.  The companion :math:`\\mathbb{D}` collects the
non-logarithmic part: a finite principal part in 1/z and a power-series
tail.  Together, log(z) * F + D solves the homogeneous equation while D
alone solves an inhomogeneous one.
"""

from hyperd import DSpec, d_eval, d_expand, f_norm, log_solution
from hyperd.dfun import prepare_log_solution
from hyperd.oracle import inhom_residual, ode_residual

# %%
# Coefficient data.  The expansion object carries the pole order, the
# principal coefficients (d_{-1}, d_{-2}, ...) and a tail generator.

spec = DSpec("1f1", m=2, theta=0.7)
ex = d_expand(spec)
print("pole order:", ex.pole_order)
print("principal :", [c.real for c in ex.principal])
print("tail d0..d4:", [round(c.real, 12) for c in ex.tail_list(5)])

# %%
# Values.  d_eval sums the expansion with the same truncation control
# as the F series.

z = 0.5
print("D(0.5) =", d_eval(spec, z).value)

# %%
# The log solution w = log(z) F + D satisfies the homogeneous equation.
# A plain callable gets differentiated by finite differences; a prepared
# evaluator carries .jet(z, order), which supplies exact series
# derivatives instead.

print("w(0.5) =", log_solution(spec, z).value)

rep = ode_residual(lambda zz: log_solution(spec, zz).value, spec.params, z)
print("ode residual, finite differences:", rep.residual)
rep = ode_residual(prepare_log_solution(spec), spec.params, z)
print("ode residual, series derivatives:", rep.residual)

# %%
# D alone satisfies the inhomogeneous equation whose right-hand side is
# a polynomial multiple of F; the residual report checks that too.

print("inhomogeneous residual:", inhom_residual(spec, z).residual)

# %%
# Sanity: drop the companion and the residual is no longer small.

from hyperd.series import principal_log

rep = ode_residual(lambda zz: principal_log(zz) * f_norm(spec.params,
                                                         zz).value,
                   spec.params, z)
print("residual of log(z) F without D:", rep.residual)
