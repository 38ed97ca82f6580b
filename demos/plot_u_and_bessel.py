"""
Infinity-normalized solutions and Bessel reductions
===================================================

U is the solution singled out by its behavior at infinity (the Tricomi
function in the confluent case, DLMF 13.2.6).  Away from integer alpha
it is a combination of the two Frobenius solutions; at integer alpha
that combination is 0/0 and the limit produces the log + D form.  Both
routes are implemented and must agree.
"""

import math

from hyperd import F1, URoute, bessel, u1, u2
from hyperd.oracle import limit_alpha

# %%
# Generic alpha: the connection route is the natural one.

print("U(theta=0.7, alpha=0.4; 0.6) =",
      u1(0.7, 0.4, 0.6, URoute.CONNECTION).value)

# %%
# Integer alpha: the connection route divides by sin(pi alpha) and is
# useless, the log route takes over.  The default picks per parameter.

z = 0.6
for route in (URoute.LOG_PLUS_D, None):
    r = u1(0.7, 2, z, route)
    print("m = 2 route=%-10s U = %.15g" % (route, r.value.real))

# %%
# The two must be consistent: walking alpha -> m along the connection
# route and extrapolating reproduces the log-route value.

lim = limit_alpha(F1(theta=0.7, alpha=2), z)
direct = u1(0.7, 2, z, URoute.LOG_PLUS_D)
print("extrapolated:", lim.value)
print("direct      :", direct.value)
print("difference  :", abs(lim.value - direct.value))

# %%
# Gauss case, off the cut [0, inf).

print("U(m=1, beta=0.3, mu=0.2; -0.4) =", u2(1, 0.3, 0.2, -0.4).value)

# %%
# Bessel reductions.  Macdonald K comes from U of the 0f1 kernel,
# I and J from F, and the Hankel pair from the two U branches.
# H1 + H2 = 2 J is a three-route consistency check (DLMF 10.4.4).

print("K_0(1) =", bessel("K", 0, 1.0).value.real,
      "  (A&S 9.6.21 integral gives 0.42102443824070834)")
print("I_1(0.8) =", bessel("I", 1, 0.8).value.real)

z = complex(0.8, 0.5)
h = bessel("H1", 1, z).value + bessel("H2", 1, z).value
j = bessel("J", 1, z).value
print("|H1 + H2 - 2J| =", abs(h - 2 * j))

# %%
# The classical small-argument behavior K_0(x) ~ -log(x/2) - gamma
# falls straight out of the log + D structure.

x = 1e-3
print("K_0(%.0e) =" % x, bessel("K", 0, x).value.real)
print("-log(x/2) - gamma =", -math.log(x / 2) - 0.5772156649015329)
