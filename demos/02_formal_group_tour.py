#!/usr/bin/env python3
"""Build the averaged-binomial logarithm, certify its Frobenius property,
transport it to the multiplicative formal group, and solve for the
element epsilon with ell(epsilon) = p.
"""

from fractions import Fraction

from padiclab import CycloTower, HondaData, PrimeContext, check_honda, formal_add
from padiclab.honda import default_truncation, inverse_integrality

ctx = PrimeContext(3, prec=14)
order = default_truncation(ctx, 1)
print(f"building the logarithm to order {order} at p = 3 ...")
honda = HondaData.build(ctx, order)

print()
print("== the logarithm ell ==")
print("ell_1 =", honda.ell.coeff(1))
print("ell_2 + 1 vanishes:", (honda.ell.coeff(2) + 1).min_valuation() >= ctx.prec)
print("ell_3 - 5/6 vanishes:",
      (honda.ell.coeff(3) - ctx.scalar(Fraction(5, 6))).min_valuation() >= ctx.prec)

rep = check_honda(honda.ell)
print("derivative is a unit power series, min coefficient valuation:",
      rep["deriv_min_valuation"])
print("(frobenius - p) applied to ell lands in p Z_p[[X]], min valuation:",
      rep["frobenius_min_valuation"])

print()
print("== the exponential transport iota ==")
print("iota_2 = -1/2, as an integer mod 27:", honda.iota.coeff(2).lift() % 27)
print("iota_3 vanishes:", honda.iota.coeff(3).min_valuation() >= ctx.prec)
print("iota integral:", honda.iota.is_integral()[0],
      " inverse integral:", inverse_integrality(honda.iota) == 0)

print()
print("== epsilon ==")
print("epsilon =", honda.epsilon)
print("epsilon = p mod p^2:", (honda.epsilon - 3).min_valuation() >= 2)
resid = honda.ell.eval_scalar(honda.epsilon) - 3
print("ell(epsilon) - p vanishes to valuation", resid.min_valuation())

print()
print("== formal addition through iota ==")
tower = CycloTower(ctx, 1)
f = tower.field(1)
z = f.zeta() - f.one()
s = formal_add(z, f.from_scalar(honda.epsilon), honda, tower)
lhs = tower.eval_series(honda.ell, s)
rhs = tower.eval_series(honda.ell, z) + honda.ell.eval_scalar(honda.epsilon)
print("ell(x [+] y) = ell(x) + ell(y) to valuation", (lhs - rhs).min_valuation())
