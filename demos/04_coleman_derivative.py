#!/usr/bin/env python3
"""The finite-level maps in the reciprocity-functional model: trivial
zero, convolution shape, Gauss sums, and the derivative chain down to
the assembled leading-coefficient congruence, plus the documented
negative control at level 2.
"""

from fractions import Fraction

from padiclab import (
    CycloTower,
    HondaData,
    PrimeContext,
    TateParameter,
    UnitFunctional,
    build_points,
    coleman_level,
    derivative_rep,
    negative_control,
    primitive_characters,
    solve_h90,
    verify_char_sum,
    verify_convolution,
    verify_dcol,
    verify_key2,
    verify_trivial_zero,
)
from padiclab.honda import default_truncation

ctx = PrimeContext(3, prec=12)
tower = CycloTower(ctx, 2)
honda = HondaData.build(ctx, default_truncation(ctx, 2))
fam = build_points(honda, tower, 2)
q = TateParameter.make(ctx, 1, 4)  # q = 3 * 4, the split multiplicative period
print("log_3(q) mod 27 =", q.log.lift() % 27)

print()
print("== an admissible functional with density 1 at level 0 ==")
w = UnitFunctional.from_top_density(
    tower, tower.field(1).from_scalar(Fraction(1, 3)), q
)
print("E_0 =", w.e0().lift() % 27, "  alpha mod 27 =", w.alpha.lift() % 27,
      " (the constraint alpha = -E_0 log q / ord q)")

col = coleman_level(w, fam, 1)
print("trivial zero (augmentation vanishes) to valuation:", verify_trivial_zero(col))
print("convolution identity to valuation:", verify_convolution(w, fam, col))

print()
print("== Gauss sums ==")
for chi in primitive_characters(tower, 1):
    print(f"character a={chi.a}: sum log(d^sigma) chi(sigma) = tau(chi) "
          f"to valuation {verify_char_sum(fam, chi)}")

print()
print("== the derivative chain ==")
sol = solve_h90(fam, 1)
d_1, rep = derivative_rep(w, sol, col)
print("Abel summation identity exact to valuation:", rep["abel_residual"])
print("D_1 = -e_1 alpha:", d_1.lift() % 27, "mod 27  (e_1 =", sol.e, ")")
print("valuation-slope identity to valuation:", verify_key2(w, q))
dc = verify_dcol(w, sol, q)
print("assembled congruence holds mod p^", dc["modulus_exponent"],
      " residual valuation:", dc["residual_valuation"])

print()
print("== the negative control at level 2 ==")
sol2 = solve_h90(fam, 2)
nc = negative_control(fam, sol2, q)
print("trace-type family: lift derivative", nc["lift_derivative"],
      " vs D_2", nc["derivative"])
print("mod-p^2 comparison violated as documented:", nc["violated"],
      " (difference valuation", nc["difference_valuation"], ")")
