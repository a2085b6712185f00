"""One pass of the whole pipeline at p = 7: nothing in the tower, the
points, the Hilbert-90 solve or the derivative chain is allowed to
depend on accidents of the two grid primes."""

from padiclab import (
    CycloTower,
    HondaData,
    PrimeContext,
    TateParameter,
    UnitFunctional,
    build_points,
    coleman_level,
    derivative_rep,
    primitive_characters,
    solve_h90,
    verify_char_sum,
    verify_dcol,
    verify_generation,
    verify_log_formula,
    verify_norm_tower,
    verify_prop2,
    verify_trivial_zero,
)
from padiclab.honda import default_truncation


def test_pipeline_at_p7():
    ctx = PrimeContext(7, 8, guard=14)
    tower = CycloTower(ctx, 1)
    honda = HondaData.build(ctx, default_truncation(ctx, 1))
    fam = build_points(honda, tower, 1)
    assert (fam.d[0] - tower.field(0).one()).min_valuation() >= ctx.prec
    assert verify_norm_tower(fam)["norm_residuals"][1] >= ctx.prec - 2
    assert verify_log_formula(fam, 1)["log_residual"] >= ctx.prec - 2
    assert verify_generation(fam, 1)["index_valuation"] == 0
    sol = solve_h90(fam, 1)
    assert verify_prop2(sol, tower)["residual_valuation"] >= 2
    q = TateParameter.make(ctx, 1, 8)
    w = UnitFunctional.seeded(tower, 1, q, 0)
    assert verify_trivial_zero(coleman_level(w, fam, 1)) >= ctx.prec - 2
    _, rep = derivative_rep(w, sol, coleman_level(w, fam, 1))
    assert rep["abel_residual"] >= ctx.prec - 2
    dc = verify_dcol(w, sol, q)
    assert dc["residual_valuation"] >= dc["modulus_exponent"]
    chi = primitive_characters(tower, 1)[0]
    assert verify_char_sum(fam, chi) >= ctx.prec - 2
