"""A K_n element is one packed integer vector at one precision.

Every operation must give, in (v, unit, absprec), what the coordinatewise
rule gives: ``PadicScalar`` arithmetic on the coordinates, cut to their
least absprec; products, powers and the Galois action by the packed
convolution on (denominator, precision, ints) triples, here a schoolbook
loop that shares no code with the product kernel, folded by the
cyclotomic relation itself.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from padiclab import CycloTower, InvalidInputError, PrecisionError, PrimeContext
from padiclab.core import PadicScalar
from padiclab.series import _pack, _unpack

CONFIGS = [(3, 1), (5, 1), (7, 1), (3, 2)]


def _triples(coords):
    return [(c.v, c.unit, c.absprec) for c in coords]


def _cut(coords):
    """Test-only oracle: the coordinates at their least absprec."""
    least = min(c.absprec for c in coords)
    return [c.reduce_absprec(least) for c in coords]


def _fold(f, ints, a=1):
    """Test-only oracle: sum_j ints[j] zeta^(a j) on the power basis, by
    zeta^(p^n (p-1)) = -(1 + zeta^(p^n) + ... + zeta^((p-2) p^n)), applied
    from the top degree down."""
    p, pn, d = f.ctx.p, f.ctx.p**f.n, f.degree
    poly = [0] * f.modulus_order
    for j, c in enumerate(ints):
        poly[a * j % f.modulus_order] += c
    for k in range(len(poly) - 1, d - 1, -1):
        c, poly[k] = poly[k], 0
        for i in range(p - 1):
            poly[k - d + i * pn] -= c
    return poly[:d]


def _product(f, A, B):
    """Test-only oracle: the packed product of two triples by the
    schoolbook double loop, at scale D_A + D_B and value precision
    min(E_A - D_A - D_B, E_B - D_B - D_A), folded."""
    (da, ea, a), (db, eb, b) = A, B
    value_prec = min(ea - da - db, eb - db - da)
    if value_prec + da + db <= 0:
        raise PrecisionError("product below zero precision")
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    e = value_prec + da + db
    return da + db, e, [c % f.ctx.pk(e) for c in _fold(f, conv)]


def _power(x, k):
    """Test-only oracle: x^k by square-and-multiply on raw triples."""
    f = x.field
    if k == 0:
        a = x.coords[0].absprec
        return [f.ctx.one(a)] + [f.ctx.zero(a)] * (f.degree - 1)
    base, result = _pack(x.coords), None
    while k:
        if k & 1:
            result = base if result is None else _product(f, result, base)
        k >>= 1
        if k:
            base = _product(f, base, base)
    return _unpack(f.ctx, *result)


def _trace(x):
    """Test-only oracle: sum_j x_j Tr(zeta^j), coordinatewise."""
    f, ctx = x.field, x.ctx
    pn = ctx.p**f.n
    acc = ctx.zero(x.coords[0].absprec)
    for j, c in enumerate(x.coords):
        t = f.degree if j == 0 else (-pn if j % pn == 0 else 0)
        if t:
            acc = acc + c * t
    return acc


def _valuation(x):
    """Test-only oracle: min over i of v(c_i) + i/d, x = sum c_i (zeta-1)^i,
    with c_i = sum_j C(j, i) x_j in PadicScalar arithmetic."""
    d = x.field.degree
    keys = []
    for i in range(d):
        c = x.ctx.zero(x.coords[0].absprec)
        for j in range(i, d):
            c = c + x.coords[j] * comb(j, i)
        if not c.is_zero:
            keys.append(Fraction(c.v) + Fraction(i, d))
    return min(keys) if keys else None


def _residue(x):
    """Test-only oracle: the sum of the coordinates' residues mod p; a
    coordinate of negative valuation has none."""
    p = x.ctx.p
    if any(not c.is_zero and c.v < 0 for c in x.coords):
        raise InvalidInputError("negative valuation has no residue")
    return sum(c.unit for c in x.coords if not c.is_zero and c.v == 0) % p


def _outcome(thunk):
    """Coordinates in (v, unit, absprec), or the class of the error."""
    try:
        r = thunk()
    except (PrecisionError, InvalidInputError) as exc:
        return type(exc)
    return _triples(r) if isinstance(r, (list, tuple)) else r


def _elements(p, n):
    """Seeded elements of K_n: ragged absprecs, denominators up to p^3,
    zero coordinates, and a few special ones."""
    ctx = PrimeContext(p, 12)
    tower = CycloTower(ctx, n)
    f = tower.field(n)
    rng = random.Random(1000 * p + n)
    out = []
    for _ in range(4):
        coords = []
        for _ in range(f.degree):
            a = 14 + rng.randrange(16)
            kind = rng.randrange(5)
            if kind == 0:
                coords.append(ctx.zero(a))
            elif kind == 1:
                value = Fraction(rng.randrange(1, p**a), p ** rng.randrange(4))
                coords.append(ctx.scalar(value, a))
            else:
                coords.append(ctx.scalar(rng.randrange(p**a), a))
        out.append(f.from_coords(coords))
    z1 = f.zeta() - f.one()
    out += [f.zero(20), z1, z1.scale(Fraction(1, p**2)), f.one() + z1.scale(p)]
    # a product whose denominator p^2 cancels, and a base whose square
    # (zeta-1)^(2d-2)/p^4 has every coordinate divisible by p
    out += [z1.scale(Fraction(1, p**2)) * p**2, (z1 ** (f.degree - 1)).scale(Fraction(1, p**2))]
    return tower, f, rng, out


@pytest.mark.parametrize("p, n", CONFIGS)
def test_linear_operations_match_the_coordinatewise_rule(p, n):
    tower, f, rng, xs = _elements(p, n)
    ctx = tower.ctx
    scalars = [
        3,
        0,
        7 * p**2,
        Fraction(2, p**3),
        ctx.scalar(rng.randrange(1, p**20) * p, 18),
        ctx.scalar(Fraction(rng.randrange(1, p**20), p), 15),
        ctx.zero(9),
    ]
    for x in xs:
        assert _triples((-x).coords) == _triples(_cut([-c for c in x.coords]))
        for s in scalars:
            expected = _cut([c * s for c in x.coords])
            assert _triples(x.scale(s).coords) == _triples(expected)
        for y in xs:
            pairs = zip(x.coords, y.coords)
            assert _triples((x + y).coords) == _triples(_cut([a + b for a, b in pairs]))
            pairs = zip(x.coords, y.coords)
            assert _triples((x - y).coords) == _triples(_cut([a - b for a, b in pairs]))


@pytest.mark.parametrize("p, n", CONFIGS)
def test_products_powers_and_galois_match_the_packed_rule(p, n):
    _, f, _, xs = _elements(p, n)
    exponents = [a for a in (2, f.modulus_order - 1, 1 + p) if a % p]
    for x in xs:
        for y in xs:
            packed = _pack(x.coords), _pack(y.coords)
            expected = _outcome(lambda: _unpack(f.ctx, *_product(f, *packed)))
            assert _outcome(lambda: (x * y).coords) == expected
        for k in (0, 1, 2, 7, f.degree):
            assert _outcome(lambda: (x**k).coords) == _outcome(lambda: _power(x, k))
        for a in exponents:
            d, e, ints = _pack(x.coords)
            expected = _unpack(f.ctx, d, e, [c % f.ctx.pk(e) for c in _fold(f, ints, a)])
            assert _triples(x.galois(a).coords) == _triples(expected)


@pytest.mark.parametrize("p, n", CONFIGS)
def test_invariants_match_the_coordinatewise_rule(p, n):
    _, f, _, xs = _elements(p, n)
    for x in xs:
        t, expected = x.trace_to_qp(), _trace(x)
        assert (t.v, t.unit, t.absprec) == (expected.v, expected.unit, expected.absprec)
        assert x.min_valuation() == Fraction(min(c.min_valuation() for c in x.coords))
        assert x.valuation() == _valuation(x)
        assert _outcome(x.residue) == _outcome(lambda: _residue(x))


@pytest.mark.parametrize("p, n", CONFIGS)
def test_restrict_and_scalar_part_match_the_coordinatewise_rule(p, n):
    tower, f, rng, xs = _elements(p, n)
    ctx = tower.ctx
    thr = ctx.identity_floor
    for x in xs:
        for m in range(n + 1):
            step = p ** (n - m)
            # x itself rarely descends; its part on the multiples of step
            # does with a tail at valuation thr, and does not with thr - 1
            tails = [
                f.from_coords(
                    [
                        c if j % step == 0 else ctx.scalar(p ** (t + rng.randrange(2)), 40)
                        for j, c in enumerate(x.coords)
                    ]
                )
                for t in (thr - 1, thr)
            ]
            for y in [x] + tails:
                low = [
                    c.min_valuation()
                    for j, c in enumerate(y.coords)
                    if j % step and c.min_valuation() < thr
                ]
                if low:
                    with pytest.raises(PrecisionError) as err:
                        tower.restrict(y, m)
                    assert err.value.achieved == low[0]
                else:
                    assert _triples(tower.restrict(y, m).coords) == _triples(y.coords[::step])
        s = f.from_scalar(x.coords[0]) + f.zeta_power(1).scale(p ** (thr + 1))
        part = s.scalar_part()
        assert (part.v, part.unit, part.absprec) == _triples(s.coords[:1])[0]


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2)])
def test_vector_operations_make_no_scalars(p, n, monkeypatch):
    _, f, _, xs = _elements(p, n)
    x, y = xs[0], xs[1]
    calls = []
    make = PadicScalar._make
    monkeypatch.setattr(
        PadicScalar, "_make", classmethod(lambda cls, *a: calls.append(1) or make(*a))
    )
    x * y
    x + y
    x - y
    x.galois(2)
    for k in (0, 1, 2, 7, f.degree):
        x**k
    assert calls == []
    x.coords  # the view is where scalars are made
    assert len(calls) == f.degree
