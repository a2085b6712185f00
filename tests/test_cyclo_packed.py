"""A K_n element is one packed integer vector at one precision.

Every operation must give, in (v, unit, absprec), what the coordinatewise
rule gives: ``PadicScalar`` arithmetic on the coordinates, cut to their
least absprec; products, powers and the Galois action by the packed
convolution on (denominator, precision, ints) triples, here a schoolbook
loop that shares no code with the product kernel, folded by the
cyclotomic relation itself.  The evaluator behind ``eval_series`` and the
unit logarithm is pinned against Horner's rule and the term-by-term
logarithm on that loop, and the Newton inverse against the closed-form
power.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from padiclab import CycloTower, InvalidInputError, PrecisionError, PrimeContext, TruncatedSeries
from padiclab.core import PadicScalar, _log_floor, split_p, vp
from padiclab.cyclotomic import CycloElement, _group_product, _reduce
from padiclab.series import _pack, _product_ints, _unpack
from conftest import from_coords, schoolbook_ints

CONFIGS = [(3, 0), (3, 1), (5, 1), (7, 1), (3, 2)]


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
        out.append(from_coords(f, coords))
    z1 = f.zeta() - f.one()
    out += [f.zero(20), z1, z1.scale(Fraction(1, p**2)), f.one() + z1.scale(p)]
    # tiny entries at high precision: the product's slots are sized by
    # p^e, not by the entries
    out.append(f.zeta(60))
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


@pytest.mark.parametrize("caller", ["series", "product", "group_product"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_kronecker_slots_hold_their_widest_sums(p, caller):
    # every entry p^e - 1, so the middle slot of each product sums its
    # bound of products, each the largest: a series product of two length-18
    # operands sums 18, a K_n product d and a group-ring product m d.  Over
    # e = 20..27 the bits those sums need fall on most residues mod 8, so a
    # slot one byte narrower than the kernel's overflows at some e.
    f = CycloTower(PrimeContext(p, 12), 1).field(1)
    d, m = f.degree, 3
    for e in range(20, 28):
        top = p**e - 1
        if caller == "series":
            a, b = [top] * 18, [top] * 18
            assert _product_ints(a, b, 35) == schoolbook_ints(a, b, 35), e
        elif caller == "product":
            a = [top] * d
            expected = [c % p**e for c in _fold(f, schoolbook_ints(a, a, 2 * d - 1))]
            assert f._product((0, e, a), (0, e, a))[2] == expected, e
        else:
            xs, ys = [[top] * d for _ in range(m)], [[top] * d for _ in range(m)]
            expected = []
            for i in range(m):
                convs = [schoolbook_ints(xs[j], ys[(i - j) % m], 2 * d - 1) for j in range(m)]
                expected.append(_fold(f, list(map(sum, zip(*convs)))))
            assert _group_product(f, xs, ys) == expected, e


def _power_by_products(terms):
    """Test-only oracle: prod x^k, each power by k - 1 products
    ``CycloElement.__mul__`` from the left, the powers multiplied in
    order."""
    acc = None
    for x, k in terms:
        if k:
            power = x
            for _ in range(k - 1):
                power = power * x
            acc = power if acc is None else acc * power
    return acc


def _power_by_squares(x, k):
    """Test-only oracle: x^k by square-and-multiply over
    ``CycloElement.__mul__``, from the low bit up."""
    base, acc = x, None
    while k:
        if k & 1:
            acc = base if acc is None else acc * base
        k >>= 1
        if k:
            base = base * base
    return acc


@pytest.mark.parametrize("p, n", CONFIGS)
def test_power_product_matches_the_products(p, n):
    tower, f, rng, xs = _elements(p, n)
    ctx = tower.ctx
    z1 = f.zeta() - f.one()
    units = [f.one() + z1.scale(p) * x for x in xs[:4] if x.min_valuation() >= 0] + [
        f.one() + z1,
        f.zeta(30),
    ]
    # (zeta-1)^(d-1)/p^2, whose square (zeta-1)^(2d-2)/p^4 has every
    # coordinate divisible by p: every power and product renormalises
    skew = xs[-1]
    for a in (7, 30, 60):
        assert f.power_product([], a).packed == f.one(a).packed
        assert f.power_product([(units[0], 0), (skew, 0)], a).packed == f.one(a).packed
    for x in units + [skew, z1, z1.scale(Fraction(1, p**2))]:
        for k in range(1, 10):
            got = f.power_product([(x, k)], x.absprec)
            assert got.packed == _power_by_products([(x, k)]).packed, k
    # exponents that share bits: 13 = 0b1101, 11 = 0b1011, 6 = 0b110
    for terms in (
        [(units[0], 13), (units[1], 11), (units[-1], 6)],
        [(units[1], 4), (units[1], 3)],
    ):
        got = f.power_product(terms, min(x.absprec for x, _ in terms))
        assert got.packed == _power_by_products(terms).packed
    # beside a non-integral base each product's claim depends on the order
    # of the products, so only the value is compared
    terms = [(skew, 5), (units[0], 3), (units[1], 6)]
    got = f.power_product(terms, skew.absprec)
    assert (got - _power_by_products(terms)).min_valuation() >= got.absprec
    # exponents wprec log2(p) bits long, as the unit reconstruction's
    cap = ctx.pk(ctx.wprec)
    ks = [rng.randrange(cap // p, cap) for _ in units]
    terms = list(zip(units, ks))
    got = f.power_product(terms, ctx.wprec)
    expected = None
    for x, k in terms:
        power = _power_by_squares(x, k)
        expected = power if expected is None else expected * power
    assert got.packed == expected.packed


@pytest.mark.parametrize("p, n", CONFIGS)
def test_root_powers_and_trace_table_match_the_relation(p, n):
    f = CycloTower(PrimeContext(p, 12), n).field(n)
    mo, d, pn = f.modulus_order, f.degree, p**n
    m = f.ctx.pk(f.ctx.wprec)
    for k in range(mo):
        expected = [c % m for c in _fold(f, [0] * k + [1])]
        assert f.zeta_power(k).packed == (0, f.ctx.wprec, expected)
    # past p^(n+1) the slots wrap, as a product's do
    for k in range(2 * mo - 1):
        slots = [0] * (2 * mo - 1)
        slots[k] = 1
        assert _reduce(f, slots) == _fold(f, [0] * (k % mo) + [1])
    assert f._trace_table == [d if j == 0 else -pn if j % pn == 0 else 0 for j in range(d)]


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
                from_coords(
                    f,
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


# -- the evaluator, the unit logarithm and the inverse ----------------------


def _horner(f, series, x):
    """Test-only oracle: sum f_i x^i by Horner's rule on the schoolbook
    product of packed triples, for the triples series = (D, e, f_i) and
    x; returns the sum's triple."""
    denom, e, fi = series
    acc = (denom, e, [fi[-1] % f.ctx.pk(e)] + [0] * (f.degree - 1))
    for c in reversed(fi[:-1]):
        d, e, ints = _product(f, acc, x)
        ints[0] = (ints[0] + c) % f.ctx.pk(e)
        acc = (d, e, ints)
    return acc


def _integral(f, rng, v, absprec):
    """A seeded element of valuation >= v, its coordinates known to
    absprec."""
    ctx = f.ctx
    span = ctx.pk(absprec)
    coords = [ctx.scalar(rng.randrange(span) * ctx.pk(v), absprec) for _ in range(f.degree)]
    return from_coords(f, coords)


# lengths 1, 2, perfect squares and perfect squares + 1
LENGTHS = (1, 2, 16, 17, 25, 26)


@pytest.mark.parametrize("p, n", CONFIGS)
def test_evaluate_matches_horner(p, n):
    _, f, rng, xs = _elements(p, n)
    e = 30
    m = f.ctx.pk(e)
    points = [x.packed[2] for x in xs if x.packed[0] == 0]
    for length in LENGTHS:
        coeffs = [rng.randrange(m) if rng.randrange(4) else 0 for _ in range(length)]
        for x in points:
            assert f._evaluate(coeffs, x, e) == _horner(f, (0, e, coeffs), (0, e, x))[2]


@pytest.mark.parametrize("p, n", CONFIGS)
def test_eval_series_matches_horner(p, n):
    tower, f, rng, _ = _elements(p, n)
    ctx = tower.ctx
    checked = 0
    for length in LENGTHS:
        # coefficients with denominators up to p^2, zeros and ragged absprecs
        series = TruncatedSeries.from_scalars(
            ctx,
            [
                ctx.scalar(Fraction(rng.randrange(p**20), p ** rng.randrange(3)), 14 + rng.randrange(12))
                if rng.randrange(4)
                else ctx.zero(30)
                for _ in range(length)
            ],
        )
        # v(x) >= 13 makes one term enough, v(x) >= 1 thirteen
        for x in (_integral(f, rng, 13, 40), _integral(f, rng, 1, 20), _integral(f, rng, 1, 40)):
            thunk = lambda: tower.eval_series(series, x).coords  # noqa: E731
            if x.valuation() is not None and series.order < int(ctx.prec / x.valuation()) + 1:
                with pytest.raises(PrecisionError):
                    thunk()
                continue
            expected = CycloElement(f, *_horner(f, series.packed, x.packed)).coords
            assert _outcome(thunk) == _triples(expected)
            checked += 1
    assert checked >= 10


def _term_log_unit(tower, y):
    """Test-only oracle: the unit log summed term by term on the schoolbook
    product, its denominator raised to the largest v_p(k) so far and the
    sum stopped at the first power of h that vanishes mod p^E."""
    ctx = tower.ctx
    p = ctx.p
    field = y.field
    r = y.residue()
    _, a, ints = y.packed
    target = min(a, ctx.wprec)
    m = ctx.pk(target)
    winv = pow(ctx.teichmuller_int(r, a), -1, m)
    y = CycloElement(field, 0, target, [c * winv for c in ints])
    j = 0
    while (y.packed[2][0] - 1) % p or any(c % p for c in y.packed[2][1:]):
        y = y**p
        j += 1
    h = list(y.packed[2])
    h[0] = (h[0] - 1) % m
    vh = min((vp(c, p) for c in h if c), default=target)
    kmax = (target + 8) // vh + 4
    acc_d, acc, power = 0, [0] * field.degree, h
    for k in range(1, kmax + 1):
        vk, uk = split_p(k, p)
        if vk > acc_d:
            acc = [c * ctx.pk(vk - acc_d) for c in acc]
            acc_d = vk
        c = pow(uk, -1, m) * ctx.pk(acc_d - vk) * (-1) ** (k - 1)
        acc = [(x + c * t) % m for x, t in zip(acc, power)]
        if not any(power):
            break
        power = _product(field, (0, target, power), (0, target, h))[2]
    floor = _log_floor(kmax + 1, p)
    return CycloElement(field, acc_d + j, target - floor + acc_d, acc).coords


@pytest.mark.parametrize("p, n", [(3, 2), (7, 1)])
def test_log_unit_matches_term_by_term_oracle(p, n):
    tower, f, rng, _ = _elements(p, n)
    ctx = tower.ctx
    units = [f.one() + _integral(f, rng, k, ctx.wprec + 2) for k in (1, 2, 7, 20)]
    for _ in range(3):
        y = _integral(f, rng, 0, ctx.wprec)
        units.append(y + (rng.randrange(1, p) - y.residue()) % p)
    z1 = f.zeta() - f.one()
    units.append((z1**f.degree).scale(Fraction(1, p)))
    for y in units:
        assert y.residue()
        assert _triples(tower._log_unit(y).coords) == _triples(_term_log_unit(tower, y))


def _closed_form_inverse(x):
    """Test-only oracle: x^(-1) = (zeta-1)^s u^((p-1)p^K - 1) / p^m for the
    peel (u, s, m) of x, K = n + the absprec A of u: u^(p-1) lies in
    U^1_n, where y^(p^K) = 1 mod p^(K-n), so the power is u^(-1) mod p^A.
    Refused as ``inverse`` refuses, when x x^(-1) - 1 misses
    identity_floor."""
    f, p = x.field, x.ctx.p
    u, s, m = x.peel()
    inv = u ** ((p - 1) * p ** (f.n + u.absprec) - 1) * (f.zeta() - f.one()) ** s
    inv = inv.scale(Fraction(p) ** -m)
    if (x * inv - 1).min_valuation() < x.ctx.identity_floor:
        raise PrecisionError("not an inverse at identity_floor")
    return inv.coords


@pytest.mark.parametrize("p, n", CONFIGS)
def test_inverse_matches_closed_form_power(p, n):
    _, f, rng, xs = _elements(p, n)
    z1 = f.zeta() - f.one()
    xs = xs + [_integral(f, rng, 0, 30) * z1 ** rng.randrange(2 * f.degree) for _ in range(4)]
    inverted = 0
    for x in xs:
        expected = _outcome(lambda: _closed_form_inverse(x))
        assert _outcome(lambda: x.inverse().coords) == expected
        inverted += isinstance(expected, list)
    assert inverted >= 4
