from operator import mul

import pytest

from padiclab import (
    CycloTower,
    HondaData,
    PrimeContext,
    PropertyFailure,
    TateParameter,
    build_points,
    honda,
    solve_h90,
)
from padiclab.core import split_p
from padiclab.cyclotomic import CycloElement
from padiclab.honda import default_truncation
from padiclab.series import TruncatedSeries, _pack, _unpack


def from_coords(field, coords):
    """The K_n element with these PadicScalar coordinates, cut to their
    least absprec."""
    if len(coords) != field.degree:
        raise ValueError("coordinate vector has wrong length")
    return CycloElement(field, *_pack(coords))


def from_rationals(ctx, values, absprec=None):
    """The series with these exact coefficients, at absprec (wprec by
    default)."""
    return TruncatedSeries.from_scalars(ctx, [ctx.scalar(v, absprec) for v in values])


def extend_power_rows(rows, k, mod):
    """Test-only oracle: append column k of the power table of t = rows[1],
    mod ``mod``.

    rows[j] holds the integers (t^j)_i for i < k, and row 1 is t itself,
    known through t_(k-1) (t_0 = 0).  This appends
    (t^j)_k = sum_{a=1}^{k-j+1} t_a (t^(j-1))_(k-a) for j = 2..k, opening
    row k; it never reads t_k.
    """
    t = rows[1]
    rows.append([0] * k)
    for j in range(2, k + 1):
        prev = rows[j - 1]
        rows[j].append(sum(map(mul, t[1 : k - j + 2], prev[k - 1 : j - 2 : -1])) % mod)


def schoolbook_ints(a, b, n):
    """Test-only oracle: the first n coefficients of a(X) b(X), unreduced,
    by the double loop over every pair of entries."""
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] += x * y
    return out


def schoolbook_convolve(ctx, a, b, order):
    """Test-only oracle: the packed product of two triples truncated at
    ``order``, by the double loop, at the precision of the packed rule:
    value precision min(E_a - D_a - D_b, E_b - D_b - D_a) at scale
    D_a + D_b."""
    da, ea, ia = a
    db, eb, ib = b
    d = da + db
    e = min(ea - da - db, eb - db - da) + d
    n = min(order + 1, len(ia) + len(ib) - 1)
    return d, e, [c % ctx.pk(e) for c in schoolbook_ints(ia, ib, n)]


def horner_compose(f, g):
    """Test-only oracle: f(g) by packed Horner steps from the top
    coefficient down, paying f's running denominator at every step."""
    order = max(f.order, g.order)
    ctx = f.ctx
    gp = _pack(g.truncate(order).coeffs)
    acc = _pack((f.coeffs[-1],))
    for i in range(f.order - 1, -1, -1):
        acc = schoolbook_convolve(ctx, acc, gp, order)
        ci = _pack((f.coeffs[i],))
        d = max(acc[0], ci[0])
        e = min(acc[1] - acc[0], ci[1] - ci[0]) + d
        m = ctx.pk(e)
        ints = [c * ctx.pk(d - acc[0]) % m for c in acc[2]]
        ints[0] = (ints[0] + ci[2][0] * ctx.pk(d - ci[0])) % m
        acc = (d, e, ints)
    d, e, ints = acc
    ints += [0] * (order + 1 - len(ints))
    return TruncatedSeries.from_scalars(ctx, _unpack(ctx, d, e, ints[: order + 1]))


def iota_by_dot_products(ctx, order):
    """Test-only oracle: iota's residues mod p^W, W = ``_solve_digits``,
    from the solve of ``build_iota`` with one plain dot product per degree
    and online product (squares summed over half their pairs), raising its
    PropertyFailures.  It reads A and the rows of phi through ``honda``,
    so a patched ``_averaged_binomials`` or ``_phi_rows`` reaches it too.
    """
    p = ctx.p
    digits = honda._solve_digits(ctx, order)
    mod = ctx.pk(digits)
    ja = [j * a % mod for j, a in enumerate(honda._averaged_binomials(ctx, order, digits))]
    chain = honda._square_and_multiply(p)
    powers = {1: [1], **{a + b: [1] for a, b in chain}}  # F^c below degree m
    e = [1]  # exp(pA) through degree m
    g = [1]  # F(phi) below degree m
    acc = [0] * (order + 1)
    rows = honda._phi_rows(p, mod, order)
    coeffs = [0]
    for m in range(1, order + 1):
        v, u = split_p(m, p)
        s = sum(map(mul, ja[1 : m + 1], reversed(e))) % mod
        if v and s % ctx.pk(v - 1):
            raise PropertyFailure(f"exp(pA) has a non-integral coefficient at degree {m}")
        e.append(s * p // ctx.pk(v) * pow(u, -1, mod) % mod)
        rest = {1: 0}
        for a, b in chain:
            fa = powers[a]
            if a == b:
                h = (m - 1) // 2
                mid = 2 * sum(map(mul, fa[1 : h + 1], fa[m - 1 : m - 1 - h : -1]))
                if m % 2 == 0:
                    mid += fa[m // 2] ** 2
            else:
                mid = sum(map(mul, fa[1:m], powers[b][m - 1 : 0 : -1]))
            rest[a + b] = (rest[a] + rest[b] + mid) % mod
        if m == 1:
            fm = 1
        else:
            rhs = (acc[m] + sum(map(mul, e[1:], reversed(g))) - rest[p]) % mod
            if rhs % p:
                raise PropertyFailure(f"iota has a non-integral coefficient at degree {m}")
            fm = rhs // p * pow(1 - pow(p, m - 1, mod), -1, mod) % mod
        for c, fc in powers.items():
            fc.append((c * fm + rest[c]) % mod)
        g.append((acc[m] + fm * pow(p, m, mod)) % mod)
        coeffs.append(fm)
        honda._push_row(acc, m, fm, next(rows, None))
    return coeffs


@pytest.fixture(scope="session")
def ctx3():
    return PrimeContext(3, 14)


@pytest.fixture(scope="session")
def ctx5():
    return PrimeContext(5, 12)


@pytest.fixture(scope="session")
def tower3(ctx3):
    return CycloTower(ctx3, 1)


@pytest.fixture(scope="session")
def tower5(ctx5):
    return CycloTower(ctx5, 1)


@pytest.fixture(scope="session")
def honda3(ctx3):
    return HondaData.build(ctx3, default_truncation(ctx3, 1))


@pytest.fixture(scope="session")
def honda5(ctx5):
    return HondaData.build(ctx5, default_truncation(ctx5, 1))


@pytest.fixture(scope="session")
def fam3(honda3, tower3):
    return build_points(honda3, tower3, 1)


@pytest.fixture(scope="session")
def fam5(honda5, tower5):
    return build_points(honda5, tower5, 1)


@pytest.fixture(scope="session")
def sol3(fam3):
    return solve_h90(fam3, 1)


@pytest.fixture(scope="session")
def sol5(fam5):
    return solve_h90(fam5, 1)


@pytest.fixture(scope="session")
def q3(ctx3):
    return TateParameter.make(ctx3, 1, 4)


@pytest.fixture(scope="session")
def q5(ctx5):
    return TateParameter.make(ctx5, 1, 6)


# deeper tower at reduced precision for the level-2 identities
@pytest.fixture(scope="session")
def ctx3n2():
    return PrimeContext(3, 12)


@pytest.fixture(scope="session")
def tower3n2(ctx3n2):
    return CycloTower(ctx3n2, 2)


@pytest.fixture(scope="session")
def fam3n2(ctx3n2, tower3n2):
    honda = HondaData.build(ctx3n2, default_truncation(ctx3n2, 2))
    return build_points(honda, tower3n2, 2)


@pytest.fixture(scope="session")
def sol3n2(fam3n2):
    return solve_h90(fam3n2, 2)
