"""Complementary error function and its inverse, extended to log-scale arguments.

``upper_tail(x) = (2/sqrt(pi)) * integral_x^inf exp(-z^2) dz`` is the two-sided
Gaussian tail in the normalization where the symmetric law with this |.|-tail is
N(0, 1/2).  ``erfc_inverse`` inverts it with one Newton polish so the residual
upper_tail(G(z)) - z sits at machine precision; ``erfc_inverse_log`` solves
log(upper_tail(x)) = lz for arguments far below float underflow via the
asymptotic expansion erfc(x) ~ exp(-x^2) / (x sqrt(pi)) * (1 - 1/(2x^2) + ...).

erfc and erfcinv(y) = -ndtri(y/2) / sqrt(2) are ports of the Cephes routines
in ``ndtr.c`` and ``ndtri.c``, with their rational-approximation tables (S. L.
Moshier, *Methods and Programs for Mathematical Functions*, 1989), the routines
SciPy's ``special.erfc`` and ``special.erfcinv`` compile.  Each polynomial runs
in Cephes's Horner order on whole arrays, where +, -, *, / and sqrt are
correctly rounded.  The libm calls, ``exp`` in erfc and the two ``log`` in
ndtri, go element by element through ``math``, which calls the C library's
own functions: ``np.exp`` and ``np.log`` round differently on some inputs.  So
the results equal SciPy's bit for bit, and the package runs on NumPy alone.
"""

from __future__ import annotations

import math

import numpy as np

from ._numeric import elementwise

__all__ = ["upper_tail", "erfc_inverse", "erfc_inverse_log"]

_SQRT_PI = math.sqrt(math.pi)

# ndtr.c: erfc(x) = exp(-x^2) P(|x|) / Q(|x|) on 1 <= |x| < 8 and exp(-x^2)
# R(|x|) / S(|x|) beyond, reflected as 2 - erfc(|x|) for x < 0; below |x| = 1,
# 1 - erf(x) with erf(x) = x T(x^2) / U(x^2).  Highest degree first; Q, S and U
# are monic, their leading 1 left out.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2  # ln(2^1024): past x^2 = _MAXLOG, erfc is 0 or 2

# ndtri.c: on exp(-2) < y < 1 - exp(-2), ndtri(y) = sqrt(2 pi) (c + c c^2 P0(c^2)
# / Q0(c^2)) with c = y - 1/2.  Below, with x = sqrt(-2 ln y) and z = 1/x,
# x - ln(x)/x - z P(z) / Q(z), (P1, Q1) for x < 8 and (P2, Q2) beyond; above,
# -ndtri(1 - y).
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_SQRT1_2 = 0.70710678118654752440


def _polevl(x, coef):
    # coef[0] x^n + ... + coef[n] in Cephes polevl's order
    out = np.multiply(x, coef[0])
    for c in coef[1:-1]:
        out += c
        out *= x
    out += coef[-1]
    return out


def _p1evl(x, coef):
    # x^n + coef[0] x^(n-1) + ... + coef[n-1] in Cephes p1evl's order
    out = np.add(x, coef[0])
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _libm(f, x):
    """f of each entry of x, a contiguous 1-D array, through ``math``: the C library's f.

    The memoryview hands out one Python float at a time, so no list of x's size is built.
    """
    return np.fromiter(map(f, memoryview(x)), float, x.size)


def _erfc(a: np.ndarray) -> np.ndarray:
    # Cephes erfc of each entry of a
    out = np.empty(a.shape)
    x = np.abs(a)
    small = x < 1.0
    if np.any(small):
        s = a[small]  # Cephes's erf(s) = -erf(-s) is s T / U for either sign of s
        s2 = np.square(s)
        y = _polevl(s2, _ERF_T)
        y *= s
        y /= _p1evl(s2, _ERF_U)
        out[small] = np.subtract(1.0, y, out=y)
    big = ~small
    if np.any(big):
        b, x = a[big], x[big]
        with np.errstate(over="ignore"):  # inf past |b| = 1e154 is past _MAXLOG too
            z = np.square(b)
        live = ~(z > _MAXLOG)  # NaN stays live and runs through the tables to NaN
        y = np.zeros(b.shape)
        if np.any(live):
            x = x[live]
            e = _libm(math.exp, np.negative(z[live]))
            mid = x < 8.0
            for part, p, q in ((mid, _ERFC_P, _ERFC_Q), (~mid, _ERFC_R, _ERFC_S)):
                if np.any(part):
                    xp, ep = x[part], e[part]
                    ep *= _polevl(xp, p)
                    ep /= _p1evl(xp, q)
                    e[part] = ep
            y[live] = e
        np.subtract(2.0, y, out=y, where=b < 0.0)
        out[big] = y
    return out


def _erfcinv(y: np.ndarray) -> np.ndarray:
    # Cephes erfcinv, -ndtri(y / 2) / sqrt(2), of each entry of y in (0, 2)
    out = np.empty(y.shape)
    h = np.multiply(y, 0.5)
    upper = h > 1.0 - _EXP_M2
    np.subtract(1.0, h, out=h, where=upper)
    central = h > _EXP_M2  # never upper
    if np.any(central):
        c = h[central]
        c -= 0.5
        c2 = np.square(c)
        r = _polevl(c2, _NDTRI_P0)
        r *= c2
        r /= _p1evl(c2, _NDTRI_Q0)
        r *= c
        r += c
        r *= _S2PI
        r *= -_SQRT1_2
        out[central] = r
    zero = h == 0.0  # 5e-324 halves to 0, where ndtri is -inf
    out[zero] = math.inf
    tail = ~(central | zero)
    if np.any(tail):
        x = _libm(math.log, h[tail])
        x *= -2.0
        np.sqrt(x, out=x)
        deep = x >= 8.0
        r = _libm(math.log, x)
        r /= x
        np.subtract(x, r, out=r)
        z = np.reciprocal(x, out=x)
        for part, p, q in ((~deep, _NDTRI_P1, _NDTRI_Q1), (deep, _NDTRI_P2, _NDTRI_Q2)):
            if np.any(part):
                zp = z[part]
                x1 = _polevl(zp, p)
                x1 *= zp
                x1 /= _p1evl(zp, q)
                r[part] -= x1
        np.negative(r, out=r, where=upper[tail])  # ndtri is -r below 1/2 and r above
        r *= _SQRT1_2
        out[tail] = r
    return out


def upper_tail(x):
    """erfc(x), the measure of {|N(0, 1/2)| > x}."""
    return elementwise(_erfc, x)


def erfc_inverse(z):
    """Inverse of ``upper_tail`` on (0, 2), Newton-polished."""
    zz = np.asarray(z, dtype=float)
    if np.any((zz <= 0) | (zz >= 2)):
        raise ValueError("argument must lie in (0, 2)")
    return elementwise(_erfc_inverse, zz)


def _erfc_inverse(z: np.ndarray) -> np.ndarray:
    x = _erfcinv(z)
    # One Newton step on erfc(x) - z; derivative -2/sqrt(pi) exp(-x^2).
    # Skip where exp(x^2) would overflow (the seed is already at full precision there).
    safe = np.abs(x) < 26.0
    xs = np.where(safe, x, 0.0)
    corr = _erfc(xs)
    corr -= z
    corr *= _SQRT_PI / 2.0
    corr *= np.exp(np.square(xs, out=xs), out=xs)
    np.add(x, corr, out=x, where=safe)  # x + 0.0 is x elsewhere: there |x| >= 26
    return x


def _log_erfc_asymptotic(x):
    # ln erfc(x) for large x via the first four terms of the tail series:
    # -x*x - ln(x sqrt(pi)) + ln(1 + ix2 (-1/2 + ix2 (3/4 - 15/8 ix2))), ix2 = 1/(x*x).
    ix2 = np.multiply(x, x)
    np.divide(1.0, ix2, out=ix2)
    series = _polevl(ix2, (-1.875, 0.75, -0.5, 1.0))  # adding -b is subtracting b, bit for bit
    log_x = np.log(np.multiply(x, _SQRT_PI, out=ix2), out=ix2)
    out = np.negative(x)
    out *= x
    out -= log_x
    out += np.log(series, out=series)
    return out


def erfc_inverse_log(lz):
    """Solve ln(upper_tail(x)) = lz; valid for arbitrarily negative lz.

    For lz >= ln(1e-290) this defers to the polished direct inverse.  Below,
    Newton iterations on the asymptotic expansion converge to the expansion's
    own accuracy (relative error < 1e-10 for x >= 26, improving rapidly).
    """
    lzz = np.asarray(lz, dtype=float)
    if np.any(lzz >= math.log(2.0)):
        raise ValueError("log-argument must be below log(2)")
    return elementwise(_erfc_inverse_log, lzz)


def _erfc_inverse_log(lz: np.ndarray) -> np.ndarray:
    out = np.empty(lz.shape)
    direct = lz >= -667.0
    if np.any(direct):
        z = lz[direct]
        out[direct] = _erfc_inverse(np.exp(z, out=z))
    deep = ~direct
    if np.any(deep):
        t = lz[deep]
        x = np.negative(t)
        np.sqrt(x, out=x)
        # d/dx ln erfc = -2x / series; the series is ~1 at this depth.
        for _ in range(6):
            step = _log_erfc_asymptotic(x)
            step -= t
            step /= 2.0 * x
            x += step
            del step  # before the next step is built
        out[deep] = x
    return out
