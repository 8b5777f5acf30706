"""DOP853 on Python complex scalars, the stepper of motion.evolve.

Hairer's explicit Runge-Kutta pair of order 8 with its embedded 5th- and
3rd-order error estimates and its 7th-order dense output (Hairer, Norsett &
Wanner, Solving Ordinary Differential Equations I, 2nd ed., sections II.5
and II.6; the Fortran code dop853.f).  Everything that decides a step is
scipy.integrate.solve_ivp(method="DOP853")'s, so rtol and atol keep their
meaning there:

- the tableau, bound below entry by entry from the class attributes of
  scipy.integrate.DOP853 (A, B, C, E3, E5, D, A_EXTRA, C_EXTRA);
- the initial step (select_initial_step, error estimator order 7);
- the error norm, an RMS over the 8 real components, each scaled by
  atol + rtol * max(|y_old|, |y_new|);
- the controller: safety 0.9, factors within [0.2, 10], no growth in the
  step that follows a rejection, and failure once the step falls below
  10 ulps of t;
- the dense output at the requested times.

What differs is the state and the arithmetic.  The state is four complex
scalars (f, g, varphi, p), p the phase (motion.evolve keeps it real, so
its imaginary part stays 0), and rhs(t, f, g, varphi) returns their four
derivatives.  The phase never feeds back, so stage states are built for f,
g and varphi only.  Every stage sum is written out on named scalars, as
dop853.f writes it, with no numpy call inside a step.
"""

from __future__ import annotations

import math

from scipy.integrate import DOP853 as _TABLEAU

from .errors import NumericalError

# step-size control, as solve_ivp's DOP853 sets it
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
EXPONENT = -1.0 / 8.0  # -1 / (error estimator order + 1)

# Hairer's coefficients, bound from scipy's DOP853 tableau and named as in
# dop853.f with the indices run together (A1110 is a(11, 10)): stage i runs
# at t + Ci h from y + h sum_j Aij kj, the new state is y + h sum_j Bj kj,
# and stage 13 is its derivative.  One unpacking per row; _ takes the zeros.
_, C2, C3, C4, C5, C6, C7, C8, C9, C10, C11, C12 = _TABLEAU.C.tolist()
_A = _TABLEAU.A.tolist()
A21, _, _, _, _, _, _, _, _, _, _, _ = _A[1]
A31, A32, _, _, _, _, _, _, _, _, _, _ = _A[2]
A41, _, A43, _, _, _, _, _, _, _, _, _ = _A[3]
A51, _, A53, A54, _, _, _, _, _, _, _, _ = _A[4]
A61, _, _, A64, A65, _, _, _, _, _, _, _ = _A[5]
A71, _, _, A74, A75, A76, _, _, _, _, _, _ = _A[6]
A81, _, _, A84, A85, A86, A87, _, _, _, _, _ = _A[7]
A91, _, _, A94, A95, A96, A97, A98, _, _, _, _ = _A[8]
A101, _, _, A104, A105, A106, A107, A108, A109, _, _, _ = _A[9]
A111, _, _, A114, A115, A116, A117, A118, A119, A1110, _, _ = _A[10]
A121, _, _, A124, A125, A126, A127, A128, A129, A1210, A1211, _ = _A[11]
B1, _, _, _, _, B6, B7, B8, B9, B10, B11, B12 = _TABLEAU.B.tolist()

# 3rd- and 5th-order error estimators.  E3 differs from B only at stages
# 1, 9 and 12; at the other stages the sums below use the Bj themselves.
E3_1, _, _, _, _, _, _, _, E3_9, _, _, E3_12, _ = _TABLEAU.E3.tolist()
ER1, _, _, _, _, ER6, ER7, ER8, ER9, ER10, ER11, ER12, _ = _TABLEAU.E5.tolist()

# dense output: three more stages, and the rows D4..D7 of the 7th-order
# interpolant
C14, C15, C16 = _TABLEAU.C_EXTRA.tolist()
_A = _TABLEAU.A_EXTRA.tolist()
A141, _, _, _, _, _, A147, A148, A149, A1410, A1411, A1412, A1413, _, _, _ = _A[0]
A151, _, _, _, _, A156, A157, A158, _, _, A1511, A1512, A1513, A1514, _, _ = _A[1]
A161, _, _, _, _, A166, A167, A168, A169, _, _, _, A1613, A1614, A1615, _ = _A[2]
_D = _TABLEAU.D.tolist()
D41, _, _, _, _, D46, D47, D48, D49, D410, D411, D412, D413, D414, D415, D416 = _D[0]
D51, _, _, _, _, D56, D57, D58, D59, D510, D511, D512, D513, D514, D515, D516 = _D[1]
D61, _, _, _, _, D66, D67, D68, D69, D610, D611, D612, D613, D614, D615, D616 = _D[2]
D71, _, _, _, _, D76, D77, D78, D79, D710, D711, D712, D713, D714, D715, D716 = _D[3]
del _, _A, _D


def integrate(rhs, t0: float, t1: float, y: tuple, times: list, rtol: float,
              atol: float, max_step: float):
    """Integrate from t0 to t1 > t0; returns (states at times, state at t1).

    y and every state are tuples (f, g, varphi, p) of complex.  times is an
    increasing list inside (t0, t1]; a time that ends a step gets that
    step's state, any other the dense output of the step across it.

    Raises NumericalError, with the time where the step failed, once the
    step size falls below 10 ulps of t, and at t0 when the derivative there
    is too large for its scaled norm to size a first step.  A non-finite
    error norm rejects the step, so a NaN state is never accepted.
    Exceptions raised by rhs propagate unchanged.
    """
    f, g, v, p = y
    kf1, kg1, kv1, kp1 = rhs(t0, f, g, v)
    h_abs = _initial_step(rhs, t0, t1, y, (kf1, kg1, kv1, kp1), rtol, atol, max_step)
    states = []
    i, n = 0, len(times)
    t = t0
    while t < t1:
        min_step = 10.0 * math.ulp(t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise NumericalError(
                    f"integration failed: step size {h_abs:.3g} below 10 ulps of t = {t!r}",
                    t=t)
            t_new = t + h_abs
            if t_new > t1:
                t_new = t1
            h = h_abs = t_new - t
            kf2, kg2, kv2, kp2 = rhs(
                t + C2 * h,
                f + h * (A21 * kf1),
                g + h * (A21 * kg1),
                v + h * (A21 * kv1))
            kf3, kg3, kv3, kp3 = rhs(
                t + C3 * h,
                f + h * (A31 * kf1 + A32 * kf2),
                g + h * (A31 * kg1 + A32 * kg2),
                v + h * (A31 * kv1 + A32 * kv2))
            kf4, kg4, kv4, kp4 = rhs(
                t + C4 * h,
                f + h * (A41 * kf1 + A43 * kf3),
                g + h * (A41 * kg1 + A43 * kg3),
                v + h * (A41 * kv1 + A43 * kv3))
            kf5, kg5, kv5, kp5 = rhs(
                t + C5 * h,
                f + h * (A51 * kf1 + A53 * kf3 + A54 * kf4),
                g + h * (A51 * kg1 + A53 * kg3 + A54 * kg4),
                v + h * (A51 * kv1 + A53 * kv3 + A54 * kv4))
            kf6, kg6, kv6, kp6 = rhs(
                t + C6 * h,
                f + h * (A61 * kf1 + A64 * kf4 + A65 * kf5),
                g + h * (A61 * kg1 + A64 * kg4 + A65 * kg5),
                v + h * (A61 * kv1 + A64 * kv4 + A65 * kv5))
            kf7, kg7, kv7, kp7 = rhs(
                t + C7 * h,
                f + h * (A71 * kf1 + A74 * kf4 + A75 * kf5 + A76 * kf6),
                g + h * (A71 * kg1 + A74 * kg4 + A75 * kg5 + A76 * kg6),
                v + h * (A71 * kv1 + A74 * kv4 + A75 * kv5 + A76 * kv6))
            kf8, kg8, kv8, kp8 = rhs(
                t + C8 * h,
                f + h * (A81 * kf1 + A84 * kf4 + A85 * kf5 + A86 * kf6 + A87 * kf7),
                g + h * (A81 * kg1 + A84 * kg4 + A85 * kg5 + A86 * kg6 + A87 * kg7),
                v + h * (A81 * kv1 + A84 * kv4 + A85 * kv5 + A86 * kv6 + A87 * kv7))
            kf9, kg9, kv9, kp9 = rhs(
                t + C9 * h,
                f + h * (A91 * kf1 + A94 * kf4 + A95 * kf5 + A96 * kf6 + A97 * kf7
                         + A98 * kf8),
                g + h * (A91 * kg1 + A94 * kg4 + A95 * kg5 + A96 * kg6 + A97 * kg7
                         + A98 * kg8),
                v + h * (A91 * kv1 + A94 * kv4 + A95 * kv5 + A96 * kv6 + A97 * kv7
                         + A98 * kv8))
            kf10, kg10, kv10, kp10 = rhs(
                t + C10 * h,
                f + h * (A101 * kf1 + A104 * kf4 + A105 * kf5 + A106 * kf6 + A107 * kf7
                         + A108 * kf8 + A109 * kf9),
                g + h * (A101 * kg1 + A104 * kg4 + A105 * kg5 + A106 * kg6 + A107 * kg7
                         + A108 * kg8 + A109 * kg9),
                v + h * (A101 * kv1 + A104 * kv4 + A105 * kv5 + A106 * kv6 + A107 * kv7
                         + A108 * kv8 + A109 * kv9))
            kf11, kg11, kv11, kp11 = rhs(
                t + C11 * h,
                f + h * (A111 * kf1 + A114 * kf4 + A115 * kf5 + A116 * kf6 + A117 * kf7
                         + A118 * kf8 + A119 * kf9 + A1110 * kf10),
                g + h * (A111 * kg1 + A114 * kg4 + A115 * kg5 + A116 * kg6 + A117 * kg7
                         + A118 * kg8 + A119 * kg9 + A1110 * kg10),
                v + h * (A111 * kv1 + A114 * kv4 + A115 * kv5 + A116 * kv6 + A117 * kv7
                         + A118 * kv8 + A119 * kv9 + A1110 * kv10))
            kf12, kg12, kv12, kp12 = rhs(
                t + C12 * h,
                f + h * (A121 * kf1 + A124 * kf4 + A125 * kf5 + A126 * kf6 + A127 * kf7
                         + A128 * kf8 + A129 * kf9 + A1210 * kf10 + A1211 * kf11),
                g + h * (A121 * kg1 + A124 * kg4 + A125 * kg5 + A126 * kg6 + A127 * kg7
                         + A128 * kg8 + A129 * kg9 + A1210 * kg10 + A1211 * kg11),
                v + h * (A121 * kv1 + A124 * kv4 + A125 * kv5 + A126 * kv6 + A127 * kv7
                         + A128 * kv8 + A129 * kv9 + A1210 * kv10 + A1211 * kv11))
            f1 = f + h * (B1 * kf1 + B6 * kf6 + B7 * kf7 + B8 * kf8 + B9 * kf9 + B10 * kf10
                          + B11 * kf11 + B12 * kf12)
            g1 = g + h * (B1 * kg1 + B6 * kg6 + B7 * kg7 + B8 * kg8 + B9 * kg9 + B10 * kg10
                          + B11 * kg11 + B12 * kg12)
            v1 = v + h * (B1 * kv1 + B6 * kv6 + B7 * kv7 + B8 * kv8 + B9 * kv9 + B10 * kv10
                          + B11 * kv11 + B12 * kv12)
            p1 = p + h * (B1 * kp1 + B6 * kp6 + B7 * kp7 + B8 * kp8 + B9 * kp9 + B10 * kp10
                          + B11 * kp11 + B12 * kp12)
            kf13, kg13, kv13, kp13 = rhs(t_new, f1, g1, v1)
            e5f = (ER1 * kf1 + ER6 * kf6 + ER7 * kf7 + ER8 * kf8 + ER9 * kf9 + ER10 * kf10
                   + ER11 * kf11 + ER12 * kf12)
            e5g = (ER1 * kg1 + ER6 * kg6 + ER7 * kg7 + ER8 * kg8 + ER9 * kg9 + ER10 * kg10
                   + ER11 * kg11 + ER12 * kg12)
            e5v = (ER1 * kv1 + ER6 * kv6 + ER7 * kv7 + ER8 * kv8 + ER9 * kv9 + ER10 * kv10
                   + ER11 * kv11 + ER12 * kv12)
            e5p = (ER1 * kp1 + ER6 * kp6 + ER7 * kp7 + ER8 * kp8 + ER9 * kp9 + ER10 * kp10
                   + ER11 * kp11 + ER12 * kp12)
            e3f = (E3_1 * kf1 + B6 * kf6 + B7 * kf7 + B8 * kf8 + E3_9 * kf9 + B10 * kf10
                   + B11 * kf11 + E3_12 * kf12)
            e3g = (E3_1 * kg1 + B6 * kg6 + B7 * kg7 + B8 * kg8 + E3_9 * kg9 + B10 * kg10
                   + B11 * kg11 + E3_12 * kg12)
            e3v = (E3_1 * kv1 + B6 * kv6 + B7 * kv7 + B8 * kv8 + E3_9 * kv9 + B10 * kv10
                   + B11 * kv11 + E3_12 * kv12)
            e3p = (E3_1 * kp1 + B6 * kp6 + B7 * kp7 + B8 * kp8 + E3_9 * kp9 + B10 * kp10
                   + B11 * kp11 + E3_12 * kp12)
            sf5, sf3 = _squares(e5f, e3f, f, f1, rtol, atol)
            sg5, sg3 = _squares(e5g, e3g, g, g1, rtol, atol)
            sv5, sv3 = _squares(e5v, e3v, v, v1, rtol, atol)
            sp5, sp3 = _squares(e5p, e3p, p, p1, rtol, atol)
            s5 = sf5 + sg5 + sv5 + sp5
            s3 = sf3 + sg3 + sv3 + sp3
            if s5 == 0.0 and s3 == 0.0:
                err = 0.0
            else:
                err = h * s5 / math.sqrt((s5 + 0.01 * s3) * 8.0)
            if err < 1.0:
                factor = MAX_FACTOR if err == 0.0 else min(MAX_FACTOR, SAFETY * err ** EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            # a NaN norm lands here too: max() keeps MIN_FACTOR against NaN
            h_abs *= max(MIN_FACTOR, SAFETY * err ** EXPONENT)
            rejected = True

        if i < n and times[i] < t_new:
            kf14, kg14, kv14, kp14 = rhs(
                t + C14 * h,
                f + h * (A141 * kf1 + A147 * kf7 + A148 * kf8 + A149 * kf9 + A1410 * kf10
                         + A1411 * kf11 + A1412 * kf12 + A1413 * kf13),
                g + h * (A141 * kg1 + A147 * kg7 + A148 * kg8 + A149 * kg9 + A1410 * kg10
                         + A1411 * kg11 + A1412 * kg12 + A1413 * kg13),
                v + h * (A141 * kv1 + A147 * kv7 + A148 * kv8 + A149 * kv9 + A1410 * kv10
                         + A1411 * kv11 + A1412 * kv12 + A1413 * kv13))
            kf15, kg15, kv15, kp15 = rhs(
                t + C15 * h,
                f + h * (A151 * kf1 + A156 * kf6 + A157 * kf7 + A158 * kf8 + A1511 * kf11
                         + A1512 * kf12 + A1513 * kf13 + A1514 * kf14),
                g + h * (A151 * kg1 + A156 * kg6 + A157 * kg7 + A158 * kg8 + A1511 * kg11
                         + A1512 * kg12 + A1513 * kg13 + A1514 * kg14),
                v + h * (A151 * kv1 + A156 * kv6 + A157 * kv7 + A158 * kv8 + A1511 * kv11
                         + A1512 * kv12 + A1513 * kv13 + A1514 * kv14))
            kf16, kg16, kv16, kp16 = rhs(
                t + C16 * h,
                f + h * (A161 * kf1 + A166 * kf6 + A167 * kf7 + A168 * kf8 + A169 * kf9
                         + A1613 * kf13 + A1614 * kf14 + A1615 * kf15),
                g + h * (A161 * kg1 + A166 * kg6 + A167 * kg7 + A168 * kg8 + A169 * kg9
                         + A1613 * kg13 + A1614 * kg14 + A1615 * kg15),
                v + h * (A161 * kv1 + A166 * kv6 + A167 * kv7 + A168 * kv8 + A169 * kv9
                         + A1613 * kv13 + A1614 * kv14 + A1615 * kv15))
            d3f = h * (D41 * kf1 + D46 * kf6 + D47 * kf7 + D48 * kf8 + D49 * kf9
                       + D410 * kf10 + D411 * kf11 + D412 * kf12 + D413 * kf13 + D414 * kf14
                       + D415 * kf15 + D416 * kf16)
            d3g = h * (D41 * kg1 + D46 * kg6 + D47 * kg7 + D48 * kg8 + D49 * kg9
                       + D410 * kg10 + D411 * kg11 + D412 * kg12 + D413 * kg13 + D414 * kg14
                       + D415 * kg15 + D416 * kg16)
            d3v = h * (D41 * kv1 + D46 * kv6 + D47 * kv7 + D48 * kv8 + D49 * kv9
                       + D410 * kv10 + D411 * kv11 + D412 * kv12 + D413 * kv13 + D414 * kv14
                       + D415 * kv15 + D416 * kv16)
            d3p = h * (D41 * kp1 + D46 * kp6 + D47 * kp7 + D48 * kp8 + D49 * kp9
                       + D410 * kp10 + D411 * kp11 + D412 * kp12 + D413 * kp13 + D414 * kp14
                       + D415 * kp15 + D416 * kp16)
            d4f = h * (D51 * kf1 + D56 * kf6 + D57 * kf7 + D58 * kf8 + D59 * kf9
                       + D510 * kf10 + D511 * kf11 + D512 * kf12 + D513 * kf13 + D514 * kf14
                       + D515 * kf15 + D516 * kf16)
            d4g = h * (D51 * kg1 + D56 * kg6 + D57 * kg7 + D58 * kg8 + D59 * kg9
                       + D510 * kg10 + D511 * kg11 + D512 * kg12 + D513 * kg13 + D514 * kg14
                       + D515 * kg15 + D516 * kg16)
            d4v = h * (D51 * kv1 + D56 * kv6 + D57 * kv7 + D58 * kv8 + D59 * kv9
                       + D510 * kv10 + D511 * kv11 + D512 * kv12 + D513 * kv13 + D514 * kv14
                       + D515 * kv15 + D516 * kv16)
            d4p = h * (D51 * kp1 + D56 * kp6 + D57 * kp7 + D58 * kp8 + D59 * kp9
                       + D510 * kp10 + D511 * kp11 + D512 * kp12 + D513 * kp13 + D514 * kp14
                       + D515 * kp15 + D516 * kp16)
            d5f = h * (D61 * kf1 + D66 * kf6 + D67 * kf7 + D68 * kf8 + D69 * kf9
                       + D610 * kf10 + D611 * kf11 + D612 * kf12 + D613 * kf13 + D614 * kf14
                       + D615 * kf15 + D616 * kf16)
            d5g = h * (D61 * kg1 + D66 * kg6 + D67 * kg7 + D68 * kg8 + D69 * kg9
                       + D610 * kg10 + D611 * kg11 + D612 * kg12 + D613 * kg13 + D614 * kg14
                       + D615 * kg15 + D616 * kg16)
            d5v = h * (D61 * kv1 + D66 * kv6 + D67 * kv7 + D68 * kv8 + D69 * kv9
                       + D610 * kv10 + D611 * kv11 + D612 * kv12 + D613 * kv13 + D614 * kv14
                       + D615 * kv15 + D616 * kv16)
            d5p = h * (D61 * kp1 + D66 * kp6 + D67 * kp7 + D68 * kp8 + D69 * kp9
                       + D610 * kp10 + D611 * kp11 + D612 * kp12 + D613 * kp13 + D614 * kp14
                       + D615 * kp15 + D616 * kp16)
            d6f = h * (D71 * kf1 + D76 * kf6 + D77 * kf7 + D78 * kf8 + D79 * kf9
                       + D710 * kf10 + D711 * kf11 + D712 * kf12 + D713 * kf13 + D714 * kf14
                       + D715 * kf15 + D716 * kf16)
            d6g = h * (D71 * kg1 + D76 * kg6 + D77 * kg7 + D78 * kg8 + D79 * kg9
                       + D710 * kg10 + D711 * kg11 + D712 * kg12 + D713 * kg13 + D714 * kg14
                       + D715 * kg15 + D716 * kg16)
            d6v = h * (D71 * kv1 + D76 * kv6 + D77 * kv7 + D78 * kv8 + D79 * kv9
                       + D710 * kv10 + D711 * kv11 + D712 * kv12 + D713 * kv13 + D714 * kv14
                       + D715 * kv15 + D716 * kv16)
            d6p = h * (D71 * kp1 + D76 * kp6 + D77 * kp7 + D78 * kp8 + D79 * kp9
                       + D710 * kp10 + D711 * kp11 + D712 * kp12 + D713 * kp13 + D714 * kp14
                       + D715 * kp15 + D716 * kp16)
            # the interpolant's first three rows, from the step's ends
            d0f, d0g, d0v, d0p = f1 - f, g1 - g, v1 - v, p1 - p
            d1f, d1g, d1v, d1p = h * kf1 - d0f, h * kg1 - d0g, h * kv1 - d0v, h * kp1 - d0p
            d2f = 2.0 * d0f - h * (kf13 + kf1)
            d2g = 2.0 * d0g - h * (kg13 + kg1)
            d2v = 2.0 * d0v - h * (kv13 + kv1)
            d2p = 2.0 * d0p - h * (kp13 + kp1)
            while i < n and times[i] < t_new:
                x = (times[i] - t) / h
                w = 1.0 - x
                states.append((
                f + x * (d0f + w * (d1f + x * (d2f + w * (d3f + x * (d4f + w * (d5f + x * d6f)))))),
                g + x * (d0g + w * (d1g + x * (d2g + w * (d3g + x * (d4g + w * (d5g + x * d6g)))))),
                v + x * (d0v + w * (d1v + x * (d2v + w * (d3v + x * (d4v + w * (d5v + x * d6v)))))),
                p + x * (d0p + w * (d1p + x * (d2p + w * (d3p + x * (d4p + w * (d5p + x * d6p))))))))
                i += 1
        t, f, g, v, p = t_new, f1, g1, v1, p1
        kf1, kg1, kv1, kp1 = kf13, kg13, kv13, kp13
        if i < n and times[i] == t:
            states.append((f, g, v, p))
            i += 1
    return states, (f, g, v, p)


def _squares(e5, e3, old, new, rtol, atol):
    """Sums of the squared scaled errors over the real and imaginary parts of
    one component: (5th-order estimate, 3rd-order estimate)."""
    s = atol + max(abs(old.real), abs(new.real)) * rtol
    r5, r3 = e5.real / s, e3.real / s
    s = atol + max(abs(old.imag), abs(new.imag)) * rtol
    i5, i3 = e5.imag / s, e3.imag / s
    return r5 * r5 + i5 * i5, r3 * r3 + i3 * i3


def _initial_step(rhs, t0, t1, y, k, rtol, atol, max_step):
    """scipy's select_initial_step for an error estimator of order 7."""
    scales = [atol + abs(x) * rtol for z in y for x in (z.real, z.imag)]

    def rms(zs):
        parts = [x / s for x, s in zip((x for z in zs for x in (z.real, z.imag)), scales)]
        return math.sqrt(sum(x * x for x in parts) / 8.0)

    interval = t1 - t0
    d0, d1 = rms(y), rms(k)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    if not h0 > 0.0:  # d1 overflowed: the derivative sizes no first step
        raise NumericalError(f"no first step: the derivative's norm at t = {t0!r} overflows", t=t0)
    k0 = rhs(t0 + h0, y[0] + h0 * k[0], y[1] + h0 * k[1], y[2] + h0 * k[2])
    d2 = rms([b - a for a, b in zip(k, k0)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, interval, max_step)
