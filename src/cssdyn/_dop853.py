"""DOP853 on Python complex scalars, the stepper of motion.evolve.

Hairer's explicit Runge-Kutta pair of order 8 with its embedded 5th- and
3rd-order error estimates and its 7th-order dense output (Hairer, Norsett &
Wanner, Solving Ordinary Differential Equations I, 2nd ed., sections II.5
and II.6; the Fortran code dop853.f).  Everything that decides a step is
scipy.integrate.solve_ivp(method="DOP853")'s, so rtol and atol keep their
meaning there:

- the tableau, copied below as constants with scipy's digits;
- the initial step (select_initial_step, error estimator order 7);
- the error norm, an RMS over the 8 real components, each scaled by
  atol + rtol * max(|y_old|, |y_new|);
- the controller: safety 0.9, factors within [0.2, 10], no growth in the
  step that follows a rejection, and failure once the step falls below
  10 ulps of t;
- the dense output at the requested times.

What differs is the state and the arithmetic.  The state is four complex
scalars (f, g, varphi, p) with p = phase_phi + 1j * phase_vartheta, and
rhs(t, f, g, varphi) returns their four derivatives.  The phases never feed
back, so stage states are built for f, g and varphi only.  Every stage sum
is written out on named scalars, as dop853.f writes it, with no numpy call
inside a step.
"""

from __future__ import annotations

import math

from .errors import NumericalError

# step-size control, as solve_ivp's DOP853 sets it
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
EXPONENT = -1.0 / 8.0  # -1 / (error estimator order + 1)

# Hairer's coefficients, named as in dop853.f with the indices run together
# (A1110 is a(11, 10)): stage i runs at t + Ci h from y + h sum_j Aij kj, the
# new state is y + h sum_j Bj kj, and stage 13 is its derivative.
C2 = 0.526001519587677318785587544488e-01
C3 = 0.789002279381515978178381316732e-01
C4 = 0.118350341907227396726757197510
C5 = 0.281649658092772603273242802490
C6 = 0.333333333333333333333333333333
C7 = 0.25
C8 = 0.307692307692307692307692307692
C9 = 0.651282051282051282051282051282
C10 = 0.6
C11 = 0.857142857142857142857142857142
C12 = 1.0
C14 = 0.1
C15 = 0.2
C16 = 0.777777777777777777777777777778
A21 = 5.26001519587677318785587544488e-2
A31 = 1.97250569845378994544595329183e-2
A32 = 5.91751709536136983633785987549e-2
A41 = 2.95875854768068491816892993775e-2
A43 = 8.87627564304205475450678981324e-2
A51 = 2.41365134159266685502369798665e-1
A53 = -8.84549479328286085344864962717e-1
A54 = 9.24834003261792003115737966543e-1
A61 = 3.7037037037037037037037037037e-2
A64 = 1.70828608729473871279604482173e-1
A65 = 1.25467687566822425016691814123e-1
A71 = 3.7109375e-2
A74 = 1.70252211019544039314978060272e-1
A75 = 6.02165389804559606850219397283e-2
A76 = -1.7578125e-2
A81 = 3.70920001185047927108779319836e-2
A84 = 1.70383925712239993810214054705e-1
A85 = 1.07262030446373284651809199168e-1
A86 = -1.53194377486244017527936158236e-2
A87 = 8.27378916381402288758473766002e-3
A91 = 6.24110958716075717114429577812e-1
A94 = -3.36089262944694129406857109825
A95 = -8.68219346841726006818189891453e-1
A96 = 2.75920996994467083049415600797e1
A97 = 2.01540675504778934086186788979e1
A98 = -4.34898841810699588477366255144e1
A101 = 4.77662536438264365890433908527e-1
A104 = -2.48811461997166764192642586468
A105 = -5.90290826836842996371446475743e-1
A106 = 2.12300514481811942347288949897e1
A107 = 1.52792336328824235832596922938e1
A108 = -3.32882109689848629194453265587e1
A109 = -2.03312017085086261358222928593e-2
A111 = -9.3714243008598732571704021658e-1
A114 = 5.18637242884406370830023853209
A115 = 1.09143734899672957818500254654
A116 = -8.14978701074692612513997267357
A117 = -1.85200656599969598641566180701e1
A118 = 2.27394870993505042818970056734e1
A119 = 2.49360555267965238987089396762
A1110 = -3.0467644718982195003823669022
A121 = 2.27331014751653820792359768449
A124 = -1.05344954667372501984066689879e1
A125 = -2.00087205822486249909675718444
A126 = -1.79589318631187989172765950534e1
A127 = 2.79488845294199600508499808837e1
A128 = -2.85899827713502369474065508674
A129 = -8.87285693353062954433549289258
A1210 = 1.23605671757943030647266201528e1
A1211 = 6.43392746015763530355970484046e-1
B1 = 5.42937341165687622380535766363e-2
B6 = 4.45031289275240888144113950566
B7 = 1.89151789931450038304281599044
B8 = -5.8012039600105847814672114227
B9 = 3.1116436695781989440891606237e-1
B10 = -1.52160949662516078556178806805e-1
B11 = 2.01365400804030348374776537501e-1
B12 = 4.47106157277725905176885569043e-2

# 3rd- and 5th-order error estimators: scipy's E3 is B less BHH at stages
# 1, 9 and 12, its E5 is ER
BHH1 = 0.244094488188976377952755905512
BHH2 = 0.733846688281611857341361741547
BHH3 = 0.220588235294117647058823529412e-1
E3_1 = B1 - BHH1
E3_9 = B9 - BHH2
E3_12 = B12 - BHH3
ER1 = 0.1312004499419488073250102996e-1
ER6 = -0.1225156446376204440720569753e+1
ER7 = -0.4957589496572501915214079952
ER8 = 0.1664377182454986536961530415e+1
ER9 = -0.3503288487499736816886487290
ER10 = 0.3341791187130174790297318841
ER11 = 0.8192320648511571246570742613e-1
ER12 = -0.2235530786388629525884427845e-1

# dense output: three more stages, and the rows D4..D7 of the 7th-order
# interpolant
A141 = 5.61675022830479523392909219681e-2
A147 = 2.53500210216624811088794765333e-1
A148 = -2.46239037470802489917441475441e-1
A149 = -1.24191423263816360469010140626e-1
A1410 = 1.5329179827876569731206322685e-1
A1411 = 8.20105229563468988491666602057e-3
A1412 = 7.56789766054569976138603589584e-3
A1413 = -8.298e-3
A151 = 3.18346481635021405060768473261e-2
A156 = 2.83009096723667755288322961402e-2
A157 = 5.35419883074385676223797384372e-2
A158 = -5.49237485713909884646569340306e-2
A1511 = -1.08347328697249322858509316994e-4
A1512 = 3.82571090835658412954920192323e-4
A1513 = -3.40465008687404560802977114492e-4
A1514 = 1.41312443674632500278074618366e-1
A161 = -4.28896301583791923408573538692e-1
A166 = -4.69762141536116384314449447206
A167 = 7.68342119606259904184240953878
A168 = 4.06898981839711007970213554331
A169 = 3.56727187455281109270669543021e-1
A1613 = -1.39902416515901462129418009734e-3
A1614 = 2.9475147891527723389556272149
A1615 = -9.15095847217987001081870187138
D41 = -0.84289382761090128651353491142e+1
D46 = 0.56671495351937776962531783590
D47 = -0.30689499459498916912797304727e+1
D48 = 0.23846676565120698287728149680e+1
D49 = 0.21170345824450282767155149946e+1
D410 = -0.87139158377797299206789907490
D411 = 0.22404374302607882758541771650e+1
D412 = 0.63157877876946881815570249290
D413 = -0.88990336451333310820698117400e-1
D414 = 0.18148505520854727256656404962e+2
D415 = -0.91946323924783554000451984436e+1
D416 = -0.44360363875948939664310572000e+1
D51 = 0.10427508642579134603413151009e+2
D56 = 0.24228349177525818288430175319e+3
D57 = 0.16520045171727028198505394887e+3
D58 = -0.37454675472269020279518312152e+3
D59 = -0.22113666853125306036270938578e+2
D510 = 0.77334326684722638389603898808e+1
D511 = -0.30674084731089398182061213626e+2
D512 = -0.93321305264302278729567221706e+1
D513 = 0.15697238121770843886131091075e+2
D514 = -0.31139403219565177677282850411e+2
D515 = -0.93529243588444783865713862664e+1
D516 = 0.35816841486394083752465898540e+2
D61 = 0.19985053242002433820987653617e+2
D66 = -0.38703730874935176555105901742e+3
D67 = -0.18917813819516756882830838328e+3
D68 = 0.52780815920542364900561016686e+3
D69 = -0.11573902539959630126141871134e+2
D610 = 0.68812326946963000169666922661e+1
D611 = -0.10006050966910838403183860980e+1
D612 = 0.77771377980534432092869265740
D613 = -0.27782057523535084065932004339e+1
D614 = -0.60196695231264120758267380846e+2
D615 = 0.84320405506677161018159903784e+2
D616 = 0.11992291136182789328035130030e+2
D71 = -0.25693933462703749003312586129e+2
D76 = -0.15418974869023643374053993627e+3
D77 = -0.23152937917604549567536039109e+3
D78 = 0.35763911791061412378285349910e+3
D79 = 0.93405324183624310003907691704e+2
D710 = -0.37458323136451633156875139351e+2
D711 = 0.10409964950896230045147246184e+3
D712 = 0.29840293426660503123344363579e+2
D713 = -0.43533456590011143754432175058e+2
D714 = 0.96324553959188282948394950600e+2
D715 = -0.39177261675615439165231486172e+2
D716 = -0.14972683625798562581422125276e+3


def integrate(rhs, t0: float, t1: float, y: tuple, times: list, rtol: float,
              atol: float, max_step: float):
    """Integrate from t0 to t1 > t0; returns (states at times, state at t1).

    y and every state are tuples (f, g, varphi, p) of complex.  times is an
    increasing list inside (t0, t1]; a time that ends a step gets that
    step's state, any other the dense output of the step across it.

    Raises NumericalError, with the time where the step failed, once the
    step size falls below 10 ulps of t.  A non-finite error norm rejects
    the step, so a NaN state is never accepted.  Exceptions raised by rhs
    propagate unchanged.
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
    k0 = rhs(t0 + h0, y[0] + h0 * k[0], y[1] + h0 * k[1], y[2] + h0 * k[2])
    d2 = rms([b - a for a, b in zip(k, k0)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, interval, max_step)
