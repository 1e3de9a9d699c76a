"""right_zeros against the per-class loop it replaced, kept here as the
reference: the companion polynomial summed pair by pair, the clustering
scan over every class, one div_quotient_right by psi per non-real class
and one eval_right per real class, all over Quaternion objects.  The
array pass does the same arithmetic in the same order, so outcomes must
be equal: the same exception and message, or the same zeros, classes and
warnings, compared exactly."""

import math

import numpy as np
import pytest

from qctl import (IllConditioned, QPoly, Quaternion, SimilarityClass,
                  companion_polynomial, div_quotient_right, eval_right,
                  pmul, right_zeros)
import gen


def _companion_loop(a):
    n = len(a.coeffs)
    out = [0.0] * (2 * n - 1)
    for i in range(n):
        ci = a.coeffs[i]
        out[2 * i] += ci.norm2()
        for j in range(i + 1, n):
            cj = a.coeffs[j]
            out[i + j] += 2.0 * (ci.w * cj.w + ci.x * cj.x
                                 + ci.y * cj.y + ci.z * cj.z)
    return out


def _cluster_loop(roots, tol):
    classes = []
    for re, im in sorted((r.real, abs(r.imag)) for r in roots):
        for idx, (cre, cim, cnt) in enumerate(classes):
            scale = max(1.0, math.hypot(re, im), math.hypot(cre, cim))
            if abs(re - cre) <= tol * scale and abs(im - cim) <= tol * scale:
                classes[idx] = ((cre * cnt + re) / (cnt + 1),
                                (cim * cnt + im) / (cnt + 1), cnt + 1)
                break
        else:
            classes.append((re, im, 1))
    return [(re, im) for re, im, _ in classes]


def _eval_scale(a, x):
    base, s, p = max(1.0, x), 0.0, 1.0
    for c in a.coeffs:
        s += c.norm() * p
        p *= base
    return max(1.0, s)


def _right_zeros_loop(a, tol=1e-9):
    roots = np.roots(_companion_loop(a)[::-1])
    cluster_tol = max(1e-6, 10.0 * tol)
    isolated, spherical, warnings = [], [], []
    a_scale = max(1.0, a.norm_inf())
    for re, im in _cluster_loop(roots, cluster_tol):
        if im <= cluster_tol * max(1.0, math.hypot(re, im)):
            resid = eval_right(a, Quaternion(re)).norm()
            if resid <= tol * _eval_scale(a, abs(re)):
                isolated.append((Quaternion(re), SimilarityClass(re, 0.0)))
            elif resid <= 1e3 * tol * _eval_scale(a, abs(re)):
                isolated.append((Quaternion(re), SimilarityClass(re, 0.0)))
                warnings.append(
                    f"real zero {re:.6g} accepted with residual {resid:.3g}")
            continue
        psi = QPoly([re * re + im * im, -2.0 * re, 1.0])
        _, rem = div_quotient_right(a, psi)
        r0, r1 = rem.coeff(0), rem.coeff(1)
        if r0.norm() <= tol * a_scale and r1.norm() <= tol * a_scale:
            spherical.append(SimilarityClass(re, im))
            continue
        if r1.norm() <= tol * a_scale:
            raise IllConditioned(
                f"degenerate remainder for class ({re:.6g}, {im:.6g})")
        x = -(r1.inverse() * r0)
        miss = (max(abs(x.w - re), abs(x.imag_norm() - im))
                / max(1.0, x.norm()))
        if miss <= tol:
            isolated.append((x, SimilarityClass(re, im)))
        elif miss <= 1e3 * tol:
            isolated.append((x, SimilarityClass(re, im)))
            warnings.append(
                f"zero in class ({re:.6g}, {im:.6g}) accepted with "
                f"class mismatch {miss:.3g}")
        else:
            raise IllConditioned(
                f"candidate zero strays from class ({re:.6g}, {im:.6g}) "
                f"by {miss:.3g}")
    count = len(isolated) + 2 * len(spherical)
    if count > a.degree():
        raise IllConditioned(
            f"{count} zeros found for a polynomial of degree {a.degree()}")
    return isolated, spherical, warnings


def _outcome(fn, a, tol):
    try:
        got = fn(a, tol)
    except IllConditioned as exc:
        return "IllConditioned", str(exc)
    if not isinstance(got, tuple):
        got = got.isolated, got.spherical, got.warnings
    isolated, spherical, warnings = got
    return ([(z.components(), (c.re, c.im_norm)) for z, c in isolated],
            [(c.re, c.im_norm) for c in spherical], warnings)


def _linear_product(zeros):
    out = QPoly([1.0])
    for z in zeros:
        out = pmul(out, QPoly([-z, 1.0]))
    return out


def _near_real(rng, deg):
    # one class whose imaginary norm is near the cluster tolerance
    zeros = [gen.rand_quat(rng, 2.0) for _ in range(deg - 1)]
    return _linear_product([Quaternion(1.5, 1e-4 * rng.random())] + zeros)


def _cases():
    out = []
    for deg in (1, 2, 3, 5, 8, 13, 21, 32, 64):
        out.append((f"random-{deg}", gen.rand_poly(gen.rng_for(9500 + deg),
                                                   deg), 1e-9))
    for deg in (2, 4, 8):
        rng = gen.rng_for(9600 + deg)
        out.append((f"product-{deg}", _linear_product(
            [gen.rand_quat(rng, 2.0) for _ in range(deg)]), 1e-9))
        out.append((f"real-product-{deg}", _linear_product(
            [Quaternion(0.5 + 0.4 * i) for i in range(deg)]), 1e-9))
        out.append((f"near-real-{deg}", _near_real(rng, deg), 1e-9))
        out.append((f"psi-{deg}", pmul(QPoly([2.0, -2.0, 1.0]),
                                       gen.rand_poly(rng, deg)), 1e-9))
        out.append((f"origin-{deg}", QPoly([0.0] + list(
            gen.rand_poly(rng, deg).coeffs)), 1e-9))
        out.append((f"loose-tol-{deg}", gen.rand_poly(rng, deg), 1e-4))
    return out


@pytest.mark.parametrize("label,a,tol", _cases(),
                         ids=[c[0] for c in _cases()])
def test_right_zeros_matches_loop_reference(label, a, tol):
    assert _outcome(right_zeros, a, tol) == _outcome(_right_zeros_loop, a,
                                                     tol)


@pytest.mark.parametrize("deg", [1, 4, 16, 64])
def test_companion_polynomial_matches_loop_reference(deg):
    a = gen.rand_poly(gen.rng_for(9700 + deg), deg)
    assert [c.components() for c in companion_polynomial(a).coeffs] == \
        [(v, 0.0, 0.0, 0.0) for v in _companion_loop(a)]
