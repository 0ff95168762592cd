"""Reference sums written apart from the library, used to check its outputs.

Nothing here calls the library's pipeline.  The Gaussian-split Ewald sum
uses erfc in real space and exact exponentials in Fourier space; the
per-particle far-field stress is an exact mode sum of the prolate far-field
kernel, whose definition (the splitting basis) is the one thing taken from
the library, because it defines the kernel being summed.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.spatial import cKDTree
from scipy.special import erfc

# sqrt(alpha) * r_cut = 4.2 puts erfc at the real-space cutoff at 3e-9, and
# k_cut = 2 sqrt(alpha) * 4.2 puts exp(-k^2 / 4 alpha) at the Fourier cutoff at
# 2e-8; README.md records the self-consistency probe behind these.
EWALD_ACCURACY = 4.2
PAIR_CHUNK = 1 << 20
SAMPLE_CHUNK = 64


def minimum_image(dr, lengths):
    return dr - lengths * np.round(dr / lengths)


def half_space_modes(lengths, k_cut):
    """Integer mode triples with one of each +-k pair kept, and their weights.

    Every quantity summed here is even in k, so the kept half counts twice,
    except the m_x = 0 plane, which holds both members of each pair.
    """
    m_max = np.ceil(k_cut * lengths / (2.0 * np.pi)).astype(int)
    mx = np.arange(0, m_max[0] + 1)
    my = np.arange(-m_max[1], m_max[1] + 1)
    mz = np.arange(-m_max[2], m_max[2] + 1)
    m = np.stack(np.meshgrid(mx, my, mz, indexing="ij"), axis=-1).reshape(-1, 3)
    k = 2.0 * np.pi * m / lengths
    k2 = np.einsum("ij,ij->i", k, k)
    keep = (k2 <= k_cut * k_cut) & (k2 > 0.0)
    weight = np.where(m[keep, 0] == 0, 1.0, 2.0)
    return m[keep], k[keep], k2[keep], weight


def structure_factor(positions, charges, lengths, modes):
    """S(k) = sum_j q_j exp(-i k r_j) for integer mode triples ``modes``.

    exp(-i k r) factorises over the three axes, so each factor is an exact
    exponential and the sum over particles is one matrix product per m_x.
    """
    ranges = [np.arange(modes[:, d].min(), modes[:, d].max() + 1) for d in range(3)]
    phase = [np.exp(-2j * np.pi * np.outer(r, positions[:, d] / lengths[d]))
             for d, r in enumerate(ranges)]
    ex, ey, ez = phase
    table = np.empty((ranges[0].size, ranges[1].size, ranges[2].size), complex)
    for a in range(ranges[0].size):
        table[a] = (ey * (charges * ex[a])) @ ez.T
    idx = [modes[:, d] - ranges[d][0] for d in range(3)]
    return table[idx[0], idx[1], idx[2]]


def ewald(positions, charges, lengths, r_cut, sample):
    """Gaussian-split Ewald energy, pressure tensor, and forces on ``sample``.

    Orthorhombic cell, conducting boundary, neutral system.  Returns
    (energy, pressure (3x3, potential part), forces on the sampled particles).
    """
    positions = np.asarray(positions, float)
    charges = np.asarray(charges, float)
    lengths = np.asarray(lengths, float)
    if r_cut >= 0.5 * lengths.min():
        raise ValueError("Ewald real-space cutoff must stay below half the box")
    if abs(charges.sum()) > 1e-9 * np.abs(charges).sum():
        raise ValueError("the reference Ewald sum assumes a neutral system")
    V = float(np.prod(lengths))
    sqrt_a = EWALD_ACCURACY / r_cut
    alpha = sqrt_a * sqrt_a
    k_cut = 2.0 * sqrt_a * EWALD_ACCURACY

    # Real space over unordered pairs, in chunks to bound memory.
    pos = np.mod(positions, lengths)
    pairs = cKDTree(pos, boxsize=lengths).query_pairs(r_cut, output_type="ndarray")
    e_real = 0.0
    p_real = np.zeros((3, 3))
    for lo in range(0, len(pairs), PAIR_CHUNK):
        i, j = pairs[lo:lo + PAIR_CHUNK].T
        dr = minimum_image(pos[i] - pos[j], lengths)
        r = np.sqrt(np.einsum("ij,ij->i", dr, dr))
        qq = charges[i] * charges[j]
        screened = qq * erfc(sqrt_a * r) / r
        e_real += float(np.sum(screened))
        fw = (screened + qq * 2.0 * sqrt_a / np.sqrt(np.pi)
              * np.exp(-alpha * r * r)) / r**2
        p_real += (dr.T * fw) @ dr / V

    modes, k, k2, weight = half_space_modes(lengths, k_cut)
    s = structure_factor(pos, charges, lengths, modes)
    green = weight * 4.0 * np.pi * np.exp(-k2 / (4.0 * alpha)) / k2
    amp2 = np.abs(s) ** 2
    e_four = float(np.sum(green * amp2) / (2.0 * V))
    wk = green * amp2 / (2.0 * V * V)
    p_four = np.sum(wk) * np.eye(3) - np.einsum(
        "k,ka,kb->ab", 2.0 * (1.0 / k2 + 1.0 / (4.0 * alpha)) * wk, k, k)

    sample = np.asarray(sample, int)
    f_sample = np.zeros((sample.size, 3))
    for lo in range(0, sample.size, SAMPLE_CHUNK):
        part = sample[lo:lo + SAMPLE_CHUNK]
        dr = minimum_image(pos[part, None, :] - pos[None, :, :], lengths)
        r = np.sqrt(np.einsum("sjd,sjd->sj", dr, dr))
        r[(r == 0.0) | (r > r_cut)] = np.inf  # the particle itself, and beyond r_cut
        fw = charges[None, :] * (erfc(sqrt_a * r) / r + 2.0 * sqrt_a / np.sqrt(np.pi)
                                 * np.exp(-alpha * r * r)) / r**2
        f_real = np.einsum("sj,sjd->sd", fw, dr)
        # Fourier part: (1/V) sum_k G(k) k Im[S(k) exp(i k r_i)], S from exp(-i k r).
        im = np.imag(np.exp(1j * (pos[part] @ k.T)) * s[None, :])
        f_sample[lo:lo + SAMPLE_CHUNK] = charges[part, None] * (f_real + (im * green) @ k / V)

    e_self = -sqrt_a / np.sqrt(np.pi) * float(np.sum(charges * charges))
    energy = e_real + e_four + e_self
    pressure = p_real + p_four
    return energy, 0.5 * (pressure + pressure.T), f_sample


def prolate_fhat(basis, r_c, k):
    """Far-field transform 2 pi lambda0 psi_0(k r_c / c) / (C0 k^2) and d/dk."""
    coef = basis.legendre_coeffs
    x = np.minimum(k * r_c / basis.c, 1.0)
    pref = 2.0 * np.pi * basis.lambda0 / basis.C0
    psi = npleg.legval(x, coef)
    dpsi = npleg.legval(x, npleg.legder(coef))
    fhat = pref * psi / k**2
    dfhat = pref * (dpsi * (r_c / basis.c) / k**2 - 2.0 * psi / k**3)
    return fhat, dfhat


def prolate_self_energy(basis, r_c, charges):
    """-(1/2) F(0) sum q^2, with F(0) = psi_0(0) / (C0 r_c) the far field at r = 0."""
    psi0 = npleg.legval(0.0, basis.legendre_coeffs)
    return -0.5 * psi0 / (basis.C0 * r_c) * float(np.sum(np.square(charges)))


def prolate_local_stress(positions, charges, lengths, basis, r_c, sample):
    """Exact mode sum of per-particle far-field pressure tensors.

    For a radial kernel with transform f(k), the far-field pressure is
    (1/2V^2) sum_k |S(k)|^2 [f(k) delta_ab + k_a k_b f'(k) / k]; particle i's
    share replaces |S(k)|^2 with q_i Re[S(k) exp(i k r_i)].  Returns
    (tensors of the sampled particles, the global tensor).
    """
    positions = np.asarray(positions, float)
    lengths = np.asarray(lengths, float)
    V = float(np.prod(lengths))
    k_cut = basis.c / r_c
    pos = np.mod(positions, lengths)
    modes, k, k2, weight = half_space_modes(lengths, k_cut)
    kmag = np.sqrt(k2)
    fhat, dfhat = prolate_fhat(basis, r_c, kmag)
    s = structure_factor(pos, charges, lengths, modes)

    def tensor(amp):
        w = weight * amp / (2.0 * V * V)
        return (np.sum(w * fhat, axis=-1)[..., None, None] * np.eye(3)
                + np.einsum("...k,ka,kb->...ab", w * dfhat / kmag, k, k))

    sample = np.asarray(sample)
    share = charges[sample, None] * np.real(s[None, :] * np.exp(1j * (pos[sample] @ k.T)))
    return tensor(share), tensor(np.abs(s) ** 2)


def softcore(positions, lengths, coeff, cutoff):
    """Shifted A/r^12 repulsion over all pairs: (energy, pressure tensor)."""
    pos = np.asarray(positions, float)
    i, j = np.triu_indices(len(pos), k=1)
    dr = minimum_image(pos[i] - pos[j], lengths)
    r2 = np.einsum("ij,ij->i", dr, dr)
    keep = r2 <= cutoff * cutoff
    dr, r2 = dr[keep], r2[keep]
    energy = float(np.sum(coeff / r2**6 - coeff / cutoff**12))
    fmag = 12.0 * coeff / r2**7
    return energy, (dr.T * fmag) @ dr / float(np.prod(lengths))


def relative_deviation(value, reference):
    value = np.asarray(value, float)
    reference = np.asarray(reference, float)
    return float(np.linalg.norm(value - reference) / np.linalg.norm(reference))
