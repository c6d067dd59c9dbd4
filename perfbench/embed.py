"""Seeded inputs, written without calling gptt.

The coordinate formula is the one gptt's embedding module documents: a
Hermitian block of dimension n takes n*n real coordinates (n*(n+1)/2 for a
real symmetric block), the diagonal first, then for every upper pair
(i, j), i < j, in row-major order sqrt(2) Re H_ij followed, for complex
blocks, by sqrt(2) Im H_ij.  Blocks are concatenated in order.  Keeping a
copy here means a change to gptt's embedding or samplers cannot change what
the benchmark feeds it.
"""

from __future__ import annotations

import numpy as np

SQRT2 = np.sqrt(2.0)


def _upper(n):
    return np.triu_indices(n, 1)


def herm_to_vec(H, field):
    n = H.shape[0]
    iu, ju = _upper(n)
    off = H[iu, ju]
    if field == "C":
        pairs = np.empty(2 * len(iu))
        pairs[0::2] = SQRT2 * off.real
        pairs[1::2] = SQRT2 * off.imag
    else:
        pairs = SQRT2 * off.real
    return np.concatenate([H.diagonal().real, pairs])


def vec_to_herm(x, n, field):
    iu, ju = _upper(n)
    H = np.zeros((n, n), dtype=complex if field == "C" else float)
    H[np.arange(n), np.arange(n)] = x[:n]
    if field == "C":
        off = (x[n::2] + 1j * x[n + 1::2]) / SQRT2
    else:
        off = x[n:] / SQRT2
    H[iu, ju] = off
    H[ju, iu] = off.conj()
    return H


def block_width(n, field):
    return n * n if field == "C" else n * (n + 1) // 2


def to_vec(blocks, field):
    return np.concatenate([herm_to_vec(np.asarray(B), field) for B in blocks])


def to_blocks(x, dims, field):
    out, pos = [], 0
    for n in dims:
        w = block_width(n, field)
        out.append(vec_to_herm(np.asarray(x[pos:pos + w], dtype=float), n, field))
        pos += w
    return out


def to_total(x, dims, field):
    """Block-diagonal Hilbert-space matrix of a coordinate vector."""
    dH = sum(dims)
    M = np.zeros((dH, dH), dtype=complex if field == "C" else float)
    off = 0
    for B, n in zip(to_blocks(x, dims, field), dims):
        M[off:off + n, off:off + n] = B
        off += n
    return M


def block_diag(mats):
    dH = sum(m.shape[0] for m in mats)
    out = np.zeros((dH, dH), dtype=complex)
    off = 0
    for m in mats:
        n = m.shape[0]
        out[off:off + n, off:off + n] = m
        off += n
    return out


# ---------------------------------------------------------------------------
# random matrices
#
# `ginibre_density` and `unit_vector` draw what `random_density` and
# `random_pure` in tests/oracles.py draw.  They are not imported from there
# because that file loads scipy.optimize, and inputs are made inside the
# timed set-up, where gptt's imports alone must be charged.


def ginibre_density(rng, n, field="C"):
    G = rng.normal(size=(n, n))
    if field == "C":
        G = G + 1j * rng.normal(size=(n, n))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def haar_unitary(rng, n, field="C"):
    Z = rng.normal(size=(n, n))
    if field == "C":
        Z = Z + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def unit_vector(rng, n, field="C"):
    v = rng.normal(size=n)
    if field == "C":
        v = v + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_blocks(rng, dims, field):
    """Generic mixed state: Ginibre blocks with Dirichlet sector weights."""
    w = rng.dirichlet(np.ones(len(dims)))
    return [w[b] * ginibre_density(rng, n, field) for b, n in enumerate(dims)]


def pure_blocks(rng, dims, field):
    """Rank-one state inside one sector, chosen in proportion to its size."""
    b = int(rng.choice(len(dims), p=np.asarray(dims, float) / sum(dims)))
    blocks = [np.zeros((n, n), dtype=complex if field == "C" else float)
              for n in dims]
    v = unit_vector(rng, dims[b], field)
    blocks[b] = np.outer(v, v.conj())
    if field == "R":
        blocks[b] = blocks[b].real
    return blocks


def spectrum_blocks(rng, dims, field, spectra):
    """Blocks with prescribed eigenvalues, rotated by Haar unitaries."""
    out = []
    for n, vals in zip(dims, spectra):
        U = haar_unitary(rng, n, field)
        B = (U * np.asarray(vals, float)) @ U.conj().T
        out.append(B if field == "C" else B.real)
    return out


def residue_perm(nA, nB):
    """Block-order to kron-index map of two two-sector factors.

    Composite sector k holds the factor sector pairs (j, l) with
    j + l = k mod 2, pairs taken in order of j; inside a pair the basis is
    the kron product of the two sectors' bases.
    """
    perm = []
    for k in range(2):
        for j in range(2):
            l = (k - j) % 2
            for i in range(nA):
                for m in range(nB):
                    perm.append((j * nA + i) * (2 * nB) + (l * nB + m))
    return np.asarray(perm)
