"""Real-coordinate embedding of block-Hermitian matrix spaces.

Every builtin non-polytope model represents a system as a direct sum of N
Hermitian blocks of one size n (complex, or real symmetric for real quantum
systems).  The sectors of a sectorized theory are isomorphic, since only
then can reversibles exchange them, so `BlockStructure` refuses blocks of
unequal size and a model's blocks are one (N, n, n) stack throughout: block
b holds the Hilbert indices b*n to (b+1)*n, and the eigensolvers and
products below act on the whole stack in one call.  A block is embedded
isometrically into n^2 real coordinates: the n diagonal entries first, then
for every upper pair (i, j), i < j, in row-major order the two numbers
sqrt(2)*Re H_ij and sqrt(2)*Im H_ij.  Real blocks drop the imaginary
coordinate.  Under this embedding the trace inner product <A, B> = tr(AB)
becomes the Euclidean dot product, which is what makes states and their
dagger effects share coordinates downstream.

Index maps.  No conversion loops over entries or blocks.  For each block
size and field a cached set of index arrays ties every coordinate to a
position in the float view of the block (a complex n x n matrix seen as
2n^2 floats, real part first).  Embedding is one gather from that view of
every block of the stack times a {1, sqrt(2)} vector; the inverse is one
scatter of x[src] / div with div in {1, sqrt(2), -sqrt(2)} into a zeroed
stack, which writes both triangles.  Division by sqrt(2) (never
multiplication by its inverse) keeps every entry bit-identical to the
entrywise formula.  The maps come from one cached table of each
coordinate's entry (row, column, real or imaginary part) in the full
Hilbert-space matrix, one block's table shifted by b*n to block b.  Read in
the stack's layout, where entry (r, c) sits in row r of the stack at column
c mod n, the table converts coordinates to and from the stack; read in the
full matrix's, to and from that matrix, and a cached mask of the off-block
entries gives the residual that `total_to_vec` reports.

Conjugation in closed form.  Coordinate j has the basis matrix
E_j = sum_b c_jb |s_jb><t_jb| with at most two terms (|p><p| on the
diagonal, (|p><q| + |q><p|)/sqrt(2) and i(|p><q| - |q><p|)/sqrt(2) off
it), and coordinate i reads Y as Re(r_i Y[p_i, q_i]) with r_i in
{1, sqrt(2), -i sqrt(2)}.  The matrix of X -> sum_K K X K† is therefore

    M[i, j] = Re sum_K sum_b r_i c_jb K[p_i, s_jb] conj(K[q_i, t_jb]),

a gather of Kraus entries (the natural representation of the map,
restricted to the block coordinates; Watrous, The Theory of Quantum
Information, ch. 2).  Row i and column j read K only at rows of i's block
and columns of j's, so the (target, source) block pair of M is the same
formula over the operator's (target, source) sub-block with one block's
terms.  A reversible of a sectorized theory moves whole blocks, so its M is
zero outside N of the N^2 block pairs; `conjugation_matrices` builds such
structures (several blocks, at least PAIR_COORDS coordinates) by block
pairs, skips the sub-blocks whose entries are all exactly zero and fills
the rest with the same operations, so every entry keeps its bits.  Smaller
structures keep one full-space pass, whose fewer numpy calls measured
faster there.  Either way M is filled CONJ_ELEMENTS entries at a time
(a slice of columns over all rows), so besides the result the temporaries
stay at a few 128 KiB complex arrays plus two row gathers of K.  A stack
of t operators goes through the same pass as t x D rows, one matrix per
operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

_SQRT2 = np.sqrt(2.0)

# Entries of the conjugation matrices computed per pass, over all rows of a
# stack: complex temporaries of at most 128 KiB, the size 32 columns gave
# at D = 256.  Set by measurement (CHANGES.md): in a fresh process, wider
# passes ran up to 2.4x slower at D = 121 to 529, narrower ones slower at
# D = 2048.
CONJ_ELEMENTS = 1 << 13
# Coordinates from which a structure of several blocks has its conjugation
# matrices built by block pairs.  Set by measurement (CHANGES.md): below it
# the split's few extra numpy calls cost more than the skipped blocks save.
PAIR_COORDS = 64


@dataclass(frozen=True)
class BlockStructure:
    """N Hermitian blocks of one size n, `dims` = (n,) * N, over the scalar
    field; unequal sizes raise ValueError.  The sizes below and the hash
    are computed once per structure and kept; they are not fields, so
    equality reads `dims` and `field` only, and the hash is theirs.  A
    pickled structure is built anew, so it carries no kept hash into a
    process whose string hashes differ."""

    dims: tuple[int, ...]
    field: str = "C"  # 'C' complex Hermitian, 'R' real symmetric

    def __post_init__(self):
        if self.field not in ("C", "R"):
            raise ValueError(f"unknown field {self.field!r}")
        if not self.dims or any(n < 1 for n in self.dims):
            raise ValueError("block dims must be positive")
        if len(set(self.dims)) > 1:
            raise ValueError(f"blocks must have equal dimensions, got {self.dims}")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return BlockStructure, (self.dims, self.field)

    @cached_property
    def _hash(self) -> int:
        return hash((self.dims, self.field))

    @cached_property
    def n(self) -> int:
        """The size of every block."""
        return self.dims[0]

    @cached_property
    def block_count(self) -> int:
        return len(self.dims)

    @cached_property
    def block_coord_dim(self) -> int:
        return self.n * self.n if self.field == "C" else self.n * (self.n + 1) // 2

    @cached_property
    def coord_dim(self) -> int:
        return self.block_count * self.block_coord_dim

    @cached_property
    def hilbert_dim(self) -> int:
        return self.block_count * self.n


# ---------------------------------------------------------------------------
# index maps


class _Maps(NamedTuple):
    read: np.ndarray     # float-view position of each coordinate (upper triangle)
    mul: np.ndarray      # 1 on the diagonal, sqrt(2) off it
    dst: np.ndarray      # float-view positions written by the inverse (both triangles)
    src: np.ndarray      # coordinate written to each dst
    div: np.ndarray      # 1, sqrt(2), or -sqrt(2) for the lower imaginary parts
    offblock: np.ndarray  # mask of the entries outside every block


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _coords(structure: BlockStructure):
    """Row, column and part (0 real, 1 imaginary) of every coordinate, as an
    entry of the full Hilbert-space matrix: one block's table, shifted by
    b*n to block b."""
    n = structure.n
    iu, ju = np.triu_indices(n, 1)
    if structure.field == "C":
        iu, ju = np.repeat(iu, 2), np.repeat(ju, 2)
        im = np.tile([0, 1], len(iu) // 2)
    else:
        im = np.zeros(len(iu), int)
    diag = np.arange(n)
    shift = n * np.arange(structure.block_count)[:, None]
    return _frozen((np.concatenate([diag, iu]) + shift).ravel(),
                   (np.concatenate([diag, ju]) + shift).ravel(),
                   np.tile(np.concatenate([np.zeros(n, int), im]),
                           structure.block_count))


@lru_cache(maxsize=None)
def _maps(structure: BlockStructure, stacked: bool) -> _Maps:
    """Gather and scatter maps over the flat float view of the (N, n, n)
    block stack when `stacked`, else of the full Hilbert-space matrix.
    Entry (r, c) of the full matrix is (r, c mod n) of the stack's rows."""
    rows, cols, part = _coords(structure)
    DH = structure.hilbert_dim
    L = structure.n if stacked else DH
    width = 2 if structure.field == "C" else 1
    diag = rows == cols
    read = (rows * L + cols % L) * width + part
    mul = np.where(diag, 1.0, _SQRT2)
    off = ~diag
    lower = (cols[off] * L + rows[off] % L) * width + part[off]
    k = np.arange(len(rows))
    block = np.arange(DH) // structure.n
    return _Maps(*_frozen(
        read, mul,
        np.concatenate([read, lower]),
        np.concatenate([k, k[off]]),
        np.concatenate([mul, np.where(part[off] == 1, -_SQRT2, _SQRT2)]),
        block[:, None] != block))


@lru_cache(maxsize=None)
def _herm_maps(n: int, field: str) -> _Maps:
    return _maps(BlockStructure((n,), field), True)


def _float_view(M: np.ndarray, field: str) -> np.ndarray:
    """Flat float view of a matrix or a stack, as the index maps address
    it."""
    if field == "C":
        return np.ascontiguousarray(M, dtype=complex).reshape(-1).view(float)
    return np.ascontiguousarray(np.real(M), dtype=float).reshape(-1)


def _scatter(x: np.ndarray, shape: tuple, field: str, maps: _Maps) -> np.ndarray:
    H = np.zeros(shape, dtype=complex if field == "C" else float)
    H.reshape(-1).view(float)[maps.dst] = x[maps.src] / maps.div
    return H


# ---------------------------------------------------------------------------
# conversions


def blocks_to_vec(blocks, structure: BlockStructure) -> np.ndarray:
    """Coordinates of a stack of blocks, shape (N, n, n): one gather."""
    B = np.asarray(blocks)
    if B.shape != (structure.block_count, structure.n, structure.n):
        raise ValueError("blocks do not match the block structure")
    maps = _maps(structure, True)
    return _float_view(B, structure.field)[maps.read] * maps.mul


def vec_to_blocks(x: np.ndarray, structure: BlockStructure) -> np.ndarray:
    """The blocks of coordinates x as one (N, n, n) stack: one scatter."""
    x = np.asarray(x, dtype=float)
    if x.shape != (structure.coord_dim,):
        raise ValueError("coordinate length mismatch")
    return _scatter(x, (structure.block_count, structure.n, structure.n),
                    structure.field, _maps(structure, True))


def vec_to_total(x: np.ndarray, structure: BlockStructure) -> np.ndarray:
    """Full Hilbert-space matrix: blocks on the diagonal, zeros across blocks."""
    x = np.asarray(x, dtype=float)
    if x.shape != (structure.coord_dim,):
        raise ValueError("coordinate length mismatch")
    return _scatter(x, (structure.hilbert_dim,) * 2, structure.field,
                    _maps(structure, False))


def total_to_vec(M: np.ndarray, structure: BlockStructure):
    """Project a Hilbert-space matrix back to block coordinates.

    Returns the coordinates and the largest absolute entry outside the
    blocks (0.0 for one block), so callers can detect superselection
    violations instead of silently discarding them.
    """
    M = np.asarray(M)
    DH = structure.hilbert_dim
    if M.shape != (DH, DH):
        raise ValueError("matrix shape mismatch")
    maps = _maps(structure, False)
    x = _float_view(M, structure.field)[maps.read] * maps.mul
    if structure.block_count == 1:
        return x, 0.0
    return x, float(np.abs(M[maps.offblock]).max())


@lru_cache(maxsize=None)
def _conjugation_terms(structure: BlockStructure):
    """Row reads (p, q, r) and two-term column bases (s, t, c) of the
    closed form in the module docstring, over the full Hilbert space."""
    p, q, part = _coords(structure)
    im = part == 1
    diag = p == q
    r = np.where(diag, 1.0, _SQRT2) * np.where(im, -1j, 1.0)
    # off-diagonal bases: c |p><q| + conj(c) |q><p| with c = 1/sqrt2 or i/sqrt2;
    # the diagonal basis |p><p| keeps its second term at zero weight
    c0 = np.where(diag, 1.0, 1.0 / _SQRT2) * np.where(im, 1j, 1.0)
    c1 = np.where(diag, 0.0, np.conj(c0))
    s = np.stack([p, q])
    t = np.stack([q, p])
    c = np.stack([c0, c1])
    if structure.field == "R":
        r, c = r.real, c.real
    return _frozen(p, q, r, s, t, c)


@lru_cache(maxsize=None)
def _layout(structure: BlockStructure):
    """The closed-form terms `conjugation_matrices` runs on a structure, and
    whether it runs them by block pairs: one block's terms with several
    blocks and at least PAIR_COORDS coordinates, else the structure's."""
    if structure.block_count > 1 and structure.coord_dim >= PAIR_COORDS:
        return _conjugation_terms(BlockStructure((structure.n,),
                                                 structure.field)), True
    return _conjugation_terms(structure), False


def _closed_form(ops: np.ndarray, terms):
    """The closed form of the module docstring for a stack of operators and
    one set of terms: yields each column slice and the real parts of that
    slice of every operator's matrix, the stack's rows one after another,
    so a stack of one is plain 2-d work.  A slice holds at most
    CONJ_ELEMENTS entries over all rows, and at least one column."""
    p, q, r, s, t, c = terms
    rows = len(ops) * len(p)
    Kp = (r[:, None] * ops[:, p]).reshape(rows, ops.shape[2])
    Kq = ops[:, q].conj().reshape(rows, ops.shape[2])
    width = max(1, CONJ_ELEMENTS // max(rows, 1))
    for j0 in range(0, len(p), width):
        js = slice(j0, j0 + width)
        acc = Kp[:, s[0, js]] * c[0, js] * Kq[:, t[0, js]]
        acc += Kp[:, s[1, js]] * c[1, js] * Kq[:, t[1, js]]
        yield js, acc.real


def conjugation_matrices(ops: np.ndarray, structure: BlockStructure,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Real coordinate matrices of X -> K X K†, one per operator K of a
    stack (t, H, H), as a stack (t, D, D); added into `out` when given.

    The operators act on the total Hilbert space; each image is projected
    back onto the block structure, and any part of it across blocks is
    dropped without a word.  So an operator that sends one block into more
    than one has no faithful matrix here.  `core._check_block_transport`
    refuses such operators: the `ChannelMap` constructor runs it on a
    channel given by its Kraus form alone, and `core.tensor_channels` on
    every lifted operator.
    Computed in closed form (module docstring), CONJ_ELEMENTS entries of
    all rows at a time, with the same elementwise operations for every
    height of stack and either layout, so each matrix has the bits a stack
    of one gives it.  With several blocks and PAIR_COORDS coordinates or
    more, the layout is by block pairs: the (target, source) block of a
    matrix reads only the (target, source) sub-block of its operator, so
    the nonzero sub-blocks of the stack go through one block's terms as
    one stack and are added into their places, and a sub-block whose
    entries are all exactly zero is skipped: its entries would be zeros of
    either sign, and adding them leaves an `out` summed from zeros (as
    every caller passes it) unchanged.  Smaller structures and one block
    keep the single full-space pass, which measured faster there.
    """
    D = structure.coord_dim
    ops = np.asarray(ops)
    if out is None:
        out = np.zeros((len(ops), D, D))
    terms, pairs = _layout(structure)
    if not pairs:
        flat = out.reshape(-1, D)
        for js, part in _closed_form(ops, terms):
            flat[:, js] += part
        return out
    N, n, d = structure.block_count, structure.n, structure.block_coord_dim
    sub = ops.reshape(len(ops), N, n, N, n)
    k, a, b = np.nonzero((sub != 0).any(axis=(2, 4)))
    grid = out.reshape(len(ops), N, d, N, d)
    for js, part in _closed_form(sub[k, a, :, b], terms):
        grid[k, a, :, b, js] += part.reshape(len(k), d, part.shape[1])
    return out


def conjugation_matrix(kraus: list[np.ndarray], structure: BlockStructure) -> np.ndarray:
    """Real coordinate matrix of X -> sum_k K X K† for block-structured X:
    `conjugation_matrices` of each operator in turn, summed into one
    D x D matrix, so memory stays at one result plus the sliced
    temporaries."""
    D = structure.coord_dim
    M = np.zeros((1, D, D))
    for K in kraus:
        conjugation_matrices(np.asarray(K)[None], structure, out=M)
    return M[0]


def block_eigh(x: np.ndarray, structure: BlockStructure):
    """Eigendecompose coordinates: one np.linalg.eigh of the (N, n, n)
    block stack.

    Returns its (w, V): ascending eigenvalues w, shape (N, n), and the unit
    eigenvectors as the columns of each V[b], shape (N, n, n), each living
    inside its own block; the bits are those of eigh on each block alone.
    It and `block_eigvalsh` are the only eigensolvers of block coordinates.
    A matrix-model state runs it once, in its cone check, and keeps (w, V)
    for its diagonalizations and support.
    """
    return np.linalg.eigh(vec_to_blocks(x, structure))


def block_eigvalsh(x: np.ndarray, structure: BlockStructure) -> np.ndarray:
    """Ascending eigenvalues of each block, shape (N, n): one
    np.linalg.eigvalsh of the block stack."""
    return np.linalg.eigvalsh(vec_to_blocks(x, structure))


def canonical_rows(V: np.ndarray) -> np.ndarray:
    """The columns of V as the rows of a new read-only array, each put in
    canonical phase (its first entry above 1e-10 in absolute value made real
    and positive) and then scaled to unit length.  A column whose norm falls
    below 1e-15 is refused."""
    V = np.asarray(V)
    cols = np.arange(V.shape[1])
    big = np.abs(V) > 1e-10
    first = big.argmax(axis=0)
    lead = V[first, cols]
    lead[~big[first, cols]] = 1  # no entry above 1e-10: the phase stays 1
    U = (V * (np.abs(lead) / lead)).T.copy()
    # the sums np.linalg.norm forms, one batched product for all rows (per
    # part when complex): the bits of a dot product per row
    parts = (U.real, U.imag) if np.iscomplexobj(U) else (U,)
    nrm = np.sqrt(sum(P[:, None, :] @ P[:, :, None] for P in parts)).reshape(-1)
    if (nrm < 1e-15).any():
        raise ValueError("zero vector")
    U /= nrm[:, None]
    U.setflags(write=False)
    return U


def rank_one_coords(structure: BlockStructure, block,
                    U: np.ndarray) -> np.ndarray:
    """Coordinates of the rank-one matrices |u><u|, one row per row u of U,
    each in its block: `block` is one block index for every row or an
    array of one per row.  One broadcast, one gather and one scatter."""
    k, n = U.shape
    P = (U[:, :, None] * U[:, None, :].conj()).reshape(k, n * n)
    if structure.field == "C":
        P = P.astype(complex, copy=False).view(float)
    maps = _herm_maps(n, structure.field)
    x = np.zeros((k, structure.block_count, maps.read.size))
    x[np.arange(k), block] = P.real[:, maps.read] * maps.mul
    return x.reshape(k, structure.coord_dim)


def total_vectors(structure: BlockStructure, block: np.ndarray,
                  U: np.ndarray) -> np.ndarray:
    """The rows u of U, each placed in its block of the array `block` and
    zero elsewhere: one row of the total Hilbert space per row of U, real
    or complex with the structure's field."""
    k = len(U)
    T = np.zeros((k, structure.block_count, structure.n),
                 dtype=complex if structure.field == "C" else float)
    T[np.arange(k), block] = U
    return T.reshape(k, structure.hilbert_dim)


def pure_block_coords(structure: BlockStructure, block: int,
                      V: np.ndarray) -> np.ndarray:
    """Coordinates of the rank-one states |v><v|, one row per column v of V,
    each column first put in canonical phase and unit length
    (`canonical_rows`)."""
    V = np.asarray(V)
    if V.ndim != 2 or V.shape[0] != structure.n:
        raise ValueError("vectors do not fit the block")
    return rank_one_coords(structure, block, canonical_rows(V))


def pure_block_vec(structure: BlockStructure, block: int, psi: np.ndarray) -> np.ndarray:
    """Coordinates of the rank-one state |psi><psi| supported in one block."""
    psi = np.asarray(psi)
    if psi.shape != (structure.n,):
        raise ValueError("vector does not fit the block")
    return pure_block_coords(structure, block, psi[:, None])[0]
