"""Properties of the real-coordinate embedding over random block structures.

The references below are written entry by entry from the coordinate formula
in the embedding module's docstring and share no code with the package.
The conversions must match them bit for bit, and so must the stacked
eigensolvers match np.linalg on each block alone.  Their kernel, LAPACK's
gufunc without numpy's wrapper, must give np.linalg's bits, refuse a NaN
eigenvalue, warn nowhere np.linalg does not, and see every block
eigensolve of a request.  The closed-form conjugation matrix must match
explicit Kraus conjugation to 1e-12, and its block-pair layout the
full-space pass kept in `oracles` bit for bit.
"""

import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gptt import core, embedding, resource, spectral, thermo, zoo
from gptt.embedding import (
    BlockStructure,
    block_eigh,
    block_eigvalsh,
    blocks_to_vec,
    canonical_rows,
    conjugation_matrices,
    conjugation_matrix,
    pure_block_coords,
    pure_block_vec,
    total_to_vec,
    vec_to_blocks,
    vec_to_total,
)
from golden_cli import OFF_DIAGONAL_H
import oracles

SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# entrywise references


def ref_herm_to_vec(H, field):
    n = H.shape[0]
    out = [H[i, i].real for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            out.append(SQRT2 * H[i, j].real)
            if field == "C":
                out.append(SQRT2 * H[i, j].imag)
    return np.array(out, dtype=float)


def ref_vec_to_herm(x, n, field):
    H = np.zeros((n, n), dtype=complex if field == "C" else float)
    for i in range(n):
        H[i, i] = x[i]
    k = n
    for i in range(n):
        for j in range(i + 1, n):
            re = x[k] / SQRT2
            k += 1
            if field == "C":
                im = x[k] / SQRT2
                k += 1
                H[i, j] = re + 1j * im
                H[j, i] = re - 1j * im
            else:
                H[i, j] = H[j, i] = re
    return H


def ref_block_widths(dims, field):
    return [n * n if field == "C" else n * (n + 1) // 2 for n in dims]


def ref_total(x, dims, field):
    """Block-diagonal Hilbert-space matrix of coordinates x."""
    DH = sum(dims)
    M = np.zeros((DH, DH), dtype=complex if field == "C" else float)
    off = pos = 0
    for n, w in zip(dims, ref_block_widths(dims, field)):
        M[off: off + n, off: off + n] = ref_vec_to_herm(x[pos: pos + w], n, field)
        off += n
        pos += w
    return M


def ref_coords(M, dims, field):
    """Coordinates of the diagonal blocks of a Hilbert-space matrix."""
    parts, off = [], 0
    for n in dims:
        parts.append(ref_herm_to_vec(M[off: off + n, off: off + n], field))
        off += n
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def structures(draw, blocks=3, size=5):
    """N equal blocks of size n, 1 <= N <= blocks and 1 <= n <= size."""
    dims = (draw(st.integers(1, size)),) * draw(st.integers(1, blocks))
    return BlockStructure(dims, draw(st.sampled_from(["C", "R"])))


seeds = st.integers(0, 2**32 - 1)


def random_matrix(rng, n, field, scale=1.0):
    G = rng.normal(size=(n, n)) * scale
    if field == "C":
        G = G + 1j * rng.normal(size=(n, n)) * scale
    return G


def random_herm(rng, n, field):
    G = random_matrix(rng, n, field)
    return (G + G.conj().T) / 2


def random_coords(rng, structure):
    x = rng.normal(size=structure.coord_dim)
    x[rng.random(x.shape) < 0.2] = 0.0
    return x


# ---------------------------------------------------------------------------
# properties


@settings(deadline=None, max_examples=150)
@given(structures(), seeds)
def test_block_round_trip_matches_reference(structure, seed):
    rng = np.random.default_rng(seed)
    n, field = structure.n, structure.field
    H = np.array([random_herm(rng, n, field) for _ in structure.dims])
    x = blocks_to_vec(H, structure)
    assert np.array_equal(x, np.concatenate([ref_herm_to_vec(B, field) for B in H]))
    back = vec_to_blocks(x, structure)
    w = structure.block_coord_dim
    for b, B in enumerate(back):
        assert np.array_equal(B, ref_vec_to_herm(x[b * w: (b + 1) * w], n, field))
    # multiplying by sqrt(2) and dividing again may move the last bit
    assert np.abs(back - H).max() <= 4 * np.finfo(float).eps * np.abs(H).max()
    y = random_coords(rng, structure)
    assert np.array_equal(blocks_to_vec(vec_to_blocks(y, structure), structure),
                          np.concatenate([ref_herm_to_vec(ref_vec_to_herm(
                              y[b * w: (b + 1) * w], n, field), field)
                              for b in range(structure.block_count)]))


@settings(deadline=None, max_examples=150)
@given(structures(), seeds)
def test_dot_product_is_trace_inner_product(structure, seed):
    rng = np.random.default_rng(seed)
    x, y = random_coords(rng, structure), random_coords(rng, structure)
    X = ref_total(x, structure.dims, structure.field)
    Y = ref_total(y, structure.dims, structure.field)
    assert abs(x @ y - np.trace(X @ Y).real) <= 1e-12 * (1 + np.abs(x).sum() * np.abs(y).sum())
    A = [random_herm(rng, n, structure.field) for n in structure.dims]
    B = [random_herm(rng, n, structure.field) for n in structure.dims]
    tr = sum(np.trace(a @ b).real for a, b in zip(A, B))
    assert abs(blocks_to_vec(A, structure) @ blocks_to_vec(B, structure) - tr) <= 1e-12 * (
        1 + sum(np.abs(a).sum() * np.abs(b).sum() for a, b in zip(A, B)))


@settings(deadline=None, max_examples=150)
@given(structures(), seeds)
def test_total_round_trip_and_off_block_residual(structure, seed):
    rng = np.random.default_rng(seed)
    dims, field = structure.dims, structure.field
    x = random_coords(rng, structure)
    M = vec_to_total(x, structure)
    assert np.array_equal(M, ref_total(x, dims, field))
    assert M.dtype == (complex if field == "C" else float)
    back, resid = total_to_vec(M, structure)
    assert np.array_equal(back, ref_coords(M, dims, field))
    assert resid == 0.0
    # noise across blocks is dropped from the coordinates and reported
    noise = random_matrix(rng, structure.hilbert_dim, field, scale=1e-3)
    off = 0
    for n in dims:
        noise[off: off + n, off: off + n] = 0.0
        off += n
    x2, resid2 = total_to_vec(M + noise, structure)
    assert np.array_equal(x2, back)
    assert resid2 == np.abs(noise).max()
    assert (resid2 > 0) == (len(dims) > 1)


@settings(deadline=None, max_examples=150)
@given(structures(blocks=4, size=6), seeds)
@example(structure=BlockStructure((3, 3, 3), "C"), seed=4893)
def test_stacked_conversions_and_eigensolvers_match_each_block(structure, seed):
    """vec_to_blocks and blocks_to_vec on the (N, n, n) stack, and the one
    eigh or eigvalsh of block_eigh and block_eigvalsh, give the bits of
    the entrywise reference and of np.linalg on each block of the stack,
    and the values of np.linalg on each reference block.  The example's
    block 2 holds a zero whose sign differs from the reference's, and
    eigh's eigenvectors of the two differ in the sign of a zero."""
    rng = np.random.default_rng(seed)
    N, n, field = structure.block_count, structure.n, structure.field
    x = random_coords(rng, structure)
    w = ref_block_widths((n,), field)[0]
    ref = [ref_vec_to_herm(x[b * w: (b + 1) * w], n, field) for b in range(N)]
    blocks = vec_to_blocks(x, structure)
    assert blocks.shape == (N, n, n)
    assert blocks.dtype == (complex if field == "C" else float)
    # equal values; the reference may differ in the sign of a zero
    assert np.array_equal(blocks, np.array(ref))
    H = np.array([random_herm(rng, n, field) for _ in range(N)])
    assert blocks_to_vec(H, structure).tobytes() == np.concatenate(
        [ref_herm_to_vec(B, field) for B in H]).tobytes()
    vals, vecs = block_eigh(x, structure)
    assert vals.shape == (N, n) and vecs.shape == (N, n, n)
    for b, B in enumerate(ref):
        wb, Vb = np.linalg.eigh(blocks[b])
        assert vals[b].tobytes() == wb.tobytes()
        assert vecs[b].tobytes() == Vb.tobytes()
        wr, Vr = np.linalg.eigh(B)
        assert np.array_equal(vals[b], wr) and np.array_equal(vecs[b], Vr)
    got = block_eigvalsh(x, structure)
    assert got.tobytes() == np.array(
        [np.linalg.eigvalsh(B) for B in blocks]).tobytes()
    assert np.array_equal(got, [np.linalg.eigvalsh(B) for B in ref])


@st.composite
def eigen_inputs(draw):
    """Coordinates on N <= 4 blocks of size n <= 8 over either field:
    random, with signed zeros (about 40% of the coordinates +-0.0), or of a
    degenerate spectrum (levels repeated from {0, 1, 2}, some blocks a
    multiple of the identity).  Every zero coordinate gets a random sign."""
    structure = BlockStructure((draw(st.integers(1, 8)),)
                               * draw(st.integers(1, 4)),
                               draw(st.sampled_from(["C", "R"])))
    kind = draw(st.sampled_from(["random", "signed zeros", "degenerate"]))
    rng = np.random.default_rng(draw(seeds))
    n, N = structure.n, structure.block_count
    if kind == "degenerate":
        blocks = []
        for _ in range(N):
            p = rng.choice([0.0, 1.0, 2.0], size=n)
            if rng.random() < 0.3:
                blocks.append(np.diag(np.full(n, p[0])))
                continue
            Q = np.linalg.qr(random_matrix(rng, n, structure.field))[0]
            blocks.append((Q * p) @ Q.conj().T)
        x = blocks_to_vec(np.array(blocks), structure)
    else:
        x = random_coords(rng, structure)
    if kind == "signed zeros":
        x[rng.random(x.shape) < 0.4] = 0.0
    zero = x == 0.0
    x[zero] = np.where(rng.random(x.shape) < 0.5, 0.0, -0.0)[zero]
    return structure, x


@settings(deadline=None, max_examples=300)
@given(eigen_inputs())
def test_kernel_has_the_bits_of_np_linalg(case):
    """block_eigh and block_eigvalsh, on LAPACK's gufunc without numpy's
    wrapper, give the bits of np.linalg.eigh and eigvalsh of the same
    stack."""
    structure, x = case
    stack = vec_to_blocks(x, structure)
    w, V = block_eigh(x, structure)
    want_w, want_V = np.linalg.eigh(stack)
    assert w.dtype == np.float64 and V.dtype == stack.dtype
    assert w.tobytes() == want_w.tobytes() and V.tobytes() == want_V.tobytes()
    assert (block_eigvalsh(x, structure).tobytes()
            == np.linalg.eigvalsh(stack).tobytes())


def _nan_at(out, where):
    w = np.array(out[0] if isinstance(out, tuple) else out)
    w.reshape(-1)[where] = np.nan
    return (w, out[1]) if isinstance(out, tuple) else w


@pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
def test_kernel_refuses_a_nan_eigenvalue(monkeypatch, where):
    """A gufunc that returns a NaN eigenvalue, as LAPACK's do for a block
    that fails to converge, is refused with numpy's LinAlgError, from both
    solvers and from the psd cone check."""
    for name in ("_eigh_lo", "_eigvalsh_lo"):
        solve = getattr(embedding, name)
        monkeypatch.setattr(embedding, name,
                            lambda H, solve=solve: _nan_at(solve(H), where))
    m = zoo.build_model("doubled_quantum", n=2)
    for run in (lambda: block_eigh(m.chi, m.structure),
                lambda: block_eigvalsh(m.chi, m.structure),
                lambda: m.state_cone.margin(m.chi),
                lambda: core.StateVec(m.chi, m)):
        with pytest.raises(np.linalg.LinAlgError,
                           match="^Eigenvalues did not converge$"):
            run()


def _gibbs_hamiltonians():
    """The golden set's gibbs Hamiltonians: its off-diagonal coordinate
    vectors, and levels 0, 1, 2, ... on the pure maximal set, as the CLI
    builds them."""
    for text, h in OFF_DIAGONAL_H.items():
        model = zoo.parse_model_string(text)
        yield model, np.array(json.loads(h), dtype=float)
        yield model, thermo.basis_hamiltonian(
            zoo.pure_maximal_set(model), np.arange(model.capacity, dtype=float))


@pytest.mark.filterwarnings("error")
def test_no_warning_where_np_linalg_emits_none():
    """Entries scaled by 1e+-150, and the golden set's gibbs Hamiltonians
    solved and turned into Gibbs states, with every floating-point error
    set to warn and warnings raised: np.linalg emits nothing on them, and
    neither does the kernel, whose gufunc clears the flags LAPACK raised."""
    rng = np.random.default_rng(5)
    with np.errstate(all="warn"):
        for field, n, N in (("C", 2, 1), ("C", 4, 2), ("R", 3, 3), ("C", 8, 1)):
            structure = BlockStructure((n,) * N, field)
            for scale in (1e150, 1e-150):
                x = random_coords(rng, structure) * scale
                stack = vec_to_blocks(x, structure)
                want = np.linalg.eigh(stack)
                got = block_eigh(x, structure)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()
                assert (block_eigvalsh(x, structure).tobytes()
                        == np.linalg.eigvalsh(stack).tobytes())
        for model, h in _gibbs_hamiltonians():
            want = np.linalg.eigh(vec_to_blocks(h, model.structure))
            got = block_eigh(h, model.structure)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            for beta in (0.7, -0.7, np.inf, -np.inf):
                thermo.gibbs_state(model, h, beta)


def test_every_block_eigensolve_goes_through_the_kernel(monkeypatch):
    """With np.linalg.eigh and eigvalsh made to raise, a conversion request
    of the benchmark's kind (two states, both diagonalizations, Renyi and
    relative entropies, a unital and a rare verdict) and a Landauer ledger
    on composites still complete, and the kernel's gufuncs were called: a
    count of them sees every block eigensolve."""
    calls = []
    for name in ("_eigh_lo", "_eigvalsh_lo"):
        solve = getattr(embedding, name)
        monkeypatch.setattr(embedding, name,
                            lambda H, solve=solve: calls.append(H) or solve(H))

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg solved a block stack")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    rng = np.random.default_rng(9)
    for text in ("classical:3", "quantum:3", "rebit", "doubled_quantum:2",
                 "extended_classical:3x2"):
        m = zoo.parse_model_string(text)
        for src, tgt in ((m.state_sampler(m, rng), m.state_sampler(m, rng)),
                         (m.pure_sampler(m, rng), m.chi)):
            calls.clear()
            rho, sigma = core.StateVec(src, m), core.StateVec(tgt, m)
            spectral.diagonalize(rho)
            spectral.diagonalize(sigma)
            for alpha in (0.0, 0.5, 1.0, 2.0, np.inf):
                thermo.entropy(rho, alpha)
            thermo.relative_entropy(rho, sigma)
            resource.convertible(rho, sigma, "unital")
            resource.convertible(rho, sigma, "rare")
            assert len(calls) >= 2
    for text in ("quantum:2", "doubled_quantum:2"):
        m = zoo.parse_model_string(text)
        comp = zoo.compose_systems(m, m)
        st_, n = comp.structure, comp.structure.n
        K = np.zeros((st_.hilbert_dim,) * 2, complex)
        for b in range(st_.block_count):
            K[b * n:(b + 1) * n, b * n:(b + 1) * n] = zoo._haar_unitary(
                rng, n, "C")
        joint = comp.make_reversible(conjugation_matrix([K], st_), kraus=[K])
        h = blocks_to_vec([np.diag(rng.uniform(0.0, 2.0, m.structure.n))
                           for _ in m.structure.dims], m.structure)
        calls.clear()
        rho = core.StateVec(m.state_sampler(m, rng), m)
        ledger = thermo.landauer_ledger(joint, rho, h, 0.8, comp)
        assert ledger.equality_residual <= 1e-7
        assert len(calls) >= 6


@settings(deadline=None, max_examples=150)
@given(structures(), seeds, st.integers(1, 3))
def test_conjugation_matrix_matches_kraus_conjugation(structure, seed, n_kraus):
    rng = np.random.default_rng(seed)
    dims, field = structure.dims, structure.field
    DH = structure.hilbert_dim
    kraus = [random_matrix(rng, DH, field, scale=1 / np.sqrt(DH)) for _ in range(n_kraus)]
    M = conjugation_matrix(kraus, structure)
    for _ in range(3):
        x = random_coords(rng, structure)
        X = ref_total(x, dims, field)
        Y = sum(K @ X @ K.conj().T for K in kraus)
        assert np.abs(M @ x - ref_coords(Y, dims, field)).max() <= 1e-12
    # column j is the image of the j-th coordinate's basis matrix
    for j in rng.choice(structure.coord_dim, size=min(4, structure.coord_dim), replace=False):
        e = np.zeros(structure.coord_dim)
        e[j] = 1.0
        E = ref_total(e, dims, field)
        Y = sum(K @ E @ K.conj().T for K in kraus)
        assert np.abs(M[:, j] - ref_coords(Y, dims, field)).max() <= 1e-12


@settings(deadline=None, max_examples=100)
@given(structures(), seeds, st.sampled_from([1, 3]))
def test_stacked_conjugation_matches_one_operator(structure, seed, height):
    """Each matrix of a stack is conjugation_matrix of its one operator,
    byte for byte, and conjugation_matrix of several operators is their
    matrices summed in order."""
    rng = np.random.default_rng(seed)
    DH, D = structure.hilbert_dim, structure.coord_dim
    ops = np.array([random_matrix(rng, DH, structure.field)
                    for _ in range(height)])
    ops[rng.random(ops.shape) < 0.3] = 0.0
    Ms = conjugation_matrices(ops, structure)
    assert Ms.shape == (height, D, D)
    total = np.zeros((D, D))
    for K, M in zip(ops, Ms):
        assert M.tobytes() == conjugation_matrix([K], structure).tobytes()
        total += M
    assert conjugation_matrix(list(ops), structure).tobytes() == total.tobytes()


def test_conjugation_matrix_memory_stays_sliced():
    # the D = 2048 sector structure of a doubled-qubit composite squared
    structure = BlockStructure((32, 32), "C")
    D = structure.coord_dim
    rng = np.random.default_rng(0)
    K = np.linalg.qr(random_matrix(rng, 32, "C"))[0]
    K = np.kron(np.eye(2), K)
    tracemalloc.start()
    try:
        M = conjugation_matrix([K], structure)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * D * D + 16 * 2**20
    assert np.abs(M @ M.T - np.eye(D)).max() <= 1e-12


@pytest.mark.parametrize("field", ["C", "R"])
def test_pure_block_coords_rows(field):
    """Each row embeds |v><v| for the unit vector along column v, whatever
    the column's length and phase; a zero column is refused."""
    bs = BlockStructure((3, 3), field)
    off = bs.block_coord_dim   # block 1 starts after one block
    r = np.random.default_rng(3)
    V = r.normal(size=(3, 3))
    if field == "C":
        V = V + 1j * r.normal(size=(3, 3))
    phases = np.exp(1j * r.uniform(0, 6, 3)) if field == "C" else -1.0
    W = V * r.uniform(0.5, 2.0, 3)
    rows = pure_block_coords(bs, 1, W)
    rephased = pure_block_coords(bs, 1, V * phases)
    for v, w, row, again in zip(V.T, W.T, rows, rephased):
        u = v / np.linalg.norm(v)
        want = np.zeros(bs.coord_dim)
        want[off:] = ref_herm_to_vec(np.outer(u, u.conj()), field)
        assert np.abs(row - want).max() < 1e-15
        assert np.abs(again - want).max() < 1e-15
        assert row.tobytes() == pure_block_vec(bs, 1, w).tobytes()
    assert pure_block_coords(bs, 0, np.zeros((3, 0))).shape == (0, bs.coord_dim)
    with pytest.raises(ValueError):
        pure_block_coords(bs, 1, np.zeros((3, 1)))


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 6), st.integers(0, 6), st.sampled_from(["C", "R"]),
       seeds)
def test_canonical_rows_normalize_as_linalg_norm(n, k, field, seed):
    """Each row is divided by the np.linalg.norm of its rephased column,
    bit for bit."""
    rng = np.random.default_rng(seed)
    V = random_matrix(rng, max(n, k), field)[:n, :k]
    V = V * rng.uniform(0.1, 10.0, k)
    lead = np.array([v[np.flatnonzero(np.abs(v) > 1e-10)[0]] for v in V.T])
    W = (V * (np.abs(lead) / lead)).T.copy()
    U = canonical_rows(V)
    assert U.shape == W.shape
    for w, u in zip(W, U):
        assert (w / np.linalg.norm(w)).tobytes() == u.tobytes()


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 8), st.integers(0, 8), st.sampled_from(["C", "R"]),
       seeds)
def test_canonical_rows_batched_norm_matches_loop(n, k, field, seed):
    """The batched row norms give the bits of one dot product per row
    (`oracles.canonical_rows_loop`), on scaled columns and on the unit
    eigenvectors of a Hermitian matrix."""
    rng = np.random.default_rng(seed)
    V = random_matrix(rng, max(n, k), field)[:n, :k] * rng.uniform(0.1, 10.0, k)
    E = np.linalg.eigh(random_herm(rng, n, field))[1]
    for W in (V, E):
        assert (canonical_rows(W).tobytes()
                == oracles.canonical_rows_loop(W).tobytes())


def test_coord_dim_computed_once():
    """coord_dim is summed once and kept on the structure; it is not a
    field, so hashing, equality, the frozen fields and the cached index
    maps behave as before it was read."""
    fresh, read = BlockStructure((3, 3), "C"), BlockStructure((3, 3), "C")
    assert read.coord_dim == 18 and read.__dict__["coord_dim"] == 18
    assert "coord_dim" not in fresh.__dict__
    assert read == fresh and hash(read) == hash(fresh)
    assert repr(read) == "BlockStructure(dims=(3, 3), field='C')"
    assert embedding._maps(read, True) is embedding._maps(fresh, True)
    assert BlockStructure((3, 3), "R").coord_dim == 12
    assert BlockStructure((3, 3), "R") != read
    with pytest.raises(AttributeError):
        read.dims = (1,)


@pytest.mark.parametrize("field", ["C", "R"])
def test_sizes_computed_once(field):
    """n, block_count, block_coord_dim, hilbert_dim and coord_dim are
    computed once and kept on the structure; two equal structures compare
    and hash equal, and share the cached index maps, whichever of them has
    had its sizes read."""
    sizes = ("n", "block_count", "block_coord_dim", "hilbert_dim",
             "coord_dim")
    fresh, read = BlockStructure((3, 3), field), BlockStructure((3, 3), field)
    got = [getattr(read, name) for name in sizes]
    assert got == [3, 2, 9 if field == "C" else 6, 6, 18 if field == "C" else 12]
    assert [read.__dict__[name] for name in sizes] == got
    assert not set(sizes) & set(fresh.__dict__)
    assert read == fresh and hash(read) == hash(fresh)
    assert {read: 1}[fresh] == 1
    assert repr(read) == f"BlockStructure(dims=(3, 3), field={field!r})"
    for stacked in (True, False):
        assert embedding._maps(fresh, stacked) is embedding._maps(read, stacked)
    info = embedding._maps.cache_info()
    embedding._maps(fresh, True)
    assert embedding._maps.cache_info().hits == info.hits + 1


# ---------------------------------------------------------------------------
# conjugation matrices by block pairs


def sector_operator(rng, structure, kind):
    """A (H, H) operator over the structure: 'diagonal' keeps every block,
    'shifted' sends block b to block b + 1 (mod N), as the doubled
    qubit's ledger reversible may, 'dense' fills every entry, 'partial'
    zeroes about half the blocks of a dense one and 'zero' is all zeros."""
    N, n = structure.block_count, structure.n
    K = random_matrix(rng, N * n, structure.field)
    mask = np.zeros((N, N), bool)
    if kind == "diagonal":
        mask[range(N), range(N)] = True
    elif kind == "shifted":
        mask[(np.arange(N) + 1) % N, range(N)] = True
    elif kind == "dense":
        mask[:] = True
    elif kind == "partial":
        mask = rng.random((N, N)) < 0.5
    K[~np.kron(mask, np.ones((n, n), bool))] = 0.0
    return K


kinds = st.sampled_from(["diagonal", "shifted", "dense", "partial", "zero"])


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 4), st.sampled_from([1, 2, 4, 8]),
       st.sampled_from(["C", "R"]), st.lists(kinds, min_size=1, max_size=3),
       seeds, st.sampled_from([0.0, 0.1]), st.sampled_from([0.0, 0.05]))
def test_block_pair_conjugation_matches_full_pass(N, n, field, ops_kinds,
                                                  seed, neg_zeros, nans):
    """conjugation_matrices, by block pairs or in one pass, gives the bytes
    of the full-space pass of 32 columns (`oracles`), on stacks of
    block-diagonal, block-shifted, dense, partly zero and all-zero
    operators holding -0.0 and NaN entries; and so does conjugation_matrix
    summing several operators into one matrix from zeros."""
    structure = BlockStructure((n,) * N, field)
    rng = np.random.default_rng(seed)
    ops = np.array([sector_operator(rng, structure, kind)
                    for kind in ops_kinds])
    ops[(ops == 0) & (rng.random(ops.shape) < neg_zeros)] = -0.0
    ops[rng.random(ops.shape) < nans] = np.nan
    assert embedding._layout(structure)[1] == (
        N > 1 and structure.coord_dim >= embedding.PAIR_COORDS)
    got = conjugation_matrices(ops, structure)
    assert got.tobytes() == oracles.conjugation_matrices_full(
        ops, structure).tobytes()
    total = np.zeros((1, structure.coord_dim, structure.coord_dim))
    for K in ops:
        oracles.conjugation_matrices_full(K[None], structure, out=total)
    assert conjugation_matrix(list(ops), structure).tobytes() == \
        total[0].tobytes()


@pytest.mark.parametrize("dims, field, pairs", [
    ((8,), "C", False), ((2, 2), "C", False), ((4, 4), "C", False),
    ((5, 5), "C", False), ((4, 4, 4, 4), "C", True), ((8, 8), "C", True),
    ((8, 8), "R", True), ((6, 6), "R", False), ((32, 32), "C", True)])
def test_conjugation_layout_follows_the_structure(dims, field, pairs):
    """Several blocks and at least PAIR_COORDS coordinates go by block
    pairs through one block's kept terms; one block or fewer coordinates
    keep the full-space pass through the structure's own."""
    structure = BlockStructure(dims, field)
    terms, by_pairs = embedding._layout(structure)
    assert by_pairs == pairs
    assert terms is embedding._conjugation_terms(
        BlockStructure((dims[0],), field) if pairs else structure)
    assert embedding._layout(BlockStructure(dims, field))[0] is terms


def test_all_zero_sub_blocks_are_skipped(monkeypatch):
    """Only the nonzero (target, source) sub-blocks of a block-shifted
    operator enter the closed form, all as one stack."""
    structure = BlockStructure((8, 8, 8), "C")
    rng = np.random.default_rng(4)
    K = sector_operator(rng, structure, "shifted")
    K[K == 0] = -0.0
    seen, closed_form = [], embedding._closed_form

    def spy(ops, terms):
        seen.append(ops.shape)
        return closed_form(ops, terms)

    monkeypatch.setattr(embedding, "_closed_form", spy)
    M = conjugation_matrix([K], structure)
    assert seen == [(3, 8, 8)]
    assert M.tobytes() == oracles.conjugation_matrices_full(
        K[None], structure)[0].tobytes()


def test_structure_keeps_its_hash():
    """The hash of (dims, field) is computed once and kept outside the
    fields; equal structures built apart compare and hash equal, find the
    same entries of the index-map, closed-form and per-block term caches,
    and a pickled structure is built anew without a kept hash."""
    a, b = BlockStructure((8, 8), "C"), BlockStructure((8, 8), "C")
    assert hash(a) == hash(((8, 8), "C")) and a.__dict__["_hash"] == hash(a)
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert repr(a) == "BlockStructure(dims=(8, 8), field='C')"
    for cache in (lambda s: embedding._maps(s, True),
                  embedding._conjugation_terms, embedding._layout):
        assert cache(a) is cache(b)
    info = embedding._layout.cache_info()
    embedding._layout(BlockStructure((8, 8), "C"))
    assert embedding._layout.cache_info().hits == info.hits + 1
    c = pickle.loads(pickle.dumps(a))
    assert c == a and "_hash" not in c.__dict__ and hash(c) == hash(a)
