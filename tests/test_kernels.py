import re

import numpy as np
import pytest

from abbo.campaign import _Representer
from abbo.features import SyntheticFeatureProvider, synthetic_structure_context
from abbo.kernels import (
    KermutKernel,
    KernelInputs,
    Matern52Kernel,
    ProductKernel,
    SquaredExponentialKernel,
    SumKernel,
    TanimotoKernel,
    _exp,
    _LINEAR,
    _LOG,
    _LOGIT,
    _Namespace,
    hellinger,
    kermut_params_from_original,
    kermut_params_to_original,
    kermut_struct,
    matern52,
    squared_exponential,
    tanimoto,
)
from abbo.sequences import ALPHABET, blosum62_matrix, diff, encode, one_hot_matrix

from conftest import (
    central_difference,
    mutant_inputs,
    random_mutants,
    sequence_inputs,
    vector_inputs,
)

PARENTAL = "MKTAYIAKQRQISFVKSHFSRQ"


def dense_gradients(kernel, prep) -> dict[str, np.ndarray]:
    """Every parameter's whole dK/dtheta, read off the kernel's contraction
    one entry at a time: contracting with the unit matrix E_ij gives dK_ij/dtheta."""
    gram, contract = kernel.gram_grad_prepared(prep)
    n = len(gram)
    out: dict[str, np.ndarray] = {}
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n))
            unit[i, j] = 1.0
            for name, value in contract(unit).items():
                out.setdefault(name, np.zeros((n, n)))[i, j] = value
    return out


# ---------------------------------------------------------------------------
# the input batch


def test_batch_entries_equal_diff_row_by_row(rng):
    from abbo.sequences import ALPHABET, Mutation

    seqs, _ = mutant_inputs(rng, PARENTAL, 12)
    seqs += [*random_mutants(rng, PARENTAL, 6, max_sites=6), seqs[4]]  # and one row twice
    owners, positions, from_res, to_res = sequence_inputs(seqs, PARENTAL).entries
    assert np.all(np.diff(owners) >= 0)
    got = [[] for _ in seqs]
    for owner, pos, a, b in zip(owners, positions, from_res, to_res):
        got[owner].append(Mutation(int(pos), ALPHABET[a], ALPHABET[b]))
    assert [tuple(row) for row in got] == [diff(PARENTAL, s).entries for s in seqs]


def test_batch_rejects_mismatched_rows_and_lengths():
    residues = np.zeros((3, len(PARENTAL)), dtype=int)
    with pytest.raises(ValueError, match="one row count"):
        KernelInputs({"x": np.ones((4, 2))}, residues, PARENTAL)
    with pytest.raises(ValueError, match="one row count"):
        KernelInputs({"x": np.ones((4, 2)), "y": np.ones((3, 2))})
    with pytest.raises(ValueError, match="do not fit parental"):
        KernelInputs({}, residues, PARENTAL[:-1])
    with pytest.raises(ValueError, match="together"):
        KernelInputs({}, residues, None)
    with pytest.raises(ValueError, match="together"):
        KernelInputs({"x": np.ones((3, 2))}, None, PARENTAL)


def test_batch_slices_and_joins(rng):
    seqs, inputs = mutant_inputs(rng, PARENTAL, 9, encoding=one_hot_matrix())
    rows = np.array([7, 0, 3, 3])
    for part, want in [
        (inputs[2:5], seqs[2:5]),
        (inputs[rows], [seqs[i] for i in rows]),
        (inputs[:4].concat(inputs[4:]), seqs),
    ]:
        built = sequence_inputs(want, PARENTAL, one_hot_matrix())
        assert len(part) == len(want)
        assert np.array_equal(part.residues, built.residues)
        assert np.array_equal(part.vectors["onehot"], built.vectors["onehot"])
        assert part.parental == PARENTAL
    with pytest.raises(ValueError, match="cannot join"):
        inputs.concat(sequence_inputs(seqs, PARENTAL))  # no one-hot field
    with pytest.raises(ValueError, match="cannot join"):
        inputs.concat(KernelInputs({"onehot": inputs.vectors["onehot"]}))  # no parental


def test_kermut_rejects_a_vector_only_batch(rng):
    kernel = KermutKernel(synthetic_structure_context(PARENTAL, seed=1), TanimotoKernel("onehot"))
    with pytest.raises(ValueError, match="no residues and parental"):
        kernel.prepare(KernelInputs({"onehot": np.abs(rng.standard_normal((3, 5)))}))
    with pytest.raises(ValueError, match="context length"):
        kernel.prepare(sequence_inputs(["A" * 5], "A" * 5))


# ---------------------------------------------------------------------------
# scalar reference functions


def test_tanimoto_two_site_onehot_example():
    # two double mutants sharing one substitution: intersection 1 + L - 2
    # matches over union 3 + L - 2 of the one-hot features; with L = 10 that
    # is 9/11, and subtracting the shared backbone gives the classic 1/3
    parental = "A" * 10
    a = encode("C" + "A" * 8 + "W", one_hot_matrix())
    b = encode("C" + "A" * 8 + "Y", one_hot_matrix())
    assert tanimoto(a, b) == pytest.approx(9.0 / 11.0)
    assert tanimoto(a, a) == pytest.approx(1.0)


def test_tanimoto_scales_with_variance(rng):
    u, v = np.abs(rng.standard_normal(5)), np.abs(rng.standard_normal(5))
    assert tanimoto(u, v, variance=2.5) == pytest.approx(2.5 * tanimoto(u, v))


def test_tanimoto_bounds_for_nonnegative_vectors(rng):
    for _ in range(200):
        u = np.abs(rng.standard_normal(8))
        v = np.abs(rng.standard_normal(8))
        val = tanimoto(u, v)
        assert 0.0 <= val <= 1.0 + 1e-12


def test_matern52_closed_form(rng):
    u, v = rng.standard_normal(4), rng.standard_normal(4)
    ell, var = 0.7, 1.3
    d = np.linalg.norm(u - v)
    s = np.sqrt(5.0) * d / ell
    expected = var * (1.0 + s + s**2 / 3.0) * np.exp(-s)
    assert matern52(u, v, lengthscale=ell, variance=var) == pytest.approx(expected)
    assert matern52(u, u, lengthscale=ell, variance=var) == pytest.approx(var)


def test_squared_exponential_closed_form(rng):
    u, v = rng.standard_normal(4), rng.standard_normal(4)
    d2 = float(np.sum((u - v) ** 2))
    expected = 2.0 * np.exp(-0.5 * d2 / 0.81)
    assert squared_exponential(u, v, lengthscale=0.9, variance=2.0) == pytest.approx(expected)


def test_hellinger_identities():
    p = np.array([0.2, 0.3, 0.5])
    assert hellinger(p, p) == 0.0
    q = np.array([0.0, 0.0, 1.0])
    r = np.array([1.0, 0.0, 0.0])
    assert hellinger(q, r) == pytest.approx(1.0)  # disjoint supports
    # known closed form: H^2 = 1 - sum sqrt(p_i q_i)
    s = np.array([0.5, 0.5, 0.0])
    expected = np.sqrt(1.0 - np.sqrt(0.5 * 0.2) - np.sqrt(0.5 * 0.3))
    assert hellinger(p, s) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# vectorized kernels against their scalar forms


@pytest.mark.parametrize(
    "kernel_cls,scalar",
    [
        (TanimotoKernel, tanimoto),
        (Matern52Kernel, lambda u, v: matern52(u, v)),
        (SquaredExponentialKernel, lambda u, v: squared_exponential(u, v)),
    ],
)
def test_gram_matches_scalar_double_loop(rng, kernel_cls, scalar):
    inputs = vector_inputs(rng, 6, 5, "x", nonneg=kernel_cls is TanimotoKernel)
    kernel = kernel_cls("x")
    gram = kernel.gram(inputs)
    for i in range(6):
        for j in range(6):
            expected = scalar(inputs.vectors["x"][i], inputs.vectors["x"][j])
            assert gram[i, j] == pytest.approx(expected, rel=1e-12)
    assert np.allclose(kernel.diag(inputs), np.diag(gram))
    assert np.allclose(kernel.cross(inputs, inputs), gram)


def test_gram_gradients_match_finite_differences(rng):
    inputs = vector_inputs(rng, 5, 4, "x")
    for kernel in (Matern52Kernel("x", 1.7, 0.6), SquaredExponentialKernel("x", 0.9, 1.4)):
        prep = kernel.prepare(inputs)
        grads = dense_gradients(kernel, prep)
        for name in kernel.params():
            base = kernel.params()[name]

            def gram_at(v, _name=name, _kernel=kernel, _prep=prep):
                _kernel.set_param(_name, v)
                out = _kernel.gram_prepared(_prep)
                _kernel.set_param(_name, base)
                return out

            h = 1e-6 * max(abs(base), 1.0)
            fd = (gram_at(base + h) - gram_at(base - h)) / (2.0 * h)
            assert np.allclose(grads[name], fd, rtol=1e-5, atol=1e-8), name


def test_tanimoto_variance_gradient_is_unit_gram(rng):
    inputs = vector_inputs(rng, 4, 3, "x", nonneg=True)
    kernel = TanimotoKernel("x", variance=2.0)
    prep = kernel.prepare(inputs)
    grads = dense_gradients(kernel, prep)
    assert np.allclose(grads["variance"] * 2.0, kernel.gram_prepared(prep))
    assert np.array_equal(kernel.similarity(prep), grads["variance"])


# ---------------------------------------------------------------------------
# combinators


def _two_field_inputs(rng, n):
    """n points with a nonnegative field "a" of 4 and a field "b" of 3, drawn point by point."""
    draws = [(np.abs(rng.standard_normal(4)), rng.standard_normal(3)) for _ in range(n)]
    a, b = zip(*draws)
    return KernelInputs({"a": np.stack(a), "b": np.stack(b)})


def test_sum_and_product_match_manual_combination(rng):
    inputs = _two_field_inputs(rng, 5)
    ka, kb = TanimotoKernel("a"), Matern52Kernel("b")
    total = SumKernel([("t", ka), ("m", kb)])
    prod = ProductKernel([("t", TanimotoKernel("a")), ("m", Matern52Kernel("b"))])
    ga_, gb = ka.gram(inputs), kb.gram(inputs)
    assert np.allclose(total.gram(inputs), ga_ + gb)
    assert np.allclose(prod.gram(inputs), ga_ * gb)


def test_combinator_parameter_namespacing(rng):
    kernel = SumKernel([("t", TanimotoKernel("a")), ("m", Matern52Kernel("b"))])
    names = set(kernel.params())
    assert names == {"t.variance", "m.variance", "m.lengthscale"}
    kernel.set_param("m.lengthscale", 2.5)
    assert kernel.params()["m.lengthscale"] == 2.5
    with pytest.raises(KeyError):
        kernel.set_param("nope.variance", 1.0)
    kernel.freeze("t.variance")
    assert "t.variance" not in kernel.free_param_names()


def test_combinator_gradients_match_finite_differences(rng):
    inputs = _two_field_inputs(rng, 4)
    for kernel in (
        SumKernel([("t", TanimotoKernel("a")), ("m", Matern52Kernel("b"))]),
        ProductKernel([("t", TanimotoKernel("a", 1.3)), ("m", Matern52Kernel("b", 0.8, 1.6))]),
    ):
        prep = kernel.prepare(inputs)
        grads = dense_gradients(kernel, prep)
        for name, base in kernel.params().items():

            def gram_at(v, _n=name, _kernel=kernel, _prep=prep, _base=base):
                _kernel.set_param(_n, v)
                out = _kernel.gram_prepared(_prep)
                _kernel.set_param(_n, _base)
                return out

            h = 1e-6 * max(abs(base), 1.0)
            fd = (gram_at(base + h) - gram_at(base - h)) / (2.0 * h)
            assert np.allclose(grads[name], fd, rtol=1e-5, atol=1e-8), (type(kernel).__name__, name)


# ---------------------------------------------------------------------------
# structural kernel


@pytest.fixture
def kermut(rng):
    context = synthetic_structure_context(PARENTAL, seed=1)
    seqs, inputs = mutant_inputs(rng, PARENTAL, 8, encoding=one_hot_matrix())
    kernel = KermutKernel(
        context,
        TanimotoKernel("onehot"),
        variance=1.4,
        mix=0.6,
        gamma_h=0.8,
        gamma_p=1.2,
        gamma_d=0.15,
    )
    return kernel, context, seqs, inputs


def test_kermut_gram_matches_scalar_reference(kermut):
    kernel, context, drawn, drawn_inputs = kermut
    # the drawn batch starts with the parental; the second has it between
    # points that own entries (an owner with none) and one design twice,
    # where the owners' segment sums can go wrong
    mid = [drawn[1], drawn[2], drawn[0], drawn[3], drawn[5], drawn[2]]
    params = kernel.params()
    var, mix = params["variance"], params["mix"]
    gammas = {name: params[name] for name in ("gamma_h", "gamma_p", "gamma_d")}
    onehot = one_hot_matrix()

    def struct_at(a, b, **change):
        return kermut_struct(diff(PARENTAL, a), diff(PARENTAL, b), context, **{**gammas, **change})

    for seqs, inputs in [(drawn, drawn_inputs), (mid, sequence_inputs(mid, PARENTAL, onehot))]:
        prep = kernel.prepare(inputs)
        gram = kernel.gram_prepared(prep)
        grads = dense_gradients(kernel, prep)
        for i, a in enumerate(seqs):
            for j, b in enumerate(seqs):
                struct = struct_at(a, b)
                seq = tanimoto(encode(a, onehot), encode(b, onehot))
                expected = var * (mix * struct + (1.0 - mix) * seq)
                assert gram[i, j] == pytest.approx(expected, abs=1e-12), (i, j)
                assert grads["variance"][i, j] == pytest.approx(expected / var, abs=1e-12)
                assert grads["mix"][i, j] == pytest.approx(var * (struct - seq), abs=1e-12)
                for name, base in gammas.items():
                    d_struct = central_difference(
                        lambda g, _name=name: struct_at(a, b, **{_name: g}), base, 1e-6
                    )
                    want = var * mix * d_struct
                    assert grads[name][i, j] == pytest.approx(want, abs=1e-8), (name, i, j)


def test_kermut_diag_and_cross_consistent(kermut):
    kernel, _, _, inputs = kermut
    gram = kernel.gram(inputs)
    assert np.allclose(kernel.diag(inputs), np.diag(gram))
    assert np.allclose(kernel.cross(inputs, inputs[:3]), gram[:, :3])


def _mutate(changes):
    seq = list(PARENTAL)
    for position, residue in changes:
        seq[position] = residue
    return "".join(seq)


_KEYED = [
    _mutate([(3, "W"), (7, "C")]),
    PARENTAL,  # no keys
    _mutate([(3, "W"), (10, "D")]),  # (3, W) again, in another point
    _mutate([(3, "F"), (15, "G")]),  # a second residue at site 3
    _mutate([(7, "C"), (15, "G"), (18, "A")]),
]
# none of these (site, residue) keys is carried by a point of _KEYED
_DISJOINT = [_mutate([(1, "L"), (20, "P")]), _mutate([(12, "H")]), _mutate([(3, "Y")])]


@pytest.mark.parametrize(
    "case",
    [
        "shared-and-split-keys",
        "disjoint-queries",
        "all-parental-train",
        "all-parental-queries",
        "one-point",
        "random",
    ],
)
def test_kermut_key_blocks_match_double_sum(kermut, rng, case):
    # Gram, cross block and diagonal through the (n, U) key incidence against
    # kermut_struct's double sum over mutation pairs plus the sequence term
    kernel, context, train_seqs, _ = kermut
    onehot = one_hot_matrix()
    extra, _ = mutant_inputs(rng, PARENTAL, 7, encoding=onehot)
    train, queries = {
        "shared-and-split-keys": (_KEYED, [_KEYED[2], PARENTAL, _mutate([(3, "F"), (7, "C")])]),
        "disjoint-queries": (_KEYED, _DISJOINT),
        "all-parental-train": ([PARENTAL, PARENTAL], _KEYED),
        "all-parental-queries": (_KEYED, [PARENTAL]),
        "one-point": (_KEYED[:1], _KEYED[3:4]),
        # the parental, two training points, new designs, one twice
        "random": (train_seqs, [train_seqs[0], train_seqs[3], *extra[1:], extra[2]]),
    }[case]
    prep = kernel.prepare(sequence_inputs(train, PARENTAL, onehot))
    prep_q = kernel.prepare(sequence_inputs(queries, PARENTAL, onehot))
    gram = kernel.gram_prepared(prep)
    cross = kernel.cross_prepared(prep, prep_q)
    diag = kernel.diag_prepared(prep_q)
    assert prep_q.distances is None  # a query batch keeps no key block
    params = kernel.params()
    var, mix = params["variance"], params["mix"]
    gammas = {name: params[name] for name in ("gamma_h", "gamma_p", "gamma_d")}

    def expected(a, b):
        struct = kermut_struct(diff(PARENTAL, a), diff(PARENTAL, b), context, **gammas)
        seq = tanimoto(encode(a, onehot), encode(b, onehot))
        return var * (mix * struct + (1.0 - mix) * seq)

    want_gram = np.array([[expected(a, b) for b in train] for a in train])
    want_cross = np.array([[expected(a, b) for b in queries] for a in train])
    want_diag = np.array([expected(b, b) for b in queries])
    assert np.abs(gram - want_gram).max() <= 1e-12
    assert np.abs(cross - want_cross).max() <= 1e-12
    assert np.abs(diag - want_diag).max() <= 1e-12

    # each point carries each of its mutations as one key, once
    entries = sum(len(diff(PARENTAL, s).entries) for s in train)
    assert set(np.unique(prep.incidence)) <= {0.0, 1.0}
    assert prep.incidence.sum() == entries
    if train is _KEYED:
        assert prep.incidence.shape == (5, 6)  # (3, W), (7, C) and (15, G) are shared
    if case == "all-parental-train":
        assert prep.incidence.shape == (2, 0)


def test_kermut_parental_row_uses_sequence_kernel_only(kermut):
    # the parental has no mutations, so the structural sum is empty and the
    # kernel must fall back to the weighted sequence similarity alone
    kernel, _, _, inputs = kermut
    params = kernel.params()
    gram = kernel.gram(inputs)
    seq = tanimoto(inputs.vectors["onehot"][0], inputs.vectors["onehot"][1])
    expected = params["variance"] * (1.0 - params["mix"]) * seq
    assert gram[0, 1] == pytest.approx(expected)


def test_kermut_child_variance_is_pinned(kermut):
    kernel, *_ = kermut
    assert kernel.params()["seq.variance"] == 1.0
    assert "seq.variance" not in kernel.free_param_names()


def test_kermut_gradients_match_finite_differences(kermut):
    kernel, _, _, inputs = kermut
    prep = kernel.prepare(inputs)
    grads = dense_gradients(kernel, prep)
    for name in kernel.free_param_names():
        base = kernel.params()[name]

        def gram_at(v, _n=name):
            kernel.set_param(_n, v)
            out = kernel.gram_prepared(prep)
            kernel.set_param(_n, base)
            return out

        h = 1e-6 * max(abs(base), 1.0)
        fd = (gram_at(base + h) - gram_at(base - h)) / (2.0 * h)
        assert np.allclose(grads[name], fd, rtol=1e-5, atol=1e-8), name


def test_kermut_blosum_variant(rng):
    # the sequence child can run on substitution-matrix encodings, whose
    # entries are negative; the Gram stays finite and symmetric
    context = synthetic_structure_context(PARENTAL, seed=2)
    _, inputs = mutant_inputs(rng, PARENTAL, 6, encoding=blosum62_matrix(), field="blosum")
    kernel = KermutKernel(context, TanimotoKernel("blosum"))
    gram = kernel.gram(inputs)
    assert np.all(np.isfinite(gram))
    assert np.allclose(gram, gram.T)


def test_kermut_mix_bounds_enforced(kermut):
    kernel, *_ = kermut
    with pytest.raises(ValueError):
        kernel.set_param("mix", 1.0)
    with pytest.raises(ValueError):
        kernel.set_param("mix", 0.0)
    with pytest.raises(ValueError):
        kernel.set_param("variance", -1.0)


@pytest.mark.parametrize(
    "kind, values, rejected",
    [
        pytest.param(
            _LOG, [1e-6, 0.37, 2.0, 1e3], {v: "must be positive" for v in (0.0, -1.5)}, id="log"
        ),
        pytest.param(
            _LOGIT,
            [1e-3, 0.37, 0.5, 0.999],
            {v: "must lie strictly in (0, 1)" for v in (0.0, 1.0, -0.5, 1.5)},
            id="logit",
        ),
        pytest.param(_LINEAR, [-1e6, -2.5, 0.0, 3.1, 1e6], {}, id="linear"),
    ],
)
def test_transform_round_trips_chains_and_validates(kind, values, rejected):
    for value in [*values, *kind.bounds]:
        u = kind.to_u(value)
        assert kind.from_u(u) == pytest.approx(value, rel=1e-12)
        numeric = central_difference(kind.from_u, u, 1e-6 * max(1.0, abs(u)))
        assert kind.dvalue_du(u) == pytest.approx(numeric, rel=1e-6)
        assert kind.accepts(value)
    # a namespace of one parameter of this kind, on its own and as a child
    one = type("One", (_Namespace,), {"_DEFAULT_TRANSFORM": kind})(p=values[1])
    root = _Namespace([("child", one)])
    assert (root.transform("child.p"), root.bounds("child.p")) == (kind.name, kind.bounds)
    for value, requirement in rejected.items():
        for space, name in ((one, "p"), (root, "child.p")):
            with pytest.raises(ValueError, match=re.escape(f"{name} {requirement}, got {value}")):
                space.set_param(name, value)
    assert root.params() == {"child.p": values[1]}


def test_cached_gram_blocks_are_parameter_free(rng):
    # a prep evaluated at theta_1 and then at theta_2 must give the Gram and
    # contraction of a fresh prep at theta_2, bit for bit: the block kept on
    # the prep may hold nothing that a parameter touches
    n = 9
    _, inputs = mutant_inputs(rng, PARENTAL, n, encoding=one_hot_matrix())
    inputs = KernelInputs(
        {**inputs.vectors, "x": rng.standard_normal((n, 5))}, inputs.residues, inputs.parental
    )
    kernels = [
        TanimotoKernel("onehot", variance=1.3),
        Matern52Kernel("x", variance=0.8, lengthscale=1.7),
        SquaredExponentialKernel("x", variance=1.1, lengthscale=0.9),
        SumKernel([("m", Matern52Kernel("x", 1.2, 0.6)), ("t", TanimotoKernel("onehot"))]),
        ProductKernel([("t", TanimotoKernel("onehot", 0.7)), ("s", SquaredExponentialKernel("x"))]),
        KermutKernel(synthetic_structure_context(PARENTAL, seed=3), TanimotoKernel("onehot")),
    ]
    w = rng.standard_normal((n, n))
    w += w.T
    for kernel in kernels:
        prep = kernel.prepare(inputs)
        kernel.gram_grad_prepared(prep)[1](w)  # theta_1
        for name in kernel.free_param_names():
            value = kernel.params()[name]
            kernel.set_param(name, 0.35 if kernel.transform(name) == "logit" else 1.9 * value)
        gram, contract = kernel.gram_grad_prepared(prep)  # theta_2, from the kept blocks
        fresh_gram, fresh_contract = kernel.gram_grad_prepared(kernel.prepare(inputs))
        assert np.array_equal(gram, fresh_gram), type(kernel).__name__
        assert contract(w) == fresh_contract(w), type(kernel).__name__


def test_tanimoto_zero_vector_fails_when_the_gram_block_is_built():
    kernel = TanimotoKernel("x")
    prep = kernel.prepare(KernelInputs({"x": np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])}))
    with pytest.raises(ValueError, match="zero vectors"):
        kernel.gram_grad_prepared(prep)
    assert prep.block is None
    with pytest.raises(ValueError, match="zero vectors"):
        kernel.similarity(prep)


# ---------------------------------------------------------------------------
# exact single precision and skipped exponentials


def _tanimoto_blocks(kernel, train, query):
    """Gram, unit-variance Gram, cross and diagonal of one kernel on two batches."""
    prep, prep_q = kernel.prepare(train), kernel.prepare(query)
    return (
        kernel.gram_grad_prepared(prep)[0],
        kernel.similarity(prep),
        kernel.cross_prepared(prep, prep_q),
        kernel.diag_prepared(prep_q),
    )


def _as_float64(inputs):
    return KernelInputs(
        {name: v.astype(float) for name, v in inputs.vectors.items()},
        inputs.residues,
        inputs.parental,
    )


@pytest.mark.parametrize("field", ["onehot", "blosum"])
def test_tanimoto_on_integer_fields_equals_the_float64_path(rng, field):
    parental = "EVQLVESGGGLVQPGGSLRLSCAASGFTFSSYAMSWVRQAPGK"
    represent = _Representer(parental, {field}, SyntheticFeatureProvider(parental)).represent
    kernel = TanimotoKernel(field, variance=1.7)
    for _ in range(5):
        n, m = (int(v) for v in rng.integers(1, 60, size=2))
        seqs = random_mutants(rng, parental, n + m, max_sites=8)
        seqs[: n // 2] = ["".join(rng.choice(list(ALPHABET), len(parental))) for _ in range(n // 2)]
        train, query = represent(seqs[:n]).inputs, represent(seqs[n:]).inputs
        assert train.vectors[field].dtype == np.int8
        assert kernel.prepare(train).x.dtype == np.float32  # the single-precision path
        encoding = one_hot_matrix() if field == "onehot" else blosum62_matrix()
        assert np.array_equal(
            _as_float64(train).vectors[field], np.stack([encode(s, encoding) for s in seqs[:n]])
        )
        want = _tanimoto_blocks(kernel, _as_float64(train), _as_float64(query))
        for got, ref in zip(_tanimoto_blocks(kernel, train, query), want):
            assert got.dtype == np.float64 and np.array_equal(got, ref)


def test_tanimoto_over_the_norm_bound_takes_float64():
    # 4097^2 = 16785409 is odd and above 2^24, so float32 rounds it; a row's
    # squared norm at or over 2^24 must send its whole block to float64
    small = np.array([[4097, 1], [3, 5], [1, 0]], dtype=np.int16)
    big = KernelInputs({"x": small})
    other = KernelInputs({"x": np.array([[4097, 3], [2, 2]], dtype=np.int16)})
    single = small.astype(np.float32) @ small.astype(np.float32).T
    assert not np.array_equal(single, small.astype(float) @ small.astype(float).T)
    kernel = TanimotoKernel("x")
    want = _tanimoto_blocks(kernel, _as_float64(big), _as_float64(other))
    for got, ref in zip(_tanimoto_blocks(kernel, big, other), want):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int32, np.int64])
def test_other_fields_never_take_single_precision(rng, dtype):
    # float fields may hold anything, and 32- and 64-bit integers need not fit
    # float32: they are all read in float64
    values = rng.standard_normal((7, 5)) * (1.0 if np.dtype(dtype).kind == "f" else 1e6)
    values = np.abs(values).astype(dtype)
    inputs = KernelInputs({"x": values})
    for kernel in (TanimotoKernel("x"), Matern52Kernel("x")):
        assert kernel.prepare(inputs).x.dtype == np.float64
    assert Matern52Kernel("x").prepare(KernelInputs({"x": values.astype(np.int8)})).x.dtype == float
    kernel = TanimotoKernel("x")
    want = _tanimoto_blocks(kernel, _as_float64(inputs[:4]), _as_float64(inputs[4:]))
    for got, ref in zip(_tanimoto_blocks(kernel, inputs[:4], inputs[4:]), want):
        assert np.array_equal(got, ref)


def test_skipped_exponentials_equal_numpy_exp():
    grid = np.concatenate(
        [
            np.linspace(-800.0, 10.0, 20011),
            [-745.13, -745.1332, -745.14, -745.2, -745.2000001, np.inf, -np.inf, np.nan, -0.0],
        ]
    )
    for x in (grid, grid[::-1].reshape(-1, 2), grid[::3], np.linspace(-5.0, 0.0, 99)):
        got = _exp(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert np.array_equal(got, np.exp(x), equal_nan=True)
        assert got.tobytes() == np.exp(x).tobytes()


# ---------------------------------------------------------------------------
# reparameterization


def test_reparameterization_roundtrip(rng):
    # the original form is the natural domain: every (variance, mix) there
    # has a factored equivalent, so roundtrip through the factored form
    for _ in range(50):
        var_o = float(rng.uniform(0.05, 5.0))
        mix_o = float(rng.uniform(0.01, 0.99))
        var, mix = kermut_params_from_original(var_o, mix_o)
        var_b, mix_b = kermut_params_to_original(var, mix)
        assert var_b == pytest.approx(var_o, rel=1e-12)
        assert mix_b == pytest.approx(mix_o, rel=1e-12)


def test_reparameterization_gives_identical_kernels(rng):
    # scaled-mixture form sigma^2 (pi k_s + (1 - pi) k_q) must equal the
    # original form sigma_o^2 pi_o k_s + (1 - pi_o) k_q after mapping
    for _ in range(50):
        mix = float(rng.uniform(0.05, 0.95))
        tail = float(rng.uniform(0.05, 0.95))  # variance * (1 - mix), must be < 1
        var = tail / (1.0 - mix)
        ks = float(rng.uniform(0.0, 1.0))
        kq = float(rng.uniform(0.0, 1.0))
        new_form = var * (mix * ks + (1.0 - mix) * kq)
        var_o, mix_o = kermut_params_to_original(var, mix)
        orig_form = var_o * mix_o * ks + (1.0 - mix_o) * kq
        assert abs(new_form - orig_form) < 1e-10


def test_reparameterization_domain_errors():
    # tail weight sigma^2 (1 - pi) must stay below 1 for the original form
    with pytest.raises(ValueError):
        kermut_params_to_original(10.0, 0.5)
    with pytest.raises(ValueError):
        kermut_params_from_original(-1.0, 0.5)


# ---------------------------------------------------------------------------
# positive semi-definiteness across everything registered


def _min_eigenvalue(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((mat + mat.T) / 2.0)[0])


def test_all_kernels_produce_psd_grams(rng):
    context = synthetic_structure_context(PARENTAL, seed=5)
    onehot, blosum = one_hot_matrix(), blosum62_matrix()
    for trial in range(25):
        n = int(rng.integers(2, 12))
        seqs, inputs = mutant_inputs(rng, PARENTAL, n, encoding=onehot)
        blosum_rows = np.stack([encode(seq, blosum) for seq in seqs])
        x_rows = np.stack([rng.standard_normal(6) for _ in seqs])
        inputs = KernelInputs(
            {**inputs.vectors, "blosum": blosum_rows, "x": x_rows}, inputs.residues, inputs.parental
        )
        kernels = [
            TanimotoKernel("onehot"),
            TanimotoKernel("blosum"),
            Matern52Kernel("x", lengthscale=float(rng.uniform(0.5, 3.0))),
            SquaredExponentialKernel("x"),
            SumKernel([("a", TanimotoKernel("onehot")), ("b", Matern52Kernel("x"))]),
            ProductKernel([("a", TanimotoKernel("onehot")), ("b", Matern52Kernel("x"))]),
            KermutKernel(context, TanimotoKernel("onehot")),
            KermutKernel(context, TanimotoKernel("blosum"), mix=0.3),
        ]
        for kernel in kernels:
            gram = kernel.gram(inputs)
            assert _min_eigenvalue(gram) >= -1e-8 * n, type(kernel).__name__
