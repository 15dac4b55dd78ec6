import tracemalloc

import numpy as np
import pytest

from abbo.exceptions import FixtureError
from abbo.features import (
    FixtureFeatureProvider,
    StructureContext,
    SyntheticFeatureProvider,
    _MAX_OFFSET,
    _Frame,
    _helix_backbone,
    _raw_position_table,
    _raw_synthetic_coords,
    _residue_offset,
    kabsch_align,
    load_coords_fixture,
    load_embedding_fixture,
    load_structure_context,
    pairwise_distances,
    synthetic_structure_context,
)
from abbo.sequences import ALPHABET

PARENTAL = "MKTAYIAKQRQISFVKSHFSRQ"


def random_rotation(rng) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return q


def test_kabsch_recovers_random_rigid_transforms(rng):
    # the central identity: a rigidly moved copy aligns back exactly
    for _ in range(100):
        n = int(rng.integers(3, 40))
        ref = rng.standard_normal((n, 3)) * rng.uniform(0.5, 5.0)
        rot = random_rotation(rng)
        moved = ref @ rot.T + rng.standard_normal(3) * 10.0
        aligned, rmsd = kabsch_align(moved, ref)
        assert rmsd <= 1e-9
        assert np.allclose(aligned, ref, atol=1e-8)


def test_kabsch_handles_reflection_prone_cases(rng):
    # nearly planar sets exercise the determinant correction
    for _ in range(20):
        n = int(rng.integers(4, 12))
        ref = rng.standard_normal((n, 3))
        ref[:, 2] *= 1e-3
        rot = random_rotation(rng)
        moved = ref @ rot.T + 5.0
        _, rmsd = kabsch_align(moved, ref)
        assert rmsd <= 1e-6


def test_kabsch_rejects_degenerate_input():
    line = np.stack([np.arange(5.0)] * 3, axis=1)  # collinear
    plane = np.random.default_rng(0).standard_normal((5, 3))
    with pytest.raises(ValueError, match="mobile points are collinear"):
        kabsch_align(line, line)
    with pytest.raises(ValueError, match="reference points are collinear"):
        kabsch_align(plane, line)
    with pytest.raises(ValueError, match="at least 3 points"):
        kabsch_align(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="shape mismatch"):
        kabsch_align(np.zeros((4, 3)), np.zeros((5, 3)))
    with pytest.raises(ValueError, match=r"expected \(N, 3\)"):
        kabsch_align(np.zeros((4, 2)), np.zeros((4, 2)))


def test_kabsch_rmsd_matches_direct_formula(rng):
    a = rng.standard_normal((10, 3))
    b = rng.standard_normal((10, 3))
    aligned, rmsd = kabsch_align(a, b)
    direct = np.sqrt(np.mean(np.sum((aligned - b) ** 2, axis=1)))
    assert rmsd == pytest.approx(direct, rel=1e-12)


def test_prepared_reference_aligns_bitwise_like_kabsch(rng):
    for _ in range(100):
        n = int(rng.integers(3, 40))
        ref = rng.standard_normal((n, 3)) * rng.uniform(0.5, 5.0)
        mobile = rng.standard_normal((n, 3)) + rng.standard_normal(3) * 10.0
        frame = _Frame(ref, "reference")
        for _ in range(3):  # the frame is reused, never changed by an alignment
            aligned, rmsd = frame.align_many(mobile[None])
            expected, expected_rmsd = kabsch_align(mobile, ref)
            assert np.array_equal(aligned[0], expected)
            assert rmsd[0] == expected_rmsd


def test_prepared_reference_checks_the_reference_and_the_mobile_shape():
    # a mobile row's collinearity is checked where the row enters a provider
    frame = _Frame(np.random.default_rng(0).standard_normal((5, 3)), "reference")
    with pytest.raises(ValueError, match="shape mismatch"):
        frame.align_many(np.zeros((1, 4, 3)))
    with pytest.raises(ValueError, match="at least 3 points"):
        _Frame(np.zeros((2, 3)), "reference")
    with pytest.raises(ValueError, match="reference points are collinear"):
        _Frame(np.stack([np.arange(5.0)] * 3, axis=1), "reference")


def test_pairwise_distances_against_loop(rng):
    coords = rng.standard_normal((7, 3))
    mat = pairwise_distances(coords)
    for i in range(7):
        for j in range(7):
            assert mat[i, j] == pytest.approx(np.linalg.norm(coords[i] - coords[j]))


class TestSyntheticStructure:
    def test_context_shapes_and_normalization(self):
        ctx = synthetic_structure_context(PARENTAL, seed=3)
        length = len(PARENTAL)
        assert ctx.site_probs.shape == (length, 20)
        assert np.allclose(ctx.site_probs.sum(axis=1), 1.0)
        assert ctx.distances.shape == (length, length)
        assert np.allclose(ctx.distances, ctx.distances.T)
        assert np.allclose(np.diag(ctx.distances), 0.0)

    def test_parental_residue_has_highest_site_probability(self):
        # substitution scores are diagonally dominant, so the softmax must
        # put its mode on the parental residue at every site
        ctx = synthetic_structure_context(PARENTAL)
        modes = ctx.site_probs.argmax(axis=1)
        assert all(ALPHABET[m] == ch for m, ch in zip(modes, PARENTAL))

    def test_lower_temperature_concentrates_probability(self):
        warm = synthetic_structure_context(PARENTAL, temperature=1.0)
        cold = synthetic_structure_context(PARENTAL, temperature=0.5)
        idx = [ALPHABET.index(c) for c in PARENTAL]
        rows = np.arange(len(PARENTAL))
        assert np.all(cold.site_probs[rows, idx] > warm.site_probs[rows, idx])

    def test_deterministic_across_instances(self):
        a = synthetic_structure_context(PARENTAL, seed=7)
        b = synthetic_structure_context(PARENTAL, seed=7)
        assert np.array_equal(a.site_probs, b.site_probs)
        assert np.array_equal(a.distances, b.distances)
        c = synthetic_structure_context(PARENTAL, seed=8)
        assert not np.array_equal(a.distances, c.distances)


class TestSyntheticFeatures:
    def test_coordinates_shift_only_at_mutated_site_before_alignment(self):
        provider = SyntheticFeatureProvider(PARENTAL, seed=0)
        from abbo.features import _raw_synthetic_coords

        variant = "W" + PARENTAL[1:]
        raw_p = _raw_synthetic_coords(PARENTAL, provider._coordinate_table())
        raw_v = _raw_synthetic_coords(variant, provider._coordinate_table())
        assert not np.allclose(raw_p[0], raw_v[0])
        assert np.allclose(raw_p[1:], raw_v[1:])
        # two residue offsets of at most 0.8 A each bound the displacement
        assert np.linalg.norm(raw_p[0] - raw_v[0]) <= 2 * 0.8 + 1e-12
        assert provider.features(variant).coords is not None

    @staticmethod
    def per_residue_coords(seq: str, seed: int) -> np.ndarray:
        """Raw coordinates built site by site, one seeded offset per residue."""
        coords = _helix_backbone(len(seq))
        for i, ch in enumerate(seq):
            coords[i] += _residue_offset(i, ch, seed)
        return coords

    @pytest.mark.parametrize("seed", [0, 1, 17, 2**31 + 5])
    def test_table_coords_equal_per_residue_build(self, rng, seed):
        provider = SyntheticFeatureProvider(PARENTAL, seed=seed)
        table = provider._coordinate_table()
        assert table.shape == (len(PARENTAL), len(ALPHABET), 3)
        assert np.array_equal(provider.parental_coords, self.per_residue_coords(PARENTAL, seed))
        context = synthetic_structure_context(PARENTAL, seed=seed)
        assert np.array_equal(context.parental_coords, provider.parental_coords)
        for seq in self.mutants(rng, 20) + ["".join(rng.choice(list(ALPHABET), len(PARENTAL)))]:
            assert np.array_equal(
                _raw_synthetic_coords(seq, table), self.per_residue_coords(seq, seed)
            )
            bundle = provider.features(seq)
            aligned, rmsd = kabsch_align(self.per_residue_coords(seq, seed), provider.parental_coords)
            assert np.array_equal(bundle.coords, aligned.ravel())
            assert bundle.rmsd == rmsd

    def test_features_construct_no_generator_once_tables_exist(self, rng, monkeypatch):
        provider = SyntheticFeatureProvider(PARENTAL, seed=4)
        provider.features(PARENTAL)

        def no_generator(*args, **kwargs):
            raise AssertionError("a Generator was constructed after the tables were built")

        monkeypatch.setattr("abbo.features.np.random.default_rng", no_generator)
        for seq in self.mutants(rng, 20):
            assert provider.features(seq).coords is not None

    def test_embedding_only_use_builds_no_coordinates(self):
        provider = SyntheticFeatureProvider(PARENTAL, seed=4)
        provider.embedding(PARENTAL)
        assert provider._coord_table is None and provider._frame is None

    def test_embedding_is_mean_of_site_vectors(self):
        provider = SyntheticFeatureProvider(PARENTAL, seed=0, embedding_dim=16)
        table = provider._embedding_table()
        emb = provider.features(PARENTAL).embedding
        idx = [ALPHABET.index(c) for c in PARENTAL]
        expected = table[np.arange(len(PARENTAL)), idx].mean(axis=0)
        assert np.allclose(emb, expected)

    def test_one_sequence_embedding_equals_its_batch_row(self, rng):
        # `embedding` gathers one row's site vectors and sums them at once;
        # `features_many` sums site by site over the batch. The labels of the
        # synthetic oracle come from the first, so the two must agree bit for bit.
        provider = SyntheticFeatureProvider(PARENTAL, seed=0, embedding_dim=64)
        seqs = [PARENTAL] + self.mutants(rng, 40)
        seqs += ["".join(rng.choice(list(ALPHABET), len(PARENTAL))) for _ in range(40)]
        batch = provider.features_many(seqs).embedding
        for i, seq in enumerate(seqs):
            one = provider.embedding(seq)
            assert one.tobytes() == provider.features_many([seq]).embedding[0].tobytes()
            assert one.tobytes() == batch[i].tobytes()

    def test_embeddings_do_not_depend_on_campaign_seed(self):
        a = SyntheticFeatureProvider(PARENTAL, seed=0).features(PARENTAL).embedding
        b = SyntheticFeatureProvider(PARENTAL, seed=99).features(PARENTAL).embedding
        assert np.array_equal(a, b)

    def test_coords_do_depend_on_seed(self):
        a = SyntheticFeatureProvider(PARENTAL, seed=0).features(PARENTAL).coords
        b = SyntheticFeatureProvider(PARENTAL, seed=1).features(PARENTAL).coords
        assert not np.allclose(a, b)

    @staticmethod
    def mutants(rng, count: int) -> list[str]:
        """`count` distinct sequences, each 1 to 4 substitutions from PARENTAL."""
        found: set[str] = set()
        while len(found) < count:
            chars = list(PARENTAL)
            for pos in rng.choice(len(PARENTAL), size=int(rng.integers(1, 5)), replace=False):
                chars[pos] = rng.choice([a for a in ALPHABET if a != PARENTAL[pos]])
            found.add("".join(chars))
        return sorted(found)

    def test_features_keep_no_memory_per_sequence(self, rng):
        # the GA's per-round cache is the one evaluation cache; a provider
        # that kept every bundle grew by ~1 KB per distinct sequence here
        provider = SyntheticFeatureProvider(PARENTAL)
        provider.features(PARENTAL)  # builds the embedding table
        seqs = self.mutants(rng, 500)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for seq in seqs:
                provider.features(seq)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024
        assert provider.computations == 501

    def test_batch_build_equals_one_sequence_builds(self, rng):
        # one stacked build per batch; every row bit-equal to building its
        # sequence alone, whatever else is in the batch
        provider = SyntheticFeatureProvider(PARENTAL, seed=2, embedding_dim=16)
        seqs = [PARENTAL] + self.mutants(rng, 30)
        seqs.append(seqs[4])
        batch = provider.features_many(seqs)
        assert batch.coords.shape == (len(seqs), 3 * len(PARENTAL))
        assert provider.computations == len(seqs)
        for i, seq in enumerate(seqs):
            one = provider.features(seq)
            assert np.array_equal(batch.embedding[i], one.embedding)
            assert np.array_equal(batch.coords[i], one.coords)
            assert batch.rmsd[i] == one.rmsd
        part = provider.features_many(seqs[5:9])
        assert np.array_equal(part.coords, batch.coords[5:9])

    def test_stacked_alignment_checks_the_stack_shape(self):
        frame = _Frame(np.random.default_rng(0).standard_normal((5, 3)), "reference")
        good = np.random.default_rng(1).standard_normal((5, 3))
        with pytest.raises(ValueError, match="shape mismatch"):
            frame.align_many(np.zeros((2, 4, 3)))
        aligned, rmsd = frame.align_many(np.stack([good, good]))
        assert np.array_equal(aligned[0], aligned[1])
        assert rmsd.shape == (2,)

    def test_a_build_cannot_be_collinear(self):
        # Point 1 of the helix lies `gap` off the line through points 0 and 2,
        # and every build's first three points are those plus offsets of norm
        # at most _MAX_OFFSET. Moving point 1 closes at most one offset of the
        # gap; moving points 0 and 2 moves the line near point 1 by at most
        # another (farther along the line the points are already farther).
        p0, p1, p2 = _helix_backbone(3)
        axis = (p2 - p0) / np.linalg.norm(p2 - p0)
        gap = np.linalg.norm(np.cross(p1 - p0, axis))
        assert gap == pytest.approx(2.70, abs=0.005)
        assert gap - 2 * _MAX_OFFSET > 1.0
        offsets = _raw_position_table(len(PARENTAL), 5) - _helix_backbone(len(PARENTAL))[:, None]
        assert np.linalg.norm(offsets, axis=-1).max() <= _MAX_OFFSET
        # the worst case: point 1 moved towards the line, 0 and 2 away from it
        towards = (p1 - p0) - ((p1 - p0) @ axis) * axis
        shift = _MAX_OFFSET * towards / np.linalg.norm(towards)
        q0, q1, q2 = p0 + shift, p1 - shift, p2 + shift
        closed = np.linalg.norm(np.cross(q1 - q0, (q2 - q0) / np.linalg.norm(q2 - q0)))
        assert closed == pytest.approx(gap - 2 * _MAX_OFFSET)
        # and no random choice of offsets closes more
        rng = np.random.default_rng(0)
        moves = rng.standard_normal((10_000, 3, 3))
        moves *= rng.uniform(0.0, _MAX_OFFSET, (10_000, 3, 1)) / np.linalg.norm(
            moves, axis=-1, keepdims=True
        )
        q = np.array([p0, p1, p2]) + moves
        d = q[:, 2] - q[:, 0]
        dist = np.linalg.norm(np.cross(q[:, 1] - q[:, 0], d), axis=-1) / np.linalg.norm(d, axis=-1)
        assert dist.min() >= gap - 2 * _MAX_OFFSET

    def test_rmsd_is_that_of_the_aligned_coords(self, rng):
        provider = SyntheticFeatureProvider(PARENTAL, seed=3)
        for seq in self.mutants(rng, 100):
            bundle = provider.features(seq)
            _, realigned = kabsch_align(bundle.coords.reshape(-1, 3), provider.parental_coords)
            assert bundle.rmsd == pytest.approx(realigned, rel=1e-12)

    def test_variant_coords_are_aligned_to_parental_frame(self):
        provider = SyntheticFeatureProvider(PARENTAL, seed=0)
        variant = PARENTAL[:-1] + ("W" if PARENTAL[-1] != "W" else "Y")
        coords = provider.features(variant).coords.reshape(-1, 3)
        _, rmsd = kabsch_align(coords, provider.parental_coords)
        # a single mutation moves one residue by at most 1.6 A, so the
        # all-site RMSD against the parental stays well under that
        assert rmsd < 1.6


class TestStructureContextValidation:
    def test_bad_row_sum_rejected(self):
        probs = np.full((4, 20), 0.04)  # rows sum to 0.8
        with pytest.raises(ValueError, match="sum"):
            StructureContext(site_probs=probs, distances=np.zeros((4, 4)))

    def test_asymmetric_distances_rejected(self):
        probs = np.full((3, 20), 0.05)
        bad = np.array([[0.0, 1.0, 2.0], [1.5, 0.0, 1.0], [2.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            StructureContext(site_probs=probs, distances=bad)

    def test_length_mismatch_rejected(self):
        probs = np.full((3, 20), 0.05)
        with pytest.raises(ValueError):
            StructureContext(site_probs=probs, distances=np.zeros((4, 4)))


class TestFixtureProviders:
    def test_fixture_roundtrip(self, tmp_path, rng):
        emb = tmp_path / "emb.csv"
        coords = tmp_path / "coords.csv"
        seqs = ["ACD", "ACY"]
        vectors = {s: rng.standard_normal(4) for s in seqs}
        points = {s: rng.standard_normal((3, 3)) for s in seqs}
        emb.write_text(
            "\n".join(s + "," + ",".join(f"{v:.8f}" for v in vectors[s]) for s in seqs)
        )
        coords.write_text(
            "\n".join(
                s + "," + ",".join(f"{v:.8f}" for v in points[s].ravel()) for s in seqs
            )
        )
        provider = FixtureFeatureProvider("ACD", embedding_path=emb, coords_path=coords)
        bundle = provider.features("ACY")
        assert np.allclose(bundle.embedding, vectors["ACY"])
        aligned, rmsd = kabsch_align(points["ACY"], points["ACD"])
        assert np.allclose(bundle.coords, aligned.ravel())
        assert bundle.rmsd == pytest.approx(rmsd, abs=1e-6)

    def test_missing_sequence_raises_fixture_error(self, tmp_path):
        emb = tmp_path / "emb.csv"
        emb.write_text("ACD,1.0,2.0\n")
        provider = FixtureFeatureProvider("ACD", embedding_path=emb)
        with pytest.raises(FixtureError, match="ACY"):
            provider.features("ACY")
        with pytest.raises(FixtureError, match="ACY"):
            provider.features_many(["ACD", "ACY"])

    @pytest.mark.parametrize("bad", ["abc", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("loader", [load_embedding_fixture, load_coords_fixture])
    def test_malformed_value_is_fixture_error_naming_file_and_row(self, tmp_path, loader, bad):
        path = tmp_path / "fixture.csv"
        path.write_text(f"sequence,v\nACD,{','.join(['1.5'] * 9)}\nACY,0,1,0,0,0,1,1,0,{bad}\n")
        with pytest.raises(FixtureError, match=r"fixture\.csv.*row 3"):
            loader(path)

    def test_collinear_parental_row_fails_at_construction(self, tmp_path):
        coords = tmp_path / "coords.csv"
        coords.write_text("ACD,0,0,0,1,1,1,2,2,2\nACY,0,0,0,1,0,0,0,1,0\n")
        with pytest.raises(FixtureError, match="coords.csv.*parental row.*collinear"):
            FixtureFeatureProvider("ACD", coords_path=coords)

    def test_collinear_variant_row_fails_at_construction(self, tmp_path):
        coords = tmp_path / "coords.csv"
        coords.write_text(
            "ACD,0,0,0,1,0,0,0,1,0\nACY,0,0,0,1,0,0,0,0,1\nACW,0,0,0,1,1,1,2,2,2\n"
        )
        with pytest.raises(FixtureError, match="coords.csv, sequence 'ACW'.*collinear"):
            FixtureFeatureProvider("ACD", coords_path=coords)

    def test_coords_fixture_requires_parental_row(self, tmp_path):
        coords = tmp_path / "coords.csv"
        coords.write_text("ACY,0,0,0,1,0,0,0,1,0\n")
        with pytest.raises(FixtureError, match="parental"):
            FixtureFeatureProvider("ACD", coords_path=coords)

    def test_load_structure_context_from_files(self, tmp_path):
        probs_path = tmp_path / "probs.tsv"
        dist_path = tmp_path / "dist.txt"
        probs = np.full((3, 20), 0.05)
        probs_path.write_text(
            "\n".join("\t".join(f"{v:.6f}" for v in row) for row in probs)
        )
        dist = pairwise_distances(np.arange(9.0).reshape(3, 3) ** 1.1)
        np.savetxt(dist_path, dist)
        ctx = load_structure_context(probs_path, dist_path)
        assert ctx.length == 3
        with pytest.raises(FixtureError):
            load_structure_context(probs_path, tmp_path / "nope.txt")
