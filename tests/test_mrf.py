import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _instances import EVERY_PAIR, random_models, random_ssl_instance
from _reference_energy import build_energy_reference, sq_dists_reference
from _reference_scan import _scan_logz_loop, _scan_min_loop
from coxcut import (
    ClassModel,
    Dataset,
    EnergyGraph,
    Kernel,
    activations_batch,
    brute_force_log_partition,
    brute_force_map,
    build_energy,
    check_pairwise_representable,
    energy_of,
    gen_concentric_circles,
    gen_double_helix,
    joint_unnormalized_log_prob,
    log_product_density,
    pair_tables,
    partition,
    predict_label,
    predict_proba,
    shared_models,
)
from coxcut import mrf
from coxcut.kernels import STRIP_ELEMENTS
from coxcut.mrf import PAIR_CUTOFF


def _hand_energy(unary, pairs=None, constant=0.0):
    """Energy with one weight column per label; pairs are (i, j, weights)."""
    unary = np.asarray(unary, dtype=float)
    q = unary.shape[1]
    if pairs:
        pi = np.array([p[0] for p in pairs])
        pj = np.array([p[1] for p in pairs])
        weights = np.array([p[2] for p in pairs], dtype=float)
    else:
        pi = pj = np.empty(0, dtype=np.int64)
        weights = np.empty((0, q))
    return EnergyGraph(unary, pi, pj, weights, np.arange(q), constant)


class TestBuildEnergy:
    def test_vanishing_kernel_gives_flat_energies(self, every_pair):
        models = shared_models(2, Kernel("se", 1e-300, 1.0))
        labeled = Dataset(np.array([[0.0], [1.0]]), np.array([1, 2]), 2)
        energy = build_energy(models, labeled, np.array([[0.5], [2.0]]))
        values = [energy_of(energy, [a, b]) for a in (1, 2) for b in (1, 2)]
        assert np.allclose(values, values[0], atol=1e-12)

    def test_single_site_map_equals_supervised_prediction(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = int(rng.integers(2, 5))
            models = random_models(rng, q, shared_kernel=True, zero_means=True)
            n = int(rng.integers(1, 8))
            labeled = Dataset(rng.normal(0, 1, (n, 2)), rng.integers(1, q + 1, n), q)
            x = rng.normal(0, 1, (1, 2))
            energy = build_energy(models, labeled, x)
            lab, _ = brute_force_map(energy)
            sup = predict_label(predict_proba(models, labeled, x[0]))
            assert lab[0] == sup

    def test_coincident_sites_pairwise_delta_structure(self):
        models = shared_models(2, Kernel("se", 1.0, 1.0))
        labeled = Dataset(np.array([[9.0, 9.0]]), np.array([1]), 2)
        energy = build_energy(models, labeled, np.array([[0.0, 0.0], [0.0, 0.0]]))
        assert energy.num_pairs == 1
        assert energy.weights.tolist() == [[1.0]] and energy.column.tolist() == [0, 0]
        table = pair_tables(energy)[0]
        assert table[0, 0] == -1.0 and table[1, 1] == -1.0
        assert table[0, 1] == 0.0 and table[1, 0] == 0.0

    def test_one_weight_column_per_distinct_kernel(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            q = int(rng.integers(2, 5))
            models, labeled, unlabeled, _ = random_ssl_instance(rng, q=q)
            models[-1] = ClassModel(models[-1].mean, models[0].kernel)  # two share a kernel
            energy = build_energy(models, labeled, unlabeled)
            distinct = list(dict.fromkeys(m.kernel for m in models))
            assert energy.weights.shape == (energy.num_pairs, len(distinct))
            assert energy.column.tolist() == [distinct.index(m.kernel) for m in models]
            assert energy.column[-1] == energy.column[0] == 0
            assert np.all(energy.weights >= 0)

    def test_weights_hold_8_bytes_per_pair_and_kernel(self):
        # one shared kernel at Q=4: one column, where (P, Q, Q) tables took 16
        labeled, unlabeled = _four_circles()
        models = shared_models(4, Kernel("se", 1.0, 0.3))
        energy, peak = _traced_build(models, labeled, unlabeled)
        u, p = energy.num_sites, energy.num_pairs
        assert energy.weights.shape == (p, 1) and energy.weights.nbytes == 8 * p
        assert 0.2 < p / (u * (u - 1) / 2) < 0.8
        # the walk's strip buffers, then 32 bytes per kept pair (flat index,
        # site indices, weight): measured 0.67 of this, where the U x U
        # distances took 1.15 of it
        assert peak < 2 * _STRIP_BYTES + 32 * p

    def test_two_kernels_hold_no_sites_by_sites_array(self):
        # the pairs of both kernels come from one walk over strips of squared
        # distances, where one U x U array (or a gram per kernel) was held
        ds = gen_double_helix(500, 1.0, 1.5, 2.0, 0.04, 1)
        labeled, heldout = partition(ds, 10, 1)
        models = [ClassModel(0.0, Kernel(f, 1.0, ls)) for f, ls in (("se", 0.08), ("exp", 0.02))]
        energy, peak = _traced_build(models, labeled, heldout.covariates)
        u, p = energy.num_sites, energy.num_pairs
        assert energy.weights.shape == (p, 2)
        assert 0 < p / (u * (u - 1) / 2) < 0.1
        # strip buffers and 40 bytes per kept pair (flat index, site indices,
        # two weights): measured 0.61 of this, where the U x U array took 4.3
        assert peak < 2 * _STRIP_BYTES + 40 * p

    def test_sparse_sites_cost_their_kept_pairs_only(self):
        # 4000 sites, 5404 kept pairs: the 128 MB U x U array the walk replaced
        # would be 180 times this bound. Measured 0.85 of it.
        x = np.random.default_rng(5).uniform(0.0, 1.0, (4000, 2))
        energy, peak = _traced_build(shared_models(2, Kernel("se", 1.0, 0.002)), None, x)
        p = energy.num_pairs
        assert 5000 < p < 6000
        assert peak < 2 * _STRIP_BYTES + 32 * p

    def test_dimension_mismatch(self):
        models = shared_models(2, Kernel("se"))
        labeled = Dataset(np.zeros((1, 2)), np.array([1]), 2)
        with pytest.raises(ValueError, match="dimension"):
            build_energy(models, labeled, np.zeros((2, 3)))


_STRIP_BYTES = 8 * STRIP_ELEMENTS  # build_energy's reused buffer of strip distances


def _traced_build(models, labeled, unlabeled):
    """build_energy's result and its tracemalloc peak, after an untraced first call."""
    build_energy(models, labeled, unlabeled)
    tracemalloc.start()
    try:
        energy = build_energy(models, labeled, unlabeled)
        return energy, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _helix():
    ds = gen_double_helix(150, 1.0, 1.5, 2.0, 0.04, 1)
    labeled, heldout = partition(ds, 10, 1)
    return labeled, heldout.covariates


def _four_circles():
    ds = gen_concentric_circles(120, (1.0, 2.0, 3.0, 4.0), 0.08, 4)
    labeled, heldout = partition(ds, 8, 4)
    return labeled, heldout.covariates


def _three_circles():
    ds = gen_concentric_circles(80, (1.0, 4.0, 7.0), 0.08, 3)
    labeled, heldout = partition(ds, 8, 3)
    return labeled, heldout.covariates


class TestEnergyMatchesReference:
    """The kept-pairs construction against the all-pairs oracle, bit for bit."""

    @staticmethod
    def _assert_same(models, labeled, unlabeled):
        got = build_energy(models, labeled, unlabeled)
        ref = build_energy_reference(models, labeled, unlabeled)
        assert np.array_equal(got.unary, ref.unary)
        assert np.array_equal(got.pair_i, ref.pair_i)
        assert np.array_equal(got.pair_j, ref.pair_j)
        tables = pair_tables(got)
        assert np.array_equal(tables, ref.tables)
        assert tables.tobytes() == ref.tables.tobytes()  # signed zeros too
        assert got.constant == ref.constant
        return got

    @pytest.mark.parametrize("family, ls", [("se", 0.08), ("se", 0.3), ("exp", 0.02)])
    def test_shared_kernel(self, family, ls):
        labeled, unlabeled = _helix()
        got = self._assert_same(shared_models(2, Kernel(family, 1.0, ls)), labeled, unlabeled)
        u = got.num_sites
        assert 0 < got.num_pairs < u * (u - 1) // 2  # the cutoff dropped some pairs

    def test_per_class_length_scales_keep_the_union(self):
        labeled, unlabeled = _three_circles()
        kernels = [Kernel("se", 0.25, 0.3), Kernel("exp", 0.5, 0.1), Kernel("se", 0.25, 0.3)]
        models = [ClassModel(m, k) for m, k in zip((0.1, -0.2, 0.0), kernels)]
        got = self._assert_same(models, labeled, unlabeled)
        # each kernel decreases with distance, so the union is what the widest keeps
        alone = [build_energy(shared_models(3, k), labeled, unlabeled).num_pairs for k in kernels]
        assert got.num_pairs == max(alone) > min(alone)

    def test_no_cutoff_keeps_every_pair(self, every_pair):
        labeled, unlabeled = _three_circles()
        models = [ClassModel(0.0, Kernel("se", 1.0, s)) for s in (0.05, 0.2, 1.0)]
        got = self._assert_same(models, labeled, unlabeled)
        u = got.num_sites
        assert got.num_pairs == u * (u - 1) // 2

    @pytest.mark.parametrize("ratio", [PAIR_CUTOFF, EVERY_PAIR])
    def test_single_site_has_no_pairs(self, monkeypatch, ratio):
        monkeypatch.setattr(mrf, "PAIR_CUTOFF", ratio)
        labeled, unlabeled = _helix()
        got = self._assert_same(shared_models(2, Kernel("se", 1.0, 0.1)), labeled, unlabeled[:1])
        assert got.num_sites == 1 and got.num_pairs == 0

    def test_random_small_instances(self, monkeypatch):
        rng = np.random.default_rng(9)
        for _ in range(40):
            q = int(rng.integers(2, 5))
            models, labeled, unlabeled, _ = random_ssl_instance(
                rng, q=q, max_unlabeled=30, shared_kernel=bool(rng.integers(0, 2))
            )
            for ratio in (PAIR_CUTOFF, 0.05, EVERY_PAIR):
                monkeypatch.setattr(mrf, "PAIR_CUTOFF", ratio)
                self._assert_same(models, labeled, unlabeled)


_POWERS_OF_TEN = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


class TestKeptPairsAtAnyCutoff:
    """The pairs picked by distance against the all-pairs oracle, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_reference(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        u, d = data.draw(st.integers(2, 24)), data.draw(st.integers(1, 3))
        x = rng.uniform(0.0, 1.0, (u, d))
        if data.draw(st.booleans()):
            x[-1] = x[0]  # a pair at distance 0
        kernels = data.draw(st.lists(
            st.builds(Kernel, st.sampled_from(["se", "exp"]), _POWERS_OF_TEN,
                      st.floats(-2.5, 0.5).map(lambda e: 10.0**e)),
            min_size=1, max_size=3, unique=True,
        ))
        q = data.draw(st.integers(max(2, len(kernels)), 4))
        models = [ClassModel(0.0, kernels[a % len(kernels)]) for a in range(q)]
        d2 = sq_dists_reference(x)[np.triu_indices(u, 1)]
        # every weight as a share of its kernel's C(0), and the shares next to it
        shares = np.unique(np.concatenate(
            [k._from_sqdist(d2) / k.signal_variance for k in kernels]))
        share = float(data.draw(st.sampled_from(shares[shares > 0].tolist() or [1.0])))
        ratios = [PAIR_CUTOFF, EVERY_PAIR, 1.0, float(np.nextafter(1.0, 2.0)),
                  float(np.nextafter(share, 0.0)), share, float(np.nextafter(share, 2.0))]
        # Kernel.reach_sq_dist's margin covers the rounding of the weights and
        # of ratio * C(0) while both stay far above the smallest subnormal
        c0 = min(k.signal_variance for k in kernels)
        ratio = data.draw(st.sampled_from([r for r in ratios if min(r, r * c0) >= 1e-320]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mrf, "PAIR_CUTOFF", ratio)
            TestEnergyMatchesReference._assert_same(models, None, x)

    @pytest.mark.parametrize("cutoff", [PAIR_CUTOFF, EVERY_PAIR])
    def test_overflowing_distances(self, monkeypatch, cutoff):
        # every squared distance overflows to inf, where C is 0, which no
        # positive ratio of C(0) reaches. The diagonal's inf - inf is
        # overwritten with 0.
        monkeypatch.setattr(mrf, "PAIR_CUTOFF", cutoff)
        x = np.array([[0.0], [1e155], [-1e155]])
        with np.errstate(over="ignore", invalid="ignore"):
            got = TestEnergyMatchesReference._assert_same(
                shared_models(2, Kernel("se", 1.0, 1.0)), None, x
            )
        assert got.num_pairs == 0


class TestSolveBudget:
    """The kept-pair budget, checked while the candidate pairs are counted."""

    @staticmethod
    def _candidates(kernel, x):
        # the pairs within reach of the cutoff, from the oracle's distances
        pi, pj = np.triu_indices(len(x), k=1)
        d2 = sq_dists_reference(x)[pi, pj]
        return int(np.count_nonzero(~(d2 > kernel.reach_sq_dist(PAIR_CUTOFF))))

    def test_refused_one_byte_past_the_budget(self, monkeypatch):
        # 700 sites span several strips; about half of the pairs are candidates
        x = np.random.default_rng(3).uniform(0.0, 1.0, (700, 2))
        kernel = Kernel("se", 1.0, 0.05)
        count = self._candidates(kernel, x)
        assert 0 < count < 700 * 699 // 2
        models = shared_models(2, kernel)
        monkeypatch.setattr(mrf, "MAX_SOLVE_BYTES", count * mrf.SOLVE_BYTES_PER_PAIR)
        energy = build_energy(models, None, x)  # exactly at the budget
        assert 0 < energy.num_pairs <= count

        def forbidden(*_, **__):
            raise AssertionError("kernel evaluated before the budget was checked")

        monkeypatch.setattr(mrf, "MAX_SOLVE_BYTES", count * mrf.SOLVE_BYTES_PER_PAIR - 1)
        for name in ("_from_sqdist", "row_sums", "gram", "cross"):
            monkeypatch.setattr(Kernel, name, forbidden)
        with pytest.raises(ValueError) as info:
            build_energy(models, None, x)
        message = str(info.value)
        assert "\n" not in message
        assert message.startswith(f"at least {count:,} site pairs lie within the kernels' reach")
        assert message.endswith("GB budget; use a smaller --lengthscale")


    @pytest.mark.parametrize("q, variances, per_pair", [
        (2, [1.0, 2.0], mrf.SOLVE_BYTES_PER_PAIR + 8),
        (3, [1.0], mrf.EXPANSION_BYTES_PER_PAIR),
        (3, [1.0, 2.0, 3.0], mrf.EXPANSION_BYTES_PER_PAIR + 16),
    ])
    def test_priced_by_solve_kind_and_weight_columns(self, monkeypatch, q, variances, per_pair):
        # kernels that differ in variance only share one reach, so the
        # candidates are those of the binary shared-kernel case above
        x = np.random.default_rng(3).uniform(0.0, 1.0, (700, 2))
        count = self._candidates(Kernel("se", 1.0, 0.05), x)
        models = [ClassModel(0.0, Kernel("se", variances[a % len(variances)], 0.05))
                  for a in range(q)]
        monkeypatch.setattr(mrf, "MAX_SOLVE_BYTES", count * per_pair)
        assert build_energy(models, None, x).weights.shape[1] == len(variances)
        monkeypatch.setattr(mrf, "MAX_SOLVE_BYTES", count * per_pair - 1)
        with pytest.raises(ValueError, match=f"GB at {per_pair} bytes per pair, above"):
            build_energy(models, None, x)


class TestUnaryIsTheNegatedActivation:
    """The field's unary is -F of ``activations_batch`` and its constant is
    -sum of ``log_product_density`` over the labeled classes, bit for bit."""

    @staticmethod
    def _assert_identity(models, labeled, unlabeled):
        energy = build_energy(models, labeled, unlabeled)
        q = len(models)
        if labeled is None:
            train = Dataset(np.empty((0, unlabeled.shape[1])), np.empty(0), q)
        else:
            train = labeled
        activation = activations_batch(models, train, unlabeled)
        assert energy.unary.tobytes() == (-activation).tobytes()
        pts = [train.class_points(a + 1) for a in range(q)]
        constant = -sum(log_product_density(m, p) for m, p in zip(models, pts) if len(p))
        assert np.float64(energy.constant).tobytes() == np.float64(constant).tobytes()

    def test_shared_kernel(self):
        labeled, unlabeled = _helix()
        self._assert_identity(shared_models(2, Kernel("se", 1.0, 0.3)), labeled, unlabeled)

    def test_labeled_classes_past_one_tile(self):
        ds = gen_concentric_circles(700, (1.0, 3.0), 0.1, 5)
        labeled, heldout = partition(ds, 600, 5)  # two 512-point tiles per class
        models = shared_models(2, Kernel("exp", 0.5, 0.4), [0.2, -0.1])
        self._assert_identity(models, labeled, heldout.covariates)

    def test_per_class_kernels(self):
        labeled, unlabeled = _three_circles()
        kernels = [Kernel("se", 0.25, 0.3), Kernel("exp", 0.5, 0.1), Kernel("se", 2.0, 1.0)]
        models = [ClassModel(m, k) for m, k in zip((0.1, -0.2, 0.0), kernels)]
        self._assert_identity(models, labeled, unlabeled)

    def test_without_labeled_data(self):
        _, unlabeled = _three_circles()
        models = [ClassModel(m, Kernel("se", v, 0.3)) for m, v in ((0.1, 0.5), (-0.2, 2.0), (0, 1))]
        self._assert_identity(models, None, unlabeled)

    def test_class_without_labeled_points(self):
        labeled, unlabeled = _three_circles()
        x, y = labeled.labeled()
        labeled = Dataset(x[y != 2], y[y != 2], 3)
        models = [ClassModel(m, Kernel("exp", 1.0, 0.2)) for m in (0.1, -0.2, 0.3)]
        self._assert_identity(models, labeled, unlabeled)


class TestJoint:
    def test_single_point(self):
        models = [ClassModel(0.4, Kernel("se", 2.0, 1.0)), ClassModel(0.0, Kernel("se"))]
        ds = Dataset(np.array([[0.0, 0.0]]), np.array([1]), 2)
        assert joint_unnormalized_log_prob(models, ds) == pytest.approx(0.4 + 1.0, abs=1e-14)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        models = random_models(rng, 3)
        x = rng.normal(0, 1, (7, 2))
        y = rng.integers(1, 4, 7)
        v = joint_unnormalized_log_prob(models, Dataset(x, y, 3))
        for _ in range(5):
            perm = rng.permutation(7)
            assert joint_unnormalized_log_prob(
                models, Dataset(x[perm], y[perm], 3)
            ) == pytest.approx(v, rel=1e-12)

    def test_equals_sum_of_product_densities(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            q = int(rng.integers(2, 4))
            models = random_models(rng, q)
            n = int(rng.integers(1, 9))
            x = rng.normal(0, 1, (n, 2))
            y = rng.integers(1, q + 1, n)
            total = sum(
                log_product_density(models[a], x[y == a + 1])
                for a in range(q)
                if np.any(y == a + 1)
            )
            got = joint_unnormalized_log_prob(models, Dataset(x, y, q))
            assert got == pytest.approx(total, rel=1e-10)

    # the fixture patches a module constant, the same for every example
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_equals_minus_energy_of_the_field_without_labeled_data(self, every_pair, data):
        q = data.draw(st.integers(2, 3))
        n = data.draw(st.integers(1, 8))
        d = data.draw(st.integers(1, 3))
        row = st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)
        x = np.array(data.draw(st.lists(row, min_size=n, max_size=n)))
        y = np.array(data.draw(st.lists(st.integers(1, q), min_size=n, max_size=n)))
        kernel = st.builds(
            Kernel, st.sampled_from(["se", "exp"]), st.floats(0.1, 3.0), st.floats(0.1, 3.0)
        )
        shared = data.draw(kernel)
        models = [
            ClassModel(data.draw(st.floats(-2.0, 2.0)), data.draw(st.just(shared) | kernel))
            for _ in range(q)
        ]
        joint = joint_unnormalized_log_prob(models, Dataset(x, y, q))
        energy = energy_of(build_energy(models, None, x), y)
        # the two sum the same terms in different orders; the total may cancel,
        # so the tolerance is a few ulps of the sum of the terms' magnitudes
        magnitude = sum(
            np.sum(y == a + 1) * abs(m.mean) + 0.5 * m.kernel.gram(x[y == a + 1]).sum()
            for a, m in enumerate(models)
        )
        assert abs(joint + energy) <= 8 * np.finfo(float).eps * magnitude

    def test_unlabeled_point_rejected(self):
        models = shared_models(2, Kernel("se"))
        ds = Dataset(np.zeros((2, 1)), np.array([1, 0]), 2)
        with pytest.raises(ValueError, match="labeled"):
            joint_unnormalized_log_prob(models, ds)

    def test_energy_duality_on_random_instances(self, every_pair):
        # joint(y1) - joint(y2) == E(y2) - E(y1) for the built energy
        rng = np.random.default_rng(4)
        for _ in range(25):
            q = int(rng.integers(2, 4))
            models, labeled, unlabeled, energy = random_ssl_instance(
                rng, q=q, max_labeled=4, max_unlabeled=5
            )
            energy = build_energy(models, labeled, unlabeled)
            xl, yl = labeled.labeled()
            u = len(unlabeled)
            for _ in range(4):
                y1 = rng.integers(1, q + 1, u)
                y2 = rng.integers(1, q + 1, u)
                j1 = joint_unnormalized_log_prob(
                    models, Dataset(np.vstack([xl, unlabeled]), np.r_[yl, y1], q)
                )
                j2 = joint_unnormalized_log_prob(
                    models, Dataset(np.vstack([xl, unlabeled]), np.r_[yl, y2], q)
                )
                lhs = j1 - j2
                rhs = energy_of(energy, y2) - energy_of(energy, y1)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
                assert j1 == pytest.approx(-energy_of(energy, y1), rel=1e-9, abs=1e-9)


class TestEnergyOf:
    def test_all_zero_tables_returns_constant(self):
        energy = _hand_energy(np.zeros((3, 2)), constant=1.25)
        assert energy_of(energy, [1, 2, 1]) == 1.25

    def test_hand_summed_value(self):
        energy = _hand_energy(
            [[0.1, 0.2], [0.3, 0.4]], pairs=[(0, 1, [1.0, 2.0])], constant=0.05
        )
        # labels differ: no pair term; both label 2: the pair adds -2
        assert energy_of(energy, [1, 2]) == pytest.approx(0.1 + 0.4 + 0.05, abs=1e-15)
        assert energy_of(energy, [2, 2]) == pytest.approx(0.2 + 0.4 - 2.0 + 0.05, abs=1e-15)

    def test_classes_sharing_a_column_share_its_weight(self):
        energy = EnergyGraph(np.zeros((2, 3)), [0], [1], [[0.5, 3.0]], [1, 0, 1])
        assert [energy_of(energy, [a, a]) for a in (1, 2, 3)] == [-3.0, -0.5, -3.0]
        assert energy_of(energy, [1, 3]) == 0.0

    def test_matches_the_sum_over_pair_tables(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            q = int(rng.integers(2, 5))
            *_, energy = random_ssl_instance(rng, q=q, shared_kernel=bool(rng.integers(0, 2)))
            tables = pair_tables(energy)
            for _ in range(5):
                y = rng.integers(1, q + 1, energy.num_sites)
                terms = tables[np.arange(energy.num_pairs), y[energy.pair_i] - 1,
                               y[energy.pair_j] - 1]
                want = energy.unary[np.arange(energy.num_sites), y - 1].sum() + terms.sum()
                assert energy_of(energy, y) == float(want + energy.constant)

    def test_constant_shift(self):
        rng = np.random.default_rng(5)
        *_, energy = random_ssl_instance(rng, q=2, max_unlabeled=5)
        shifted = EnergyGraph(
            energy.unary, energy.pair_i, energy.pair_j, energy.weights, energy.column,
            energy.constant + 2.5,
        )
        y = rng.integers(1, 3, energy.num_sites)
        assert energy_of(shifted, y) == pytest.approx(energy_of(energy, y) + 2.5, rel=1e-14)

    def test_bad_labelings_rejected(self):
        energy = _hand_energy(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="shape"):
            energy_of(energy, [1])
        with pytest.raises(ValueError, match="labels"):
            energy_of(energy, [1, 3])


class TestEnergyGraphWeights:
    """The type holds only finite non-negative weights, so every pair is
    representable, and finite unaries."""

    @pytest.mark.parametrize("bad", [-0.5, -1e-300, np.nan, np.inf, -np.inf])
    def test_bad_weight_refused_naming_the_sites(self, bad):
        weights = np.array([[1.0, 2.0], [0.5, 0.0], [3.0, 4.0]])
        weights[1, 1] = bad
        with pytest.raises(ValueError) as info:
            EnergyGraph(np.zeros((4, 2)), [0, 1, 2], [3, 2, 3], weights, [0, 1])
        assert str(info.value) == (
            f"pair weights at sites (1, 2) must be finite and non-negative: [0.5, {bad!r}]"
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_unary_refused_naming_the_site(self, bad):
        unary = np.zeros((3, 2))
        unary[2, 1] = bad
        with pytest.raises(ValueError) as info:
            EnergyGraph(unary, [0], [1], [[1.0]], [0, 0])
        assert str(info.value) == f"non-finite unary energy at site 2: [0.0, {bad!r}]"

    def test_zero_weights_accepted(self):
        energy = EnergyGraph(np.zeros((2, 2)), [0], [1], [[0.0, -0.0]], [0, 1])
        assert energy_of(energy, [1, 1]) == 0.0

    @pytest.mark.parametrize("column", [[0, 2], [-1, 0]])
    def test_column_out_of_range_refused(self, column):
        with pytest.raises(ValueError) as info:
            EnergyGraph(np.zeros((2, 2)), [0], [1], [[1.0, 2.0]], column)
        assert str(info.value) == f"weight columns {column} of the labels out of range"

    def test_shapes_checked(self):
        with pytest.raises(ValueError, match="inconsistent"):
            EnergyGraph(np.zeros((2, 3)), [0], [1], [[1.0]], [0, 0])  # one label unmapped
        with pytest.raises(ValueError, match="inconsistent"):
            EnergyGraph(np.zeros((2, 2)), [0], [1], np.ones((2, 1)), [0, 0])  # two rows


def _tables(pairs, q):
    """(P, Q, Q) tables from a list of Q x Q tables."""
    return np.array(pairs, dtype=float).reshape(-1, q, q)


class TestRepresentability:
    def test_built_energies_always_pass(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            q = int(rng.integers(2, 5))
            *_, energy = random_ssl_instance(rng, q=q, max_unlabeled=8)
            ok, witness = check_pairwise_representable(pair_tables(energy))
            assert ok and witness is None

    def test_hand_violating_table_detected_with_witness(self):
        t = np.array([[-1.0, -3.0], [-3.0, -1.0]])
        ok, witness = check_pairwise_representable(_tables([np.zeros((2, 2)), t], 2))
        assert not ok
        p, a, b, c = witness
        assert p == 1
        # the witness triple really violates the inequality
        assert t[a - 1, a - 1] + t[b - 1, c - 1] > t[a - 1, c - 1] + t[b - 1, a - 1] + 1e-9

    def test_all_zero_tables_pass(self):
        ok, _ = check_pairwise_representable(np.zeros((1, 2, 2)))
        assert ok

    @staticmethod
    def _potts_chain(q, num_pairs, seed):
        """Potts tables -w * delta(a, b) of a chain, all representable."""
        rng = np.random.default_rng(seed)
        tables = np.zeros((num_pairs, q, q))
        diag = np.arange(q)
        tables[:, diag, diag] = -rng.uniform(0.0, 1.0, (num_pairs, q))
        return tables

    def test_margin_memory_is_bounded_at_eight_labels(self):
        potts = self._potts_chain(8, 20_000, 7)  # 10 MB of tables
        # the same tables shifted by 1 are still representable
        for tables in (potts, potts + 1.0):
            tracemalloc.start()
            try:
                ok, witness = check_pairwise_representable(tables)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert ok and witness is None
            assert peak < 64e6

    def test_first_violation_in_a_later_chunk_is_reported(self, monkeypatch):
        q, num_pairs = 8, 20_000  # chunks of 2674 pairs at the default size
        tables = self._potts_chain(q, num_pairs, 8)
        for p, (b, c) in [(19_000, (1, 4)), (15_000, (2, 5))]:
            tables[p, b, c] = 5.0
        t = tables[15_000]
        want = next(
            (15_000, a + 1, b + 1, c + 1)
            for a in range(q) for b in range(q) for c in range(q)
            if t[a, a] + t[b, c] > t[a, c] + t[b, a] + 1e-9
        )
        assert check_pairwise_representable(tables) == (False, want)
        for elements in (1, q**3 * num_pairs):  # one pair per chunk; one chunk
            monkeypatch.setattr(mrf, "_MARGIN_ELEMENTS", elements)
            assert check_pairwise_representable(tables) == (False, want)


    @staticmethod
    def _first_violation(tables, tol=1e-9):
        """Every triple of every pair in (pair, a, b, c) order, one at a time.

        Triples with a == b or a == c are skipped: their margin is 0 by
        definition, which exceeds a negative tolerance.
        """
        q = tables.shape[1]
        for p, t in enumerate(tables):
            for a in range(q):
                for b in range(q):
                    for c in range(q):
                        if a in (b, c):
                            continue
                        if t[a, a] + t[b, c] - t[a, c] - t[b, a] > tol:
                            return p, a + 1, b + 1, c + 1
        return None

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e9, 1e12])
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_large_modular_plus_potts_tables_pass(self, q, scale):
        # f(a) + g(b) - w delta(a, b) with w >= 0 is representable at every scale;
        # the trivial triples (a == b or a == c) once rounded above the tolerance
        rng = np.random.default_rng(q)
        num_pairs = 2000
        f, g = rng.normal(0, 1, (2, num_pairs, q))
        w = rng.uniform(0, 1, num_pairs)
        tables = (f[:, :, None] + g[:, None, :] - w[:, None, None] * np.eye(q)) * scale
        assert check_pairwise_representable(tables) == (True, None)

    def test_true_violations_keep_their_first_witness(self):
        rng = np.random.default_rng(9)
        found = 0
        for _ in range(300):
            q = int(rng.integers(2, 6))
            num_pairs = int(rng.integers(1, 8))
            tables = rng.normal(0, 1, (num_pairs, q, q)) * 10.0 ** rng.integers(-2, 3)
            if rng.random() < 0.5:  # Potts tables with one perturbed entry
                tables = -rng.uniform(0, 1, (num_pairs, 1, 1)) * np.eye(q)
                tables[rng.integers(num_pairs), rng.integers(q), rng.integers(q)] += rng.normal()
            want = self._first_violation(tables)
            found += want is not None
            got = check_pairwise_representable(tables)
            assert got == ((True, None) if want is None else (False, want))
        assert found > 100

    @staticmethod
    def _edge_case(case):
        """Potts tables with one change; pair 10 is all zero before it."""
        t = TestRepresentability._potts_chain(3, 40, 11)
        t[10] = 0.0
        if case == "tiny off-diagonal":
            t[10, 0, 1] = 1e-300  # a margin of 1e-300: above a tolerance of 0
        elif case == "positive diagonal":
            t[10, 2, 2] = 0.25
        elif case == "nan on the diagonal":
            t[5, 1, 1] = np.nan
        elif case == "nan off the diagonal":
            t[5, 2, 0] = np.nan
        elif case == "no pairs":
            return np.empty((0, 3, 3))
        return t

    @pytest.mark.parametrize("tol", [1e-9, 0.0, -1e-9])
    @pytest.mark.parametrize("case", ["potts", "tiny off-diagonal", "positive diagonal",
                                      "nan on the diagonal", "nan off the diagonal", "no pairs"])
    def test_edge_cases_agree_with_the_loop(self, case, tol):
        tables = self._edge_case(case)
        want = self._first_violation(tables, tol)
        got = check_pairwise_representable(tables, tol)
        assert got == ((True, None) if want is None else (False, want))

    def test_edge_cases_include_violations(self):
        # the cases above must reach both answers, or agreement would prove little
        found = {
            (case, tol): self._first_violation(self._edge_case(case), tol) is not None
            for case in ("potts", "tiny off-diagonal", "positive diagonal")
            for tol in (1e-9, 0.0, -1e-9)
        }
        assert not found["potts", 1e-9] and not found["potts", 0.0] and found["potts", -1e-9]
        assert found["tiny off-diagonal", 0.0] and not found["tiny off-diagonal", 1e-9]
        assert found["positive diagonal", 1e-9]

    def test_tolerance_is_absolute(self):
        # margins of 2**-29 (above 1e-9) and 2**-30 (below) are exact in binary
        for margin, ok in [(2.0**-29, False), (2.0**-30, True)]:
            for scale in (1.0, 2.0**20):
                table = np.array([[scale, scale], [scale, scale + margin]])
                assert check_pairwise_representable(table[None])[0] is ok
        assert mrf.REPRESENTABILITY_TOL == 1e-9


class TestBruteForce:
    def test_single_site_argmin(self):
        energy = _hand_energy([[0.3, -0.2, 0.1]])
        lab, e = brute_force_map(energy)
        assert lab.tolist() == [2] and e == pytest.approx(-0.2)

    def test_zero_energy_lexicographic_tie_break(self, monkeypatch):
        energy = _hand_energy(np.zeros((4, 3)))
        for chunk in (mrf._CHUNK, 5):  # a tie within one chunk, then across chunks
            monkeypatch.setattr(mrf, "_CHUNK", chunk)
            lab, e = brute_force_map(energy)
            assert lab.tolist() == [1, 1, 1, 1] and e == 0.0

    def test_guard_rejects_large_instances(self):
        energy = _hand_energy(np.zeros((21, 2)))
        with pytest.raises(ValueError, match="guard"):
            brute_force_map(energy)
        with pytest.raises(ValueError, match="guard"):
            brute_force_log_partition(energy)

    # two sites whose energies all overflow, then a pair weight that overflows one
    # labeling's sum; a constant that overflows the minimum's re-evaluation concerns
    # brute_force_map only, since the log partition leaves the constant out
    @pytest.mark.parametrize("unary, pairs, constant, oracles", [
        ([[1e308, 1e308], [1e308, 1e308]], None, 0.0,
         [brute_force_map, brute_force_log_partition]),
        ([[-1e308, 0.0], [0.0, 0.0]], [(0, 1, [1e308, 0.0])], 0.0,
         [brute_force_map, brute_force_log_partition]),
        ([[-1e308, 0.0]], None, -1e308, [brute_force_map]),
    ], ids=["unaries", "pair", "constant"])
    def test_overflowing_energy_is_refused_before_any_warning(self, unary, pairs, constant,
                                                              oracles):
        energy = _hand_energy(unary, pairs, constant)
        for oracle in oracles:
            with pytest.raises(ValueError, match="overflows float64"):
                oracle(energy)

    def test_log_partition_of_energies_a_float_range_apart(self):
        # exp(-E) of the larger energy underflows to exactly 0, without a warning
        energy = _hand_energy([[1e308, -1e308]])
        assert brute_force_log_partition(energy) == 1e308

    def test_log_partition_uniform(self):
        energy = _hand_energy(np.zeros((5, 3)))
        assert brute_force_log_partition(energy) == pytest.approx(5 * math.log(3), rel=1e-12)

    def test_log_partition_single_site(self):
        col = np.array([[0.4, -1.0, 2.0]])
        energy = _hand_energy(col)
        expect = np.logaddexp.reduce(-col[0])
        assert brute_force_log_partition(energy) == pytest.approx(expect, rel=1e-12)

    def test_scan_implementations_bit_identical(self, monkeypatch):
        rng = np.random.default_rng(7)
        one_chunk = mrf._CHUNK
        for _ in range(25):
            q = int(rng.integers(2, 4))
            *_, energy = random_ssl_instance(rng, q=q, max_unlabeled=7)
            _, e = mrf._chunk_energies(energy, 0, q**energy.num_sites)
            tables = pair_tables(energy)
            dl, el = _scan_min_loop(energy.unary, energy.pair_i, energy.pair_j, tables)
            zl = _scan_logz_loop(energy.unary, energy.pair_i, energy.pair_j, tables)
            assert e.min() == el
            # one chunk, then chunks of 5 labelings that split every scan
            for chunk in (one_chunk, 5):
                monkeypatch.setattr(mrf, "_CHUNK", chunk)
                labeling, _ = brute_force_map(energy)
                assert np.array_equal(labeling, dl + 1)
                z = brute_force_log_partition(energy) + energy.constant
                assert z == pytest.approx(zl, rel=1e-12)

    def test_map_beats_random_labelings(self):
        rng = np.random.default_rng(8)
        *_, energy = random_ssl_instance(rng, q=3, max_unlabeled=8)
        _, best = brute_force_map(energy)
        for _ in range(200):
            y = rng.integers(1, 4, energy.num_sites)
            assert best <= energy_of(energy, y) + 1e-12


class TestNoInterference:
    def test_marginalizing_an_extra_point_changes_the_distribution(self, every_pair):
        # 3-point exhibit: the label distribution of two points shifts once a
        # third unlabeled point is marginalized in
        models = shared_models(2, Kernel("se", 1.0, 1.0))
        pair = np.array([[0.0], [2.0]])
        triple = np.array([[0.0], [2.0], [0.3]])
        e2 = build_energy(models, None, pair)
        e3 = build_energy(models, None, triple)
        z2 = brute_force_log_partition(e2)
        z3 = brute_force_log_partition(e3)
        p2 = np.array(
            [math.exp(-energy_of(e2, [a, b]) - z2) for a in (1, 2) for b in (1, 2)]
        )
        p3 = np.array(
            [
                sum(math.exp(-energy_of(e3, [a, b, c]) - z3) for c in (1, 2))
                for a in (1, 2)
                for b in (1, 2)
            ]
        )
        assert p2.sum() == pytest.approx(1.0, abs=1e-12)
        assert p3.sum() == pytest.approx(1.0, abs=1e-12)
        tv = 0.5 * np.abs(p2 - p3).sum()
        assert tv > 1e-6
