"""Acceptance suite: one test per release criterion, one summary line each.

Each criterion is verified end to end with its tolerances stated inline;
the conftest scoreboard prints a PASS/FAIL line per criterion after the
run. Statistical criteria use fixed seeds, so their measured values are
reproducible constants, quoted in comments next to the assertions.
"""

import dataclasses
import json
import time

import numpy as np
import pytest
from scipy import stats

from conftest import (LEDGER_CONFIGS, STREAMS, criterion7_setup, criterion7_variants, record_criterion, tangent_part,
                      testbed)
from rts import (
    MixtureModel,
    NeighborSet,
    PreconditionError,
    QuadraticReward,
    RngStream,
    RtsConfig,
    SearchConfig,
    SolverSpec,
    denoise,
    estimate_gradient,
    expected_rts_nfe,
    guided_spherical_sample,
    nearest_mode,
    one_step_clean_estimate,
    project_trajectory,
    random_spherical_sample,
    run_rts,
    run_search,
    sample_gaussian,
    select_key_steps,
)
from rts import ranktests
from rts.cli import main as cli_main
from rts.search import SearchState, coarse_round, fine_round
from rts.sim import _velocity


@pytest.fixture(scope="module")
def criterion7_runs():
    """The six criterion-7/8 variants on the 200 testbed seeds, each one lockstep block call.

    All methods run at the matched budget ``testbed.BUDGET_NFE``, the
    worst-case full-pipeline cost. The searched variants stay at or under it
    by construction; BoN and the zeroth-order climber consume it in full
    denoises. TestLockstep in test_pipeline.py holds every block result to
    its one-seed call.
    """
    started = time.perf_counter()
    model = criterion7_setup().model
    budget = testbed.BUDGET_NFE
    rewards, hits = {}, {}
    for name, (block, _) in criterion7_variants().items():
        results = block(STREAMS)
        assert all(result.nfe_used <= budget for result in results)
        rewards[name] = np.array([result.final_reward for result in results])
        hits[name] = np.array([nearest_mode(model, result.final_sample) == 0 for result in results])
    return {"rewards": rewards, "hits": hits, "budget": budget, "elapsed": time.perf_counter() - started}


def wilcoxon_greater(a, b):
    """The one-sided paired p-value of "a is above b" that ``rts report`` prints."""
    return ranktests.wilcoxon_greater((a - b).tolist())


class TestCriterion1:
    def test_norm_and_angle_suite(self):
        # 10^4 sampling cases across d in {2, 8, 64, 512}, half random
        # tangential, half gradient-guided: relative norm error < 1e-9,
        # |cos(angle) - tau| < 1e-9, tangent-direction alignment < 1e-12.
        started = time.perf_counter()
        rng = np.random.default_rng(42)
        stream = RngStream(101)
        worst_norm = worst_cos = worst_orth = 0.0
        label = 0
        for dim in (2, 8, 64, 512):
            for mode in ("random", "guided"):
                for _ in range(1250):
                    base = rng.standard_normal(dim)
                    tau = rng.uniform(0.02, 0.98)
                    if mode == "random":
                        ns = random_spherical_sample(base, 1, tau, stream.child(label))
                        label += 1
                    else:
                        prev = random_spherical_sample(base, 1, tau, stream.child(label))
                        ns = guided_spherical_sample(
                            base, 1, tau, rng.uniform(0.0, 1.0),
                            rng.standard_normal(dim), prev.perturbations,
                            stream.child(label + 1),
                        )
                        label += 2
                    radius = np.linalg.norm(ns.base)
                    u = ns.base / radius
                    for cand, w_hat in zip(ns.candidates, ns.perturbations):
                        norm = np.linalg.norm(cand)
                        worst_norm = max(worst_norm, abs(norm - radius) / radius)
                        worst_cos = max(worst_cos, abs(cand @ ns.base / (norm * radius) - tau))
                        worst_orth = max(worst_orth, abs(float(w_hat @ u)))
        elapsed = time.perf_counter() - started
        ok = worst_norm < 1e-9 and worst_cos < 1e-9 and worst_orth < 1e-12 and elapsed < 10.0
        record_criterion(
            1, "sphere norm/angle", ok,
            f"max rel norm err {worst_norm:.2e}, max |cos-tau| {worst_cos:.2e}, "
            f"max tangent alignment {worst_orth:.2e}, {elapsed:.1f}s",
        )
        assert worst_norm < 1e-9
        assert worst_cos < 1e-9
        assert worst_orth < 1e-12
        assert elapsed < 10.0


class TestCriterion2:
    def test_surrogate_gradient_suite(self):
        started = time.perf_counter()
        # Closed-form: equal rewards give the exact zero vector.
        base = np.array([2.0, 0.0, 0.0, 0.0])
        perturbations = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        ns = NeighborSet(base, base + perturbations, perturbations, rewards=[0.7, 0.7])
        zero_g = estimate_gradient(0.7, ns)
        # Closed-form: one substituted reward contributes only its own
        # perturbation, scaled by the reward difference over the magnitude
        # of the reward sum.
        ns_single = ns.with_rewards([0.7, 1.2])
        expected = ((1.2 - 0.7) / abs(0.7 + 1.2 + 0.7)) * perturbations[1]
        single_err = float(np.max(np.abs(estimate_gradient(0.7, ns_single) - expected)))

        # Statistical alignment on the quadratic landscape: d=32, N=16,
        # tau=0.99, 500 trials. Measured mean cosine 0.591 against the
        # analytic tangential gradient; the sign test is overwhelming.
        rng = np.random.default_rng(42)
        stream = RngStream(21)
        cosines = []
        for trial in range(500):
            z = rng.standard_normal(32)
            target = rng.standard_normal(32)
            reward = lambda x: -float(np.sum((x - target) ** 2))
            neighbors = random_spherical_sample(z, n=16, tau=0.99, stream=stream.child(trial))
            neighbors = neighbors.with_rewards([reward(c) for c in neighbors.candidates])
            g = estimate_gradient(reward(z), neighbors)
            u = z / np.linalg.norm(z)
            true_tangent = tangent_part(-2.0 * (z - target), u)
            cosines.append(g @ true_tangent / (np.linalg.norm(g) * np.linalg.norm(true_tangent)))
        cosines = np.array(cosines)
        positives = int(np.sum(cosines > 0.0))
        sign_p = stats.binomtest(positives, len(cosines), 0.5, alternative="greater").pvalue
        elapsed = time.perf_counter() - started
        ok = (
            float(np.max(np.abs(zero_g))) <= 1e-12
            and single_err <= 1e-12
            and sign_p < 0.01
            and cosines.mean() > 0.5
            and elapsed < 30.0
        )
        record_criterion(
            2, "surrogate gradient", ok,
            f"closed-form err {single_err:.1e}, mean cosine {cosines.mean():.3f} "
            f"({positives}/500 positive, sign p {sign_p:.2e}), {elapsed:.1f}s",
        )
        assert float(np.max(np.abs(zero_g))) <= 1e-12
        assert single_err <= 1e-12
        assert sign_p < 0.01
        assert cosines.mean() > 0.5
        assert elapsed < 30.0


class TestCriterion3:
    def test_search_loop_fidelity(self):
        started = time.perf_counter()
        target = np.full(6, 0.5)
        # one latent or an (n, d) batch, as the evaluator protocol passes
        evaluate = lambda x: -np.sum((np.asarray(x) - target) ** 2, axis=-1)
        cfg = SearchConfig(n_neighbors=3, rounds=4, tau=0.9, alpha=0.7)

        # Round parity is enforced exactly.
        with pytest.raises(PreconditionError):
            coarse_round(SearchState(dim=6, round=2), cfg, evaluate, RngStream(0))
        with pytest.raises(PreconditionError):
            fine_round(SearchState(dim=6, round=3), cfg, evaluate, RngStream(0))
        with pytest.raises(PreconditionError):
            fine_round(SearchState(dim=6, round=2), cfg, evaluate, RngStream(0))

        # Relocation branching: strictly better neighbor is adopted; worse
        # and exactly tied neighbors both trigger a fresh Gaussian base.
        candidates = np.vstack([np.full(6, 0.4), np.full(6, 0.3)])
        branch_results = []
        for rewards, adopts in (
            (np.array([0.2, 0.8]), True),
            (np.array([0.2, 0.4]), False),
            (np.array([0.5, 0.3]), False),
        ):
            state = SearchState(
                dim=6, round=3, base=np.zeros(6), base_reward=0.5,
                last=NeighborSet(np.zeros(6), candidates, np.zeros_like(candidates), rewards),
            )
            stream = RngStream(9).child(3)
            after = coarse_round(state, cfg, evaluate, stream)
            if adopts:
                branch_results.append(np.array_equal(after.base, candidates[int(np.argmax(rewards))]))
            else:
                fresh = sample_gaussian(stream.child(0), 6)
                branch_results.append(np.array_equal(after.base, fresh))

        # Return rules: the last round's argmax, driven round by round here,
        # versus the best seen anywhere, which run_search returns, with a
        # non-decreasing best-so-far sequence.
        state = SearchState(dim=6)
        for t in range(1, cfg.rounds + 1):
            state = (coarse_round if t % 2 == 1 else fine_round)(state, cfg, evaluate, RngStream(5).child(t))
        top = int(np.argmax(state.last.rewards))
        latent_s, reward_s, history_s = state.last.candidates[top], float(state.last.rewards[top]), state.history
        latent_e, reward_e, history_e = run_search(np.zeros(6), cfg, evaluate, RngStream(5))
        best_so_far = [summary.best_so_far for summary in history_e]
        elapsed = time.perf_counter() - started
        ok = (
            all(branch_results)
            and history_s == history_e
            and reward_s == history_s[-1].best_candidate_reward
            and reward_s == evaluate(latent_s)
            and reward_e == history_e[-1].best_so_far
            and reward_e == evaluate(latent_e)
            and reward_e >= reward_s
            and all(b >= a for a, b in zip(best_so_far, best_so_far[1:]))
            and [s.kind for s in history_e] == ["coarse", "fine", "coarse", "fine"]
            and elapsed < 5.0
        )
        record_criterion(
            3, "search loop fidelity", ok,
            f"3 relocation branches exact, strict {reward_s:.4f} <= engineering {reward_e:.4f}, "
            f"best-so-far monotone, {elapsed:.1f}s",
        )
        assert ok


class TestCriterion4:
    def test_projection_and_curvature_suite(self):
        from rts import curvature

        started = time.perf_counter()
        rng = np.random.default_rng(42)

        # Energy identity at the size limits, against an eigendecomposition
        # of the centered covariance computed without the factorization.
        latents = rng.standard_normal((64, 256))
        proj = project_trajectory(latents)
        energy = float(np.sum(proj**2))
        centered = latents - latents.mean(axis=0)
        eigenvalues = np.sort(np.linalg.eigvalsh(centered.T @ centered))[::-1]
        energy_err = abs(energy - float(np.sum(eigenvalues[:3]))) / float(np.sum(eigenvalues[:3]))

        # Planted corners recovered exactly.
        direction = rng.standard_normal(128)
        direction /= np.linalg.norm(direction)
        points = [np.zeros(128)]
        for step in range(1, 41):
            # The outgoing segment of point c is the one generated at step c+1.
            if step - 1 in (8, 20, 35):
                direction = rng.standard_normal(128)
                direction /= np.linalg.norm(direction)
            points.append(points[-1] + direction)
        keys = select_key_steps(project_trajectory(np.array(points)), 3)
        corners_ok = sorted(keys.indices) == [8, 20, 35]

        # Rotation invariance of scores and selection on a generic polyline.
        polyline = rng.standard_normal((30, 24))
        q, r = np.linalg.qr(rng.standard_normal((24, 24)))
        q = q * np.sign(np.diag(r))
        proj_a = project_trajectory(polyline)
        proj_b = project_trajectory(polyline @ q.T)
        curv_a = curvature(proj_a)[1:29]
        curv_b = curvature(proj_b)[1:29]
        rotation_err = float(np.max(np.abs(curv_a - curv_b) / np.abs(curv_a)))
        selection_ok = (
            select_key_steps(proj_a, 5).indices == select_key_steps(proj_b, 5).indices
        )

        # Menger hand cases on 3D points, the shape the projector emits.
        collinear = curvature(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]))[1]
        angles = np.array([0.3, 1.1, 2.0])
        circle = curvature(
            np.stack([np.cos(angles), np.sin(angles), np.zeros(3)], axis=1)
        )[1]
        right = curvature(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))[1]
        hand_err = max(abs(collinear), abs(circle - 1.0), abs(right - np.sqrt(2.0)))
        elapsed = time.perf_counter() - started
        ok = (
            energy_err < 1e-8
            and corners_ok
            and rotation_err < 1e-9
            and selection_ok
            and hand_err <= 1e-12
            and elapsed < 10.0
        )
        record_criterion(
            4, "projection/curvature", ok,
            f"energy rel err {energy_err:.1e}, corners exact, rotation err "
            f"{rotation_err:.1e}, hand cases {hand_err:.1e}, {elapsed:.1f}s",
        )
        assert ok


class TestCriterion5:
    def test_testbed_suite(self):
        started = time.perf_counter()
        model = MixtureModel(
            weights=[0.4, 0.6], means=[[2.0, 1.0], [-1.5, -0.5]], stddevs=[0.5, 0.8]
        )

        # Deterministic solver is bitwise reproducible.
        ode = SolverSpec(mode="ode", steps=12)
        z = np.array([0.8, -1.1])
        first, _ = denoise(model, ode, z)
        second, _ = denoise(model, ode, z)
        ode_ok = np.array_equal(first, second)

        # Stochastic solver replays exactly from its recorded noises.
        sde = SolverSpec(mode="sde", steps=12, churn=0.6)
        latents, injected = denoise(model, sde, z, stream=RngStream(3))
        replay_ok = np.array_equal(denoise(model, sde, z, injected=injected)[0], latents)

        # Final-sample moments of a single-Gaussian target over 10^5 runs
        # at d=2, L=50: mean within 0.02, variance within 0.05.
        single = MixtureModel(weights=[1.0], means=[[0.4, -0.3]], stddevs=[0.8])
        grid = SolverSpec(mode="ode", steps=50).time_grid
        rng = np.random.default_rng(42)
        x = rng.standard_normal((10**5, 2))
        for i in range(50):
            dt = grid[i + 1] - grid[i]
            v_from = _velocity(single, x, grid[i])
            v_to = _velocity(single, x + dt * v_from, grid[i + 1])
            x = x + dt * 0.5 * (v_from + v_to)
        mean_err = float(np.max(np.abs(x.mean(axis=0) - np.array([0.4, -0.3]))))
        var_err = float(np.max(np.abs(x.var(axis=0) - 0.64)))

        # One-step clean estimate against a quadrature oracle that uses only
        # the generative definition of the noising process.
        point, t = np.array([0.7, -0.4]), 0.3
        axis = np.linspace(-8.0, 8.0, 1201)
        g0, g1 = np.meshgrid(axis, axis, indexing="ij")
        x0_grid = np.stack([g0.ravel(), g1.ravel()], axis=1)
        density = np.zeros(x0_grid.shape[0])
        for w, mu, sd in zip(model.weights, model.means, model.stddevs):
            sq = np.sum((x0_grid - mu) ** 2, axis=1)
            density += w * np.exp(-sq / (2.0 * sd**2)) / (2.0 * np.pi * sd**2)
        sq = np.sum((point - (1.0 - t) * x0_grid) ** 2, axis=1)
        weights = density * np.exp(-sq / (2.0 * t**2))
        oracle = (weights @ x0_grid) / np.sum(weights)
        clean_err = float(np.max(np.abs(one_step_clean_estimate(model, point, t) - oracle)))
        elapsed = time.perf_counter() - started
        ok = (
            ode_ok
            and replay_ok
            and mean_err < 0.02
            and var_err < 0.05
            and clean_err < 1e-6
            and elapsed < 300.0
        )
        record_criterion(
            5, "closed-form testbed", ok,
            f"bitwise determinism and replay, moment errs {mean_err:.4f}/{var_err:.4f}, "
            f"clean-estimate err {clean_err:.1e}, {elapsed:.1f}s",
        )
        assert ok


class TestCriterion6:
    def test_nfe_ledger(self):
        started = time.perf_counter()
        model, _, reward, _ = criterion7_setup()
        exact = 0
        for spec, cfg in LEDGER_CONFIGS:
            result = run_rts(model, spec, reward, cfg, RngStream(0))
            positions = result.key_steps.indices if result.key_steps is not None else ()
            expected = expected_rts_nfe(cfg, spec, key_positions=positions)
            assert result.nfe_used == expected["total"]
            exact += 1

        # Budget caps are hard: sweep a config from the minimum up.
        spec = SolverSpec(mode="sde", steps=8, churn=0.4)
        base = RtsConfig(
            search_init=SearchConfig(n_neighbors=2, rounds=4, tau=0.7),
            search_inter=SearchConfig(n_neighbors=3, rounds=2),
            k_keysteps=3,
            eval_steps_init=2,
        )
        total = run_rts(model, spec, reward, base, RngStream(0)).nfe_used
        overruns = 0
        for budget in range(20, total + 8, 5):
            result = run_rts(model, spec, reward, dataclasses.replace(base, budget_nfe=budget), RngStream(0))
            if result.nfe_used > budget:
                overruns += 1
        elapsed = time.perf_counter() - started
        ok = exact == len(LEDGER_CONFIGS) and overruns == 0 and elapsed < 60.0
        record_criterion(
            6, "NFE ledger", ok,
            f"{exact}/{len(LEDGER_CONFIGS)} configurations exact, 0 budget overruns "
            f"in sweep, {elapsed:.1f}s",
        )
        assert ok


class TestCriterion7:
    def test_search_beats_baselines(self, criterion7_runs):
        rewards, hits = criterion7_runs["rewards"], criterion7_runs["hits"]
        p_zo = wilcoxon_greater(rewards["rts"], rewards["zo"])
        p_bon = wilcoxon_greater(rewards["rts"], rewards["bon"])
        hit_gap = float(hits["rts"].mean() - hits["free"].mean())
        elapsed = criterion7_runs["elapsed"]
        # Measured: rts 0.603 vs zo 0.499 (p 2.7e-17) and bon 0.545
        # (p 3.5e-12); hit rates 0.810 vs 0.115 free.
        ok = (
            rewards["rts"].mean() >= rewards["zo"].mean()
            and rewards["rts"].mean() >= rewards["bon"].mean()
            and p_zo < 0.05
            and p_bon < 0.05
            and hit_gap >= 0.10
            and elapsed < 900.0
        )
        record_criterion(
            7, "beats baselines at matched budget", ok,
            f"mean reward rts {rewards['rts'].mean():.4f} vs zo {rewards['zo'].mean():.4f} "
            f"(p {p_zo:.1e}) vs bon {rewards['bon'].mean():.4f} (p {p_bon:.1e}), "
            f"hit gap over free +{hit_gap:.3f}, budget {criterion7_runs['budget']}, {elapsed:.2f}s",
        )
        assert ok


class TestCriterion8:
    def test_each_phase_contributes(self, criterion7_runs):
        rewards = criterion7_runs["rewards"]
        p_init = wilcoxon_greater(rewards["init"], rewards["free"])
        p_inter = wilcoxon_greater(rewards["inter"], rewards["free"])
        elapsed = criterion7_runs["elapsed"]
        # Measured: init 0.549, inter 0.440, free 0.375; combined 0.603
        # dominates both single phases.
        ok = (
            rewards["init"].mean() > rewards["free"].mean()
            and p_init < 0.05
            and rewards["inter"].mean() > rewards["free"].mean()
            and p_inter < 0.05
            and rewards["rts"].mean() >= rewards["init"].mean()
            and rewards["rts"].mean() >= rewards["inter"].mean()
            and elapsed < 1200.0
        )
        record_criterion(
            8, "phase ablation", ok,
            f"init {rewards['init'].mean():.4f} (p {p_init:.1e}) and inter "
            f"{rewards['inter'].mean():.4f} (p {p_inter:.1e}) beat free "
            f"{rewards['free'].mean():.4f}; combined {rewards['rts'].mean():.4f} "
            f">= both, {elapsed:.2f}s",
        )
        assert ok


class TestCriterion9:
    def test_records_reproduce_under_parallelism(self, tmp_path):
        started = time.perf_counter()
        outputs = {
            "a": tmp_path / "a.jsonl",
            "b": tmp_path / "b.jsonl",
            "serial": tmp_path / "serial.jsonl",
        }
        runs = []
        for name, out in outputs.items():
            cfg = {
                "dimension": 2,
                "solver": {"mode": "sde", "steps": 8, "churn": 0.4},
                "mixture": testbed.MIXTURE,
                "reward": {"kind": "mode_preference", "preferred": testbed.PREFERRED, "sharpness": testbed.SHARPNESS},
                "method": "rts",
                "seed": 0,
                "replicates": 6,
                "workers": 1 if name == "serial" else 6,
                "out": str(out),
                "search_init": {"n_neighbors": 2, "rounds": 2, "tau": 0.7},
                "search_inter": {"n_neighbors": 2, "rounds": 2},
                "k_keysteps": 3,
                "eval_steps_init": 2,
            }
            config_path = tmp_path / f"{name}.json"
            config_path.write_text(json.dumps(cfg))
            assert cli_main(["run", "--config", str(config_path)]) == 0
            lines = []
            with open(out, encoding="utf-8") as handle:
                for line in handle:
                    record = json.loads(line)
                    record.pop("wall_ms")
                    lines.append(json.dumps(record))
            runs.append(lines)
        elapsed = time.perf_counter() - started
        ok = runs[0] == runs[1] == runs[2] and len(runs[0]) == 6 and elapsed < 120.0
        record_criterion(
            9, "deterministic records", ok,
            f"6 replicates byte-identical across two 6-worker runs and a "
            f"serial run (wall-clock excluded), {elapsed:.1f}s",
        )
        assert ok
