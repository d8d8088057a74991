"""The benchmark's workloads: the CLI commands of one iteration, the checks
on their outputs, and the behaviour digest.

Every workload drives sandwalk through ``sandwalk.cli.main`` in this process,
one command after the other, as a researcher waiting on each command would
(closed loop, one client).  The seed of the run is passed as ``--seed``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np
from sandwalk import cli, config, metrics, sim


class Checks:
    """Operations attempted and failed, with a note for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def raw_seconds(t0: float, t1: float) -> float:
    return t1 - t0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _row_key(velocity, terrain, cot_mean, cot_std, n_ok, n_failed) -> tuple:
    """A sweep row with its floats as exact bit patterns; CoT is absent without runs."""
    cot = (None, None) if n_ok == 0 else (float(cot_mean).hex(), float(cot_std).hex())
    return (float(velocity).hex(), terrain, *cot, n_ok, n_failed)


class Workload:
    """One iteration of CLI commands, plus the work traced per layer.

    ``overrides`` are the configuration keys the commands set; the set-up
    measurement loads the same configuration.  ``clock(t0, t1)`` turns a
    ``perf_counter`` interval into the seconds reported; the end-to-end run
    sets it to the host-speed corrected time of ``speed.Speedometer``.
    """

    name = ""
    overrides: list[str] = []

    def __init__(self, work: Path, seed: int, jobs: int, checks: Checks):
        self.work = work
        self.seed = seed
        self.jobs = jobs
        self.checks = checks
        self.digest: dict = {}
        self.clock = raw_seconds
        cfg = self.config()
        self.steps_per_run = round(cfg.duration / cfg.dt)

    def cli(self, *argv) -> float:
        """Run one CLI command; returns its seconds by ``clock``."""
        argv = [str(a) for a in argv]
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            status = type(exc).__name__
        elapsed = self.clock(t0, perf_counter())
        self.checks.expect(status == 0, f"{argv[0]} exited with {status}")
        return elapsed

    def config(self, *extra: str) -> sim.SimConfig:
        return config.load_config(None, [*self.overrides, f"sim.seed={self.seed}", *extra])

    def iteration(self) -> tuple[float, float, int]:
        """Run the commands once: (wall s, s inside simulate/sweep, steps)."""
        raise NotImplementedError

    def probe(self) -> tuple[float, float, int]:
        """The unit of work measured with and without tracing."""
        return self.iteration()

    def verify(self) -> None:
        """Checks too costly to repeat every iteration."""

    def _output_check(self, key: str, fn) -> None:
        try:
            fn()
        except (OSError, ValueError, KeyError, TypeError, RuntimeError) as exc:
            self.checks.expect(False, f"{key}: unreadable output ({type(exc).__name__}: {exc})")

    def _check_trajectory(self, key: str, out: Path) -> None:
        """Byte-identical trajectory.csv across iterations; finite CoT."""
        def check():
            digest = sha256(out / "trajectory.csv")
            summary = json.loads((out / "manifest.json").read_text())["summary"]
            first = self.digest.setdefault(key, {
                "trajectory_sha256": digest,
                "cot": summary["cot"],
                "final_com_x": summary["final_com_x"],
            })
            self.checks.expect(digest == first["trajectory_sha256"],
                               f"{key}: trajectory.csv differs between iterations")
            self.checks.expect(math.isfinite(summary["cot"]) and summary["distance"] > 0.0,
                               f"{key}: cot={summary['cot']} distance={summary['distance']}")
        self._output_check(key, check)

    def _check_roundtrip(self, key: str, cfg: sim.SimConfig, out: Path) -> None:
        """Trajectory.load_csv of the written file equals the simulated columns."""
        def check():
            expected = sim.run(cfg)
            loaded = sim.Trajectory.load_csv(out / "trajectory.csv")
            same = len(expected.records) == len(loaded.records) and all(
                np.array_equal(expected.column(f), loaded.column(f), equal_nan=True)
                for f in sim.SIM_RECORD_FIELDS if f != "stance_leg"
            ) and [r.stance_leg for r in expected.records] == [
                r.stance_leg for r in loaded.records]
            self.checks.expect(same, f"{key}: load_csv differs from the simulated columns")
        self._output_check(key, check)


class SandVsRigid(Workload):
    """simulate on sand, simulate on rigid ground, compare the two."""

    name = "sand-vs-rigid"

    def iteration(self):
        granular, rigid = self.work / "granular", self.work / "rigid"
        t_g = self.cli("simulate", "--terrain", "granular", "--seed", self.seed, "--out", granular)
        self._check_trajectory("granular", granular)
        t_r = self.cli("simulate", "--terrain", "rigid", "--seed", self.seed, "--out", rigid)
        self._check_trajectory("rigid", rigid)
        t_c = self.cli("compare", granular / "trajectory.csv", rigid / "trajectory.csv",
                       "--out", self.work / "compare")

        def check_rmse():
            lines = (self.work / "compare" / "rmse.csv").read_text().splitlines()[1:]
            values = [float(line.split(",")[1]) for line in lines]
            self.checks.expect(bool(values) and all(map(math.isfinite, values)),
                               "compare: rmse.csv holds no finite values")
        self._output_check("compare", check_rmse)
        return t_g + t_r + t_c, t_g + t_r, 2 * self.steps_per_run

    def verify(self):
        for terrain in ("granular", "rigid"):
            self._check_roundtrip(terrain, self.config(f"sim.terrain_mode={terrain}"),
                                  self.work / terrain)


class Rk4Granular(Workload):
    """One rk4 simulation on sand, logging every tenth step."""

    name = "rk4-granular"
    overrides = ["sim.integrator=rk4"]
    decimation = 10

    def iteration(self):
        out = self.work / "rk4"
        t = self.cli("simulate", "--terrain", "granular", "--set", self.overrides[0],
                     "--decimation", self.decimation, "--seed", self.seed, "--out", out)
        self._check_trajectory("granular", out)
        return t, t, self.steps_per_run

    def verify(self):
        cfg = self.config("sim.terrain_mode=granular", f"sim.decimation={self.decimation}")
        self._check_roundtrip("granular", cfg, self.work / "rk4")


class SweepDefault(Workload):
    """Velocity sweep over the default grid, both terrains, --jobs nproc.

    Short runs (two gait cycles, CoT over the second) and one repeat keep an
    iteration near two seconds on two cores, so per-run set-up and the
    process pool weigh as much as they do in a large sweep of short runs.
    """

    name = "sweep-default"
    duration = 0.8
    repeats = 1
    velocities = [0.1, 0.2, 0.3, 0.4, 0.5]  # the CLI's default grid
    overrides = [f"sim.duration={duration}"]

    def __init__(self, *args):
        super().__init__(*args)
        self.cells = len(self.velocities) * 2 * self.repeats
        self.steps = self.cells * self.steps_per_run
        self.row_sets: list[tuple[str, list]] = []

    def iteration(self):
        out = self.work / "sweep"
        t = self.cli("sweep", "--seed", self.seed, "--repeats", self.repeats,
                     "--jobs", self.jobs, "--set", self.overrides[0], "--out", out)

        def check():
            digest = sha256(out / "sweep.csv")
            rows = json.loads((out / "sweep.json").read_text())
            first = self.digest.setdefault("sweep", {
                "sweep_sha256": digest,
                "rows": rows,
            })
            self.checks.expect(digest == first["sweep_sha256"],
                               "sweep.csv differs between iterations")
            for r in rows:
                for _ in range(r["n_ok"] + r["n_failed"]):
                    self.checks.expect(r["n_failed"] == 0,
                                       f"sweep cell {r['terrain']}@{r['velocity']} failed")
            self.checks.expect(sum(r["n_ok"] + r["n_failed"] for r in rows) == self.cells,
                               "sweep.json does not hold every cell")
        self._output_check("sweep", check)
        return t, t, self.steps

    def sweep(self, jobs: int) -> float:
        """metrics.velocity_sweep in this process; returns its seconds by ``clock``."""
        t0 = perf_counter()
        try:
            rows = metrics.velocity_sweep(self.config(), self.velocities,
                                          repeats=self.repeats, jobs=jobs)
        except Exception as exc:  # the serial path re-raises what the parallel one counts
            self.checks.expect(False, f"velocity_sweep(jobs={jobs}) raised {type(exc).__name__}")
            rows = []
        elapsed = self.clock(t0, perf_counter())
        self.row_sets.append((f"jobs={jobs}", rows))
        return elapsed

    def probe(self):
        t = self.sweep(jobs=1)
        return t, t, self.steps

    def compare_rows(self) -> int:
        """Number of row sets that differ bit for bit from the CLI's sweep.json."""
        if not self.checks.expect("sweep" in self.digest, "no CLI sweep rows to compare"):
            return len(self.row_sets)
        reference = [_row_key(r["velocity"], r["terrain"], r["cot_mean"], r["cot_std"],
                              r["n_ok"], r["n_failed"]) for r in self.digest["sweep"]["rows"]]
        mismatches = 0
        for label, rows in self.row_sets:
            got = [_row_key(r.v_target, r.terrain, r.cot_mean, r.cot_std, r.n_ok, r.n_failed)
                   for r in rows]
            same = self.checks.expect(got == reference,
                                      f"velocity_sweep({label}) rows differ from the CLI sweep")
            mismatches += not same
        return mismatches


WORKLOADS = {w.name: w for w in (SandVsRigid, Rk4Granular, SweepDefault)}
