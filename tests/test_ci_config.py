"""The CI pipeline definition is itself under test: a malformed workflow
fails silently on the forge, so parse it here where a human sees it."""

from __future__ import annotations

import pathlib

import pytest

yaml = pytest.importorskip("yaml")

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
CI_PATH = REPO_ROOT / ".github" / "workflows" / "ci.yml"


@pytest.fixture(scope="module")
def workflow() -> dict:
    return yaml.safe_load(CI_PATH.read_text())


class TestWorkflowShape:
    def test_parses_and_has_expected_jobs(self, workflow):
        assert set(workflow["jobs"]) == {
            "lint",
            "tests",
            "kernels",
            "transport",
            "perfbench",
            "bench-guard",
            "nightly-soak",
        }

    def test_triggers_cover_push_and_pr(self, workflow):
        # YAML 1.1 parses the bare key `on` as boolean True.
        triggers = workflow.get("on", workflow.get(True))
        assert "push" in triggers and "pull_request" in triggers

    def test_nightly_cron_trigger(self, workflow):
        triggers = workflow.get("on", workflow.get(True))
        crons = [e["cron"] for e in triggers["schedule"]]
        assert crons, "a schedule trigger drives the nightly soak lane"
        for cron in crons:
            assert len(cron.split()) == 5

    def test_python_matrix_versions(self, workflow):
        matrix = workflow["jobs"]["tests"]["strategy"]["matrix"]
        assert matrix["python-version"] == ["3.10", "3.11", "3.12"]

    def test_matrix_job_runs_fast_lane_via_check_sh(self, workflow):
        runs = [s.get("run", "") for s in workflow["jobs"]["tests"]["steps"]]
        assert any("check.sh --fast" in r for r in runs)

    def test_full_lane_measures_coverage_with_floor(self, workflow):
        runs = [s.get("run", "") for s in workflow["jobs"]["tests"]["steps"]]
        full = [r for r in runs if "--cov=repro" in r]
        assert full, "the 3.12 full-suite lane measures coverage"
        assert any("--cov-fail-under=" in r for r in full)

    def test_bench_guard_is_advisory(self, workflow):
        assert workflow["jobs"]["bench-guard"]["continue-on-error"] is True

    def test_bench_guard_uploads_artifacts(self, workflow):
        steps = workflow["jobs"]["bench-guard"]["steps"]
        runs = " ".join(s.get("run", "") for s in steps)
        assert "--json" in runs and "--obs" in runs
        uploads = [s for s in steps if "upload-artifact" in str(s.get("uses", ""))]
        assert uploads, "bench deltas + obs snapshot ship as artifacts"
        paths = uploads[0]["with"]["path"]
        assert "BENCH_micro.json" in paths
        assert "obs_snapshot.json" in paths

    def test_transport_job_is_a_tcp_shm_matrix(self, workflow):
        job = workflow["jobs"]["transport"]
        assert job["strategy"]["matrix"]["transport"] == ["tcp", "shm"]
        runs = " ".join(s.get("run", "") for s in job["steps"])
        assert "--transport ${{ matrix.transport }}" in runs
        assert "tests/net" in runs
        assert "tests/staging" in runs
        assert "tests/faults" in runs
        # The shm leg must fail if any segment survives the suite.
        assert "/dev/shm/repro-shm-" in runs

    def test_nightly_soak_is_schedule_gated_and_runs_both_transports(self, workflow):
        job = workflow["jobs"]["nightly-soak"]
        assert "schedule" in job["if"]
        runs = " ".join(s.get("run", "") for s in job["steps"])
        assert "REPRO_TRANSPORT=tcp" in runs
        assert "REPRO_TRANSPORT=shm" in runs
        assert "soak_gc.py" in runs and "soak_recovery.py" in runs
        # The nightly budget must exceed the per-PR kernels-job defaults
        # (soak_gc --steps 40, soak_recovery --steps 32).
        assert "--steps 120" in runs
        assert "--steps 48" in runs
        assert "/dev/shm/repro-shm-" in runs

    def test_perfbench_job_runs_its_tests_and_a_checked_smoke_run(self, workflow):
        runs = " ".join(s.get("run", "") for s in workflow["jobs"]["perfbench"]["steps"])
        assert "python -m pytest perfbench/tests" in runs
        assert "perfbench/run.py --workload coupled-tcp" in runs
        assert "--trace 1" in runs
        assert '"correct"' in runs and '"failed"' in runs

    def test_kernel_job_covers_corec_and_fault_matrix(self, workflow):
        runs = " ".join(s.get("run", "") for s in workflow["jobs"]["kernels"]["steps"])
        assert "tests/corec" in runs
        assert "tests/faults" in runs

    def test_setup_python_uses_pip_cache(self, workflow):
        for job in workflow["jobs"].values():
            setup = [
                s for s in job["steps"] if "setup-python" in str(s.get("uses", ""))
            ]
            assert setup, "every job pins a python version"
            assert all(s["with"].get("cache") == "pip" for s in setup)


class TestCheckScript:
    def test_flags_documented_in_usage(self):
        text = (REPO_ROOT / "scripts" / "check.sh").read_text()
        for flag in ("--fast", "--bench", "--bench-guard", "--transport"):
            assert flag in text

    def test_transport_runs_reap_stranded_servers(self):
        """The wire lanes trap INT/TERM/EXIT and kill each step's process
        group, so a cancelled CI job cannot strand server processes; the
        shm lane additionally unlinks leaked segments."""
        text = (REPO_ROOT / "scripts" / "check.sh").read_text()
        assert "trap cleanup INT TERM EXIT" in text
        assert "CHILD_PGID" in text
        assert "/dev/shm/repro-shm-*" in text

    def test_dev_extra_pins_ci_tools(self):
        text = (REPO_ROOT / "pyproject.toml").read_text()
        assert "dev = [" in text
        assert "ruff" in text
        assert "pytest-cov" in text
