"""Command-line interface: outputs, file round trips, exit codes."""

import contextlib
import inspect
import io
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sparsegt
from sparsegt import bounds, cli, decoders
from sparsegt.cli import main
from sparsegt.core import parse, serialize
from sparsegt.designs import hypergrid_design, permuted_block_rho_design, repeat_design
from test_sim import forks, lost_workers


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def _child_env():
    """This environment, with the package under test first on the path."""
    env = dict(os.environ)
    src = str(Path(sparsegt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_child(*argv, address_space=None):
    """Run the CLI in a child process, with its address space capped in
    bytes when given; the cap applies to the child only."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "sparsegt.cli", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        preexec_fn=None if address_space is None else limit,
    )


# runs the CLI on its arguments, then prints the peak RSS of the process's
# own address space in MB: its ru_maxrss would start at the peak of the
# process that started it, here the test run's
_PEAK_RSS_SCRIPT = """
import sys
from sparsegt.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024)
sys.exit(code)
"""


def peak_rss_mb(*argv) -> float:
    """The peak RSS (VmHWM) of a child process that runs the CLI on
    ``argv``, which must exit 0."""
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_SCRIPT, *argv],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout.splitlines()[-1])


def test_a_one_job_run_loads_no_process_pool():
    """``concurrent.futures`` and the ``multiprocessing`` modules it brings
    (about 0.9 MB) are loaded only for a run of more than one job."""
    script = ("import sys\n"
              "from sparsegt.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print('concurrent.futures' in sys.modules)\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script, "simulate", "--design", "fig1",
                           "--d", "2", "--trials", "100"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


class TestDesignCommand:
    def test_summary_line(self, capsys):
        code, out, _ = run(capsys, "design", "--family", "hypergrid", "--n", "9", "--gamma", "2")
        assert code == 0
        assert out[0] == "# cmd: sparsegt design --family hypergrid --n 9 --gamma 2"
        assert out[1] == "hypergrid 6 9 18 3 2"

    def test_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "grid.design"
        code, _, _ = run(
            capsys,
            "design", "--family", "hypergrid", "--n", "9", "--gamma", "2",
            "--out", str(path),
        )
        assert code == 0
        text = path.read_text()
        assert text.startswith("# cmd: sparsegt design")
        assert "# family=hypergrid seed=0" in text
        assert parse(text) == hypergrid_design(9, 2)

    def test_file_holds_the_serialized_design(self, capsys, tmp_path):
        """The file is written a part at a time, and holds the two comment
        lines and then exactly the bytes of ``serialize``: here 25 000
        incidences, several of its chunks."""
        path = tmp_path / "rho.design"
        flags = ["--family", "permuted-rho", "--n", "5000", "--d", "5", "--rho", "50",
                 "--zeta", "0.5", "--seed", "3"]
        code, out, _ = run(capsys, "design", *flags, "--out", str(path))
        assert code == 0
        matrix = permuted_block_rho_design(5000, 5, 50, 0.5, np.random.default_rng(3))
        assert matrix.ones_count() == 25_000
        want = out[0] + "\n# family=permuted-rho seed=3\n" + serialize(matrix)
        assert path.read_bytes() == want.encode()

    def test_random_family_is_seeded(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for path in (a, b):
            run(
                capsys,
                "design", "--family", "random-gamma", "--n", "50", "--d", "2",
                "--gamma", "2", "--epsilon", "0.2", "--seed", "9",
                "--out", str(path),
            )
        assert parse(a.read_text()) == parse(b.read_text())

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "design", "--family", "hypergrid", "--n", "9")
        assert code == 1
        assert "requires --gamma" in err

    def test_unknown_family_rejected_by_parser(self, capsys):
        code, _, _ = run(capsys, "design", "--family", "mystery", "--n", "9")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "permuted-rho", "--n", "100", "--d", "2", "--rho", "10",
             "--zeta", "1e9"],
            ["--family", "hypergrid", "--n", "10", "--gamma", "100000000"],
        ],
        ids=["permuted-passes", "hypergrid-axes"],
    )
    def test_design_above_the_test_cap_exits_3(self, capsys, argv):
        code, out, err = run(capsys, "design", *argv)
        assert code == 3
        assert out == []
        assert err.startswith("resource cap: design needs")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "hypergrid", "--n", "1000000000000", "--gamma", "2"],
            ["--family", "block-hypergrid", "--n", "1000000000000", "--d", "5",
             "--gamma", "2", "--epsilon", "0.1"],
            ["--family", "block-binary-rho", "--n", "1000000000000", "--d", "5",
             "--rho", "1000000", "--epsilon", "0.1"],
            ["--family", "permuted-rho", "--n", "1000000000000", "--d", "5",
             "--rho", "100000000", "--zeta", "0.5"],
            ["--family", "hypergrid", "--n", "1000", "--gamma", "1000000"],
        ],
        ids=["hypergrid-items", "block-hypergrid-items", "block-binary-items",
             "permuted-items", "hypergrid-incidences"],
    )
    def test_oversize_design_exits_3_under_an_address_space_limit(self, argv):
        proc = run_child("design", *argv, address_space=1_500_000 * 1024)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("resource cap: design needs")

    def test_random_gamma_above_the_incidence_cap_exits_3(self, capsys, tmp_path):
        path = tmp_path / "x"
        code, out, err = run(
            capsys,
            "design", "--family", "random-gamma", "--n", "1000000000000", "--d", "5",
            "--gamma", "3", "--epsilon", "0.1", "--seed", "1", "--out", str(path),
        )
        assert (code, out) == (3, [])
        assert err == (
            "resource cap: design needs 3000000000000 incidences, "
            "above the cap of 100000000\n"
        )
        assert not path.exists()


class TestSimulateCommand:
    def test_clean_run_emits_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--family", "hypergrid", "--n", "9", "--gamma", "2",
            "--d", "1", "--trials", "200", "--seed", "5",
        )
        assert code == 0
        assert out[1].startswith("design_tag,")
        fields = out[2].split(",")
        assert fields[0] == "hypergrid"
        assert fields[7] == "200"
        assert fields[8] == "0"  # singletons always decode

    def test_target_met_and_exceeded(self, capsys):
        base = [
            "simulate", "--family", "hypergrid", "--n", "9", "--gamma", "2",
            "--d", "2", "--decoder", "coma", "--trials", "400", "--seed", "5",
        ]
        code_ok, _, _ = run(capsys, *base, "--target-epsilon", "0.9")
        assert code_ok == 0
        code_bad, out, _ = run(capsys, *base, "--target-epsilon", "0.1")
        assert code_bad == 2
        assert any(line.startswith("# target exceeded:") for line in out)

    def test_noise_without_repetition_refused(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--family", "permuted-rho", "--n", "60", "--d", "2",
            "--rho", "6", "--zeta", "0.5", "--sigma", "0.1", "--trials", "10",
        )
        assert code == 1
        assert "repeated design" in err

    @pytest.mark.parametrize("noise", [[], ["--sigma", "0.1"]])
    def test_k_must_match_a_repeated_design(self, capsys, tmp_path, noise):
        """--k is the repeat count of the design that runs: a file saved
        with k=3 runs as it is under --k 3, and --k 5 is refused on one
        line that names both counts, with or without noise."""
        path = tmp_path / "rep.design"
        code, _, _ = run(capsys, "design", "--family", "permuted-rho", "--n", "60", "--d", "2",
                         "--rho", "6", "--zeta", "0.5", "--out", str(path))
        assert code == 0
        path.write_text(serialize(repeat_design(parse(path.read_text()), 3)))
        base = ["simulate", "--design", str(path), "--d", "1", "--trials", "20", *noise]
        code, out, err = run(capsys, *base, "--k", "3")
        assert (code, err) == (0, "")
        assert out[2].split(",")[0] == "repeated"
        code, out, err = run(capsys, *base, "--k", "5")
        assert (code, out) == (1, [])
        assert err == "error: --k 5 differs from the design's repeat count k=3\n"

    def test_broken_repeated_design_refused(self, capsys, tmp_path):
        path = tmp_path / "broken.design"
        path.write_text("4 3 tag=repeated k=2 base=custom\n1 0\n1 1\n1 2\n1 2\n")
        code, out, err = run(capsys, "simulate", "--design", str(path), "--d", "1",
                             "--sigma", "0.1", "--trials", "5")
        assert code == 1
        assert out == []
        assert err == ("error: rows 0..1 of the repeated design are not copies of one row\n")

    def test_repetition_above_the_test_cap_exits_3(self, capsys):
        code, out, err = run(
            capsys,
            "simulate", "--family", "permuted-rho", "--n", "100", "--d", "2",
            "--rho", "10", "--zeta", "0.5", "--sigma", "0.1", "--k", "10000000000000",
            "--trials", "5",
        )
        assert (code, out) == (3, [])
        assert err.startswith("resource cap: design needs")
        assert err.endswith("tests, above the cap of 10000000\n")
        assert err.count("\n") == 1

    @forks
    def test_a_lost_worker_exits_3(self, capsys):
        with lost_workers():
            code, out, err = run(capsys, "simulate", "--design", "fig1", "--d", "2",
                                 "--trials", "100", "--jobs", "2")
        assert code == 3
        assert all(line.startswith("#") for line in out)
        assert err.startswith("resource cap: a worker process of the 2-job run ended")
        assert err.count("\n") == 1

    def test_noisy_run_with_k(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--family", "permuted-rho", "--n", "60", "--d", "2",
            "--rho", "6", "--zeta", "0.5", "--sigma", "0.1", "--k", "21",
            "--trials", "100", "--seed", "7",
        )
        assert code == 0
        fields = out[2].split(",")
        assert fields[0] == "repeated"
        assert float(fields[5]) == 0.1

    def test_simulate_from_design_file(self, capsys, tmp_path):
        path = tmp_path / "grid.design"
        run(
            capsys,
            "design", "--family", "hypergrid", "--n", "9", "--gamma", "2",
            "--out", str(path),
        )
        code, out, _ = run(
            capsys,
            "simulate", "--design", str(path), "--d", "1", "--trials", "50",
        )
        assert code == 0
        assert out[2].split(",")[8] == "0"

    def test_out_appends_csv(self, capsys, tmp_path):
        log = tmp_path / "runs.csv"
        args = [
            "simulate", "--family", "hypergrid", "--n", "9", "--gamma", "2",
            "--d", "1", "--trials", "20", "--out", str(log),
        ]
        run(capsys, *args)
        run(capsys, *args)
        lines = log.read_text().splitlines()
        assert len(lines) == 6  # echo + header + row, twice
        assert lines[0].startswith("# cmd:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "block-hypergrid", "--n", "36", "--d", "2", "--gamma", "2",
             "--epsilon", "0.9"],
            ["--family", "permuted-rho", "--n", "100", "--d", "2", "--rho", "5",
             "--zeta", "0.5", "--epsilon", "0.7"],
        ],
        ids=["block-epsilon-above-half", "permuted-ignores-epsilon"],
    )
    def test_accepts_the_flags_design_accepts(self, capsys, argv):
        code, out, err = run(capsys, "simulate", *argv, "--trials", "50")
        assert (code, err) == (0, "")
        assert out[1].startswith("design_tag,")

    def test_needs_design_or_family(self, capsys):
        code, _, err = run(capsys, "simulate", "--d", "1")
        assert code == 1
        assert "--design or --family" in err

    def test_d_is_checked_before_the_design_is_built(self, capsys):
        code, out, err = run(capsys, "simulate", "--family", "hypergrid",
                             "--n", "1000000000", "--gamma", "2")
        assert (code, out, err) == (1, [], "error: simulate requires --d\n")


class TestBoundsCommand:
    def test_gamma_lower_bound_text(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--theorem", "1", "--n", "1000000", "--d", "1",
            "--gamma", "2", "--epsilon", "0.01",
        )
        assert code == 0
        assert "name=gamma-lower-bound" in out
        assert "value=1415.89" in out
        assert "integer_value=1416" in out

    def test_rho_lower_bound_text(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--theorem", "4", "--n", "10000", "--d", "10",
            "--rho", "100", "--epsilon", "0.01",
        )
        assert code == 0
        assert "value=282" in out

    def test_upper_bound_families(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--theorem", "2", "--n", "10000", "--d", "5",
            "--gamma", "3", "--epsilon", "0.1",
        )
        assert code == 0
        assert "integer_value=1893" in out
        code, out, _ = run(
            capsys,
            "bounds", "--theorem", "5", "--n", "10000", "--d", "10",
            "--rho", "100", "--zeta", "0.5",
        )
        assert "integer_value=600" in out
        code, out, _ = run(
            capsys,
            "bounds", "--theorem", "7", "--n", "1000", "--d", "10",
            "--rho", "50", "--zeta", "0.5", "--sigma", "0.1",
        )
        assert "integer_value=19500" in out

    def test_rho_lower_bound_past_one_sixth_is_zero(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--theorem", "4", "--n", "1000", "--d", "10",
            "--rho", "10", "--epsilon", "0.3",
        )
        assert code == 0
        assert "value=0" in out
        assert "integer_value=0" in out
        assert "assumes=epsilon >= 1/6 makes 1 - 6*epsilon <= 0; the bound is vacuous (0)" in out

    def test_noisy_floor(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--theorem", "noisy", "--d", "2", "--gamma", "2",
            "--sigma", "0.2",
        )
        assert code == 0
        assert "value=0.125" in out
        assert "floor=0.111111" in out

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--theorem", "4", "--n", "10000", "--d", "10",
            "--rho", "100", "--epsilon", "0.01", "--csv",
        )
        assert code == 0
        assert out[1] == "name,value,integer_value,floor,assumptions"
        assert out[2].startswith("rho-lower-bound,282,282,,")

    def test_missing_flags(self, capsys):
        code, _, err = run(capsys, "bounds", "--theorem", "1", "--n", "100")
        assert code == 1
        assert "requires" in err


class TestOracleCommand:
    def test_fig1_pairs(self, capsys):
        code, out, _ = run(capsys, "oracle", "--design", "fig1", "--d", "2")
        assert code == 0
        assert "exact_error=1/1=1" in out
        confusable = [line for line in out if line.startswith("# confusable:")]
        assert len(confusable) == 9
        assert any("{0,4} (1-based {1,5}) == {1,3} (1-based {2,4})" in line for line in confusable)

    def test_fig1_singletons(self, capsys):
        code, out, _ = run(capsys, "oracle", "--design", "fig1", "--d", "1")
        assert code == 0
        assert "exact_error=0/1=0" in out
        assert not any(line.startswith("# confusable:") for line in out)

    def test_target_epsilon_exit_code(self, capsys):
        code, _, _ = run(
            capsys, "oracle", "--design", "fig1", "--d", "2", "--target-epsilon", "0.5"
        )
        assert code == 2

    def test_noisy_oracle_reports_floor(self, capsys, tmp_path):
        path = tmp_path / "small.design"
        run(
            capsys,
            "design", "--family", "hypergrid", "--n", "8", "--gamma", "2",
            "--out", str(path),
        )
        code, out, _ = run(
            capsys, "oracle", "--design", str(path), "--d", "1", "--sigma", "0.2"
        )
        assert code == 0
        assert any(line.startswith("map_error=") for line in out)
        assert any("floor_check=holds" in line for line in out)

    def test_noisy_floor_not_applicable_when_d_reaches_half_n(self, capsys):
        # the floor assumes d < n/2; fig1 has n = 9
        code, out, _ = run(capsys, "oracle", "--design", "fig1", "--d", "8", "--sigma", "0.1")
        assert code == 0
        assert any(line.endswith("floor_check=n/a") for line in out)

    def test_noisy_oracle_without_defectives_skips_the_floor(self, capsys):
        # the floor needs d >= 1, as it needs a tested item; the bounds
        # command still refuses d = 0
        code, out, err = run(capsys, "oracle", "--design", "fig1", "--d", "0", "--sigma", "0.1")
        assert (code, err) == (0, "")
        assert out[1:] == ["map_error=0"]
        code, _, err = run(capsys, "bounds", "--theorem", "noisy", "--d", "0", "--gamma", "2",
                           "--sigma", "0.1")
        assert (code, err) == (1, "error: d must be >= 1\n")

    def test_confusable_groups_above_the_listing_cap_not_listed(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_LIST_CAP", 10)
        code, out, _ = run(capsys, "oracle", "--design", "fig1", "--d", "2")
        assert code == 0
        assert out[1:] == [
            "exact_error=1/1=1",
            "# confusable groups not listed: C(9,2) = 36 exceeds 10",
        ]
        code, _, _ = run(
            capsys, "oracle", "--design", "fig1", "--d", "2", "--target-epsilon", "0.5"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--family", "block-hypergrid", "--n", "36", "--d", "2", "--gamma", "2"],
         ["--family", "block-binary-rho", "--n", "40", "--d", "2", "--rho", "3"]],
        ids=["block-hypergrid", "block-binary-rho"],
    )
    def test_block_design_past_the_cap_reads_its_error_off_the_blocks(
            self, capsys, tmp_path, flags):
        path = str(tmp_path / "block.design")
        run(capsys, "design", *flags, "--epsilon", "0.5", "--out", path)
        code, enumerated, _ = run(capsys, "oracle", "--design", path, "--d", "3")
        assert code == 0
        code, out, _ = run(capsys, "oracle", "--design", path, "--d", "3", "--cap", "10")
        assert code == 0
        assert out[1] == enumerated[1] != "exact_error=0/1=0"
        assert out[2].startswith("# confusable groups not listed: C(")
        assert out[2].endswith("exceeds the cap of 10; "
                               "exact_error is the chance that two defectives share a block")
        code, _, _ = run(capsys, "oracle", "--design", path, "--d", "3", "--cap", "10",
                         "--target-epsilon", "0")
        assert code == 2
        code, _, err = run(capsys, "oracle", "--design", path, "--d", "3", "--cap", "-1")
        assert (code, err) == (1, "error: --cap must be >= 0\n")

    def test_past_the_cap_other_decoders_and_altered_blocks_are_refused(self, capsys, tmp_path):
        path = tmp_path / "block.design"
        run(capsys, "design", "--family", "block-binary-rho", "--n", "40", "--d", "2",
            "--rho", "3", "--epsilon", "0.5", "--out", str(path))
        code, _, err = run(capsys, "oracle", "--design", str(path), "--d", "3", "--cap", "10",
                           "--decoder", "coma")
        assert code == 3
        assert "resource cap" in err
        # the same blocks and test sizes, but the first test pools item 1
        text = path.read_text()
        assert "\n1 0\n1 1\n" in text
        altered = tmp_path / "altered.design"
        altered.write_text(text.replace("\n1 0\n", "\n1 1\n", 1))
        code, _, err = run(capsys, "oracle", "--design", str(altered), "--d", "3", "--cap", "10")
        assert code == 3
        assert "resource cap" in err

    def test_zero_sigma_is_the_noiseless_oracle(self, capsys):
        code, out, _ = run(capsys, "oracle", "--design", "fig1", "--d", "1", "--sigma", "0")
        assert code == 0
        assert "exact_error=0/1=0" in out
        code, _, err = run(capsys, "oracle", "--design", "fig1", "--d", "2", "--sigma", "0",
                           "--cap", "0")
        assert code == 3
        assert "resource cap" in err

    def test_resource_cap_exit_code(self, capsys):
        code, _, err = run(
            capsys, "oracle", "--design", "fig1", "--d", "4", "--cap", "10"
        )
        assert code == 3
        assert "resource cap" in err

    def test_missing_design_file(self, capsys):
        code, _, err = run(capsys, "oracle", "--design", "/no/such/file", "--d", "1")
        assert code == 1
        assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--family", "permuted-rho", "--n", "100", "--d", "2", "--rho", "10",
         "--zeta", "inf"],
        ["bounds", "--theorem", "5", "--n", "100", "--d", "2", "--rho", "10",
         "--zeta", "1e308"],
        ["design", "--family", "block-hypergrid", "--n", "100", "--d", "2", "--gamma", "2",
         "--epsilon", "1e-320"],
        ["simulate", "--design", "{not_utf8}", "--d", "1"],
        ["simulate", "--design", "{not_utf8_cr}", "--d", "1"],
        ["simulate", "--design", "{not_utf8_ff}", "--d", "1"],
        ["design", "--family", "permuted-rho", "--n", "100", "--d", "2", "--rho", "10",
         "--zeta", "0.5", "--seed", "-1"],
        ["design", "--family", "random-gamma", "--n", "100", "--d", "2", "--gamma", "2",
         "--epsilon", "0.2", "--seed", "-1"],
        ["simulate", "--family", "permuted-rho", "--n", "100", "--d", "2", "--rho", "10",
         "--zeta", "0.5", "--seed", "-1", "--trials", "5"],
        ["simulate", "--family", "random-gamma", "--n", "100", "--d", "2", "--gamma", "2",
         "--epsilon", "0.2", "--seed", "-1", "--trials", "5"],
        ["simulate", "--family", "hypergrid", "--n", "9", "--gamma", "2", "--d", "1",
         "--trials", "5", "--k", "0"],
        ["simulate", "--family", "hypergrid", "--n", "9", "--gamma", "2", "--d", "1",
         "--trials", "5", "--k", "-1"],
        ["oracle", "--design", "fig1", "--d", "1", "--sigma", "-0.1"],
        ["oracle", "--design", "fig1", "--d", "1", "--sigma", "nan"],
        ["oracle", "--design", "fig1", "--d", "1", "--cap", "-5"],
        ["oracle", "--design", "fig1", "--d", "2", "--sigma", "0.1", "--decoder", "binary"],
        ["oracle", "--design", "fig1", "--d", "2", "--sigma", "0.1", "--cap", "0"],
        ["simulate", "--family", "hypergrid", "--n", "9", "--gamma", "2", "--d", "1",
         "--trials", "5", "--target-epsilon", "nan"],
        ["simulate", "--family", "hypergrid", "--n", "9", "--gamma", "2", "--d", "1",
         "--trials", "5", "--target-epsilon", "-0.5"],
        ["simulate", "--family", "hypergrid", "--n", "9", "--gamma", "2", "--d", "1",
         "--trials", "5", "--target-epsilon", "1.5"],
        ["oracle", "--design", "fig1", "--d", "1", "--target-epsilon", "nan"],
        ["oracle", "--design", "fig1", "--d", "1", "--target-epsilon", "-0.5"],
        ["oracle", "--design", "/no/such/file", "--d", "1", "--target-epsilon", "2"],
    ],
    ids=["zeta-inf", "zeta-overflow", "epsilon-underflow", "design-not-utf8",
         "design-not-utf8-cr", "design-not-utf8-form-feed",
         "design-permuted-negative-seed", "design-random-gamma-negative-seed",
         "simulate-permuted-negative-seed", "simulate-random-gamma-negative-seed",
         "simulate-k-0", "simulate-k-negative", "oracle-sigma-negative", "oracle-sigma-nan",
         "oracle-negative-cap", "oracle-noisy-with-a-decoder", "oracle-noisy-with-a-cap",
         "simulate-target-nan", "simulate-target-negative", "simulate-target-above-one",
         "oracle-target-nan", "oracle-target-negative", "oracle-target-before-the-design"],
)
def test_bad_input_is_one_error_line(capsys, tmp_path, argv):
    """Each bad input is one error line. A design file that is not UTF-8
    names the line of its first bad byte, with lines ended by "\n", a lone
    CR or a form feed, as ``parse`` numbers them."""
    paths = {}
    for name, end in (("{not_utf8}", b"\n"), ("{not_utf8_cr}", b"\r"), ("{not_utf8_ff}", b"\x0c")):
        paths[name] = tmp_path / f"binary{len(paths)}.design"
        paths[name].write_bytes(end.join([b"2 3", b"1 0", b"\xff\xfe 1", b""]))
    code, _, err = run(capsys, *[str(paths[a]) if a in paths else a for a in argv])
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    if paths.keys() & set(argv):
        assert "line 3" in err
    if "--target-epsilon" in argv:
        assert err == "error: --target-epsilon must lie in [0, 1]\n"


_HUGE = "1" + "0" * 400  # beyond float range


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--theorem", "1", "--n", _HUGE, "--d", "5", "--gamma", "1",
         "--epsilon", "0.01"],
        ["bounds", "--theorem", "2", "--n", _HUGE, "--d", "5", "--gamma", "1",
         "--epsilon", "0.1"],
        ["bounds", "--theorem", "3", "--n", _HUGE, "--d", "5", "--gamma", "1",
         "--epsilon", "0.1"],
        ["bounds", "--theorem", "4", "--n", _HUGE, "--d", "5", "--rho", "2",
         "--epsilon", "0.1"],
        ["bounds", "--theorem", "5", "--n", _HUGE, "--d", "5", "--rho", "2", "--zeta", "1"],
        ["bounds", "--theorem", "6", "--n", _HUGE, "--d", "5", "--rho", "2",
         "--epsilon", "0.1"],
        ["bounds", "--theorem", "7", "--n", _HUGE, "--d", "5", "--rho", "2", "--zeta", "1",
         "--sigma", "0.1"],
        ["design", "--family", "permuted-rho", "--n", _HUGE, "--d", "5", "--rho", "2",
         "--zeta", "1"],
        ["design", "--family", "block-binary-rho", "--n", _HUGE, "--d", "5", "--rho", "2",
         "--epsilon", "0.1"],
        ["design", "--family", "random-gamma", "--n", _HUGE, "--d", "5", "--gamma", "1",
         "--epsilon", "0.1"],
        ["design", "--family", "random-gamma", "--n", "10", "--d", "5", "--gamma", _HUGE,
         "--epsilon", "0.1"],
    ],
    ids=["theorem-1", "theorem-2", "theorem-3", "theorem-4", "theorem-5", "theorem-6",
         "theorem-7", "permuted-rho", "block-binary-rho", "random-gamma-n",
         "random-gamma-gamma"],
)
def test_values_beyond_float_range_are_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code in (1, 3)
    assert out == []
    assert len(err.splitlines()) == 1
    assert err.startswith("error:" if code == 1 else "resource cap:")


@pytest.mark.parametrize(
    "argv, value, integer",
    [
        (["--theorem", "3", "--gamma", "2", "--n", _HUGE], "3.16228e+201", "31622776601683"),
        (["--theorem", "6", "--rho", "1" + "0" * 398, "--n", _HUGE], "330201", "330250"),
    ],
    ids=["theorem-3", "theorem-6-error-budget"],
)
def test_block_bounds_with_blocks_beyond_float_range(capsys, argv, value, integer):
    """n * epsilon / d^2 exceeds float range, but the bound does not."""
    code, out, err = run(capsys, "bounds", *argv, "--d", "5", "--epsilon", "0.1")
    assert (code, err) == (0, "")
    assert f"value={value}" in out
    assert any(line.startswith(f"integer_value={integer}") for line in out)


# a valid value of each flag that a family or the noisy floor reads
_VALID = {"n": "100", "d": "2", "gamma": "2", "rho": "10", "epsilon": "0.2", "zeta": "0.5",
          "sigma": "0.1"}


def _flags_read(function, *also):
    """The flags named by the parameters of ``function`` but a constructor's
    rng, which --seed sets, and ``also``."""
    names = [name for name in inspect.signature(function).parameters if name != "rng"]
    return [f"--{name}" for name in dict.fromkeys([*names, *also])]


@pytest.mark.parametrize(
    "command, flags",
    [
        *((["design", "--family", tag], _flags_read(construct))
          for tag, construct in cli._FAMILIES.items()),
        *((["simulate", "--family", tag, "--trials", "5"], _flags_read(construct, "d"))
          for tag, construct in cli._FAMILIES.items()),
        (["bounds", "--theorem", "noisy"], _flags_read(bounds.noisy_gamma_error_floor)),
    ],
    ids=[*(f"design-{tag}" for tag in cli._FAMILIES),
         *(f"simulate-{tag}" for tag in cli._FAMILIES), "noisy-floor"],
)
def test_each_flag_read_from_a_signature_is_required(capsys, command, flags):
    """Each flag named by a parameter of the function a line runs is a flag
    of that command, and the line without it is one error line naming it: a
    renamed parameter is a renamed flag."""
    values = {flag: _VALID[flag[2:]] for flag in flags}
    code, _, err = run(capsys, *command, *[token for item in values.items() for token in item])
    assert (code, err) == (0, "")
    for dropped in flags:
        rest = [token for item in values.items() if item[0] != dropped for token in item]
        code, out, err = run(capsys, *command, *rest)
        assert (code, out) == (1, [])
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert re.search(rf"{dropped}\b", err), err


# flag values for generated command lines: mostly small in-range values that
# keep every call well under a second, else one of the out-of-range,
# non-finite or non-numeric tokens
_BAD = ["-1", "0", "nan", "inf", "1e308", "x"]
_SMALL = ["1", "2", "3", "5"]
_REALS = ["0.05", "0.2", "0.45", "0.9", "2"]
_DECODERS = ["auto", "auto", *decoders._PLAN_TYPES]
_FAMILY_FLAGS = {
    "--family": list(cli._FAMILIES),
    "--n": ["2", "9", "40"], "--d": _SMALL, "--gamma": _SMALL, "--rho": _SMALL,
    "--epsilon": _REALS, "--sigma": ["0.05", "0.2"], "--zeta": _REALS, "--seed": _SMALL,
}
_FUZZ_FLAGS = {
    "design": _FAMILY_FLAGS,
    "simulate": {
        **_FAMILY_FLAGS,
        "--design": ["fig1", "fig1", "/no/such/file"],
        "--trials": ["1", "5"],
        "--jobs": ["1"],  # _BAD holds no worker count above one either
        "--k": _SMALL, "--decoder": _DECODERS, "--prior": ["exact", "bernoulli"],
        "--target-epsilon": _REALS,
    },
    "bounds": {
        "--theorem": [*cli._THEOREMS, "noisy"],
        "--n": ["2", "9", "40", "10000"], "--d": _SMALL, "--gamma": _SMALL,
        "--rho": _SMALL, "--epsilon": _REALS, "--sigma": _REALS, "--zeta": _REALS,
        "--csv": None,
    },
    "oracle": {
        "--design": ["fig1"], "--d": _SMALL, "--sigma": _REALS, "--decoder": _DECODERS,
        "--target-epsilon": _REALS, "--cap": ["10", "1000"],
    },
}


@st.composite
def command_lines(draw):
    """A subcommand and most of its flags, in any order; about one value in
    eight is a bad token."""
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    flags = _FUZZ_FLAGS[command]
    argv = [command]
    for flag in draw(st.permutations(sorted(flags))):
        if draw(st.integers(0, 3)):
            argv.append(flag)
            if flags[flag] is not None:
                argv.append(draw(st.sampled_from(flags[flag] if draw(st.integers(0, 7))
                                                 else _BAD)))
    return argv


@given(command_lines())
@settings(max_examples=500, deadline=None)
def test_generated_command_lines_exit_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


class TestEntryPoint:
    def test_console_script(self):
        proc = run_child("design", "--family", "hypergrid", "--n", "9", "--gamma", "2")
        assert proc.returncode == 0
        assert "hypergrid 6 9 18 3 2" in proc.stdout


class TestLargeDesignMemory:
    """The peak RSS of each command at the large-n benchmark's parameters
    (permuted-rho, n = 4 * 10**5, d = 10, rho = 100, zeta = 0.5: T = 16 000,
    1.6 M incidences, a 10.8 MB file), each run in a child process that
    reports its own peak. Holding the whole file text before
    writing it took the design command to about 79 MB, and int64 column
    indices took a 64-trial run of the file to about 81 MB; with this NumPy
    they read about 49 and 63."""

    @pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads /proc/self/status")
    def test_design_then_simulate(self, tmp_path):
        path = tmp_path / "large.design"
        design = peak_rss_mb("design", "--family", "permuted-rho", "--n", "400000", "--d", "10",
                             "--rho", "100", "--zeta", "0.5", "--seed", "42", "--out", str(path))
        simulate = peak_rss_mb("simulate", "--design", str(path), "--d", "10", "--trials", "64",
                               "--seed", "42")
        assert design <= 64
        assert simulate <= 76


# runs the CLI on its arguments (after the first two) with one layer, the
# function named by the first as module.name, wrapped: given 0 as the
# second, it prints to stderr how many KB of address space the layer left
# mapped; given a number of KB, it caps the address space that far above
# where the layer starts
_CAPPED_LAYER_SCRIPT = """
import importlib, resource, sys
import numpy.random  # NumPy loads it on first use, which a cap would refuse
from sparsegt import cli

def mapped_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))

module, name = sys.argv[1].rsplit(".", 1)
module, slack = importlib.import_module(module), int(sys.argv[2])
layer = getattr(module, name)

def capped(*args, **kwargs):
    start = mapped_kb()
    if slack:
        cap = (start + slack) * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))
    result = layer(*args, **kwargs)
    if not slack:
        print(mapped_kb() - start, file=sys.stderr)
    return result

setattr(module, name, capped)
sys.exit(cli.main(sys.argv[3:]))
"""


class TestOutOfMemory:
    @pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads /proc/self/status")
    @pytest.mark.parametrize("layer, named", [
        ("sparsegt.cli._construct", "building the design"),
        ("sparsegt.sim.make_plan", "the set-up"),
    ])
    def test_a_layer_out_of_memory_exits_3(self, layer, named):
        """A child measures the address space a layer leaves mapped (the
        design of 8 * 10**5 incidences, or the column index and plan of the
        set-up: a few MB each); a second child caps the address space at
        half of that above where the layer starts, so the layer runs out
        of memory. The CLI reports it as one ``resource cap:`` line naming
        the layer and exit 3, with no traceback."""
        argv = ["simulate", "--family", "permuted-rho", "--n", "200000", "--d", "10",
                "--rho", "100", "--zeta", "0.5", "--trials", "64", "--seed", "1"]

        def child(slack):
            return subprocess.run([sys.executable, "-c", _CAPPED_LAYER_SCRIPT, layer, str(slack),
                                   *argv], capture_output=True, text=True, env=_child_env())

        measured = child(0)
        assert measured.returncode == 0, measured.stderr
        mapped = int(measured.stderr.splitlines()[-1])
        assert mapped > 1024
        proc = child(mapped // 2)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith(f"resource cap: out of memory in {named}")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""
