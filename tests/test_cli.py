import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import schurkit
from schurkit import cli

SEED6_SWEEP = ["verify", "--n", "8", "--sizes", "9,7,5", "--seed", "6"]

# sha256 of `schurkit spectrum --preset <name> --seed 0 --sizes 4,3,2` stdout
SPECTRUM_SEED0 = {
    "P1": "fb5fbae6f6af95c6fbfa5cef3800e3799cf667cfb3589e84c5e9dfd53313c4e9",
    "P2": "4089a0c429432ab71c01d0e0f498a202ab48c9825b99bbe7de072001076b4d48",
    "P3": "7e2cb598923be4cf14d0e0024509429b8e1bb288ba380852fe138b1c66d29b3c",
    "P4": "dd1a9a159389b80760a5310e7019a9e985bab675d18095f475c645af46ac8a78",
    "PD1": "e831b0d029e845e763deca2f8bfb25428499df433dca8ded5de57ad59bf1a532",
    "PD2": "d1b3490da7a484bde3240a01d24170785cbc86c8a73766153752b75614a60246",
    "PD3": "45b2730025377babf8696a1fa305551b7bb4acfe062eeaa4acea4038b16dcb17",
    "PD4": "e04f8dd6f13f768758731d8b578a78a33dad541f87fb790f8457ebdecc02ed35",
    "Pn": "e8d5701c236a2b1a5fcb19eebdc87365e6e1a3ee7d8bbf30df08ebf742d00eee",
    "Dn": "c05a36cec72cea3265adf9b10a4b004883ca8c7d92aed5b0888ffca3099d77d8",
    "Mn": "0f68190aa2cdd0198a6d0b51d878b055d19bf69b0a43ca2700070fcb8ec2199e",
    "Q1": "3ecaf0fafb726e9356c1b17576b3f75526d19365eb0bfe8816ab3e5b7833ccdd",
    "Q2": "98e2484a5557a13a60ae4d8095fdfbe8ca58b110b2ffabef0240c26413d016f0",
    "QD1": "c9e8b7b301eb82c13b2648a51785121c0c032b345ff72138f12bb900da8ebaf0",
    "QD2": "8d409fac5ef90bd8505454aa6e683b60eeea3acbd0ce68270478818331135634",
}


def run(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:   # argparse errors surface as SystemExit
        return exc.code


def run_child(python_args, **env):
    """stdout of ``python <python_args>`` in a child process that finds the
    package; ``env`` adds to the child's environment only."""
    src = str(Path(schurkit.__file__).resolve().parent.parent)
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable] + python_args, env=env,
                          capture_output=True, check=True).stdout


def out_under(tmp_path, argv):
    """argv with each --out value moved under tmp_path."""
    return [str(tmp_path / a) if prev == "--out" else a
            for prev, a in zip([None] + argv, argv)]


class TestVerifyCommand:
    def test_default_suite_passes(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run(["verify", "--seed", "7", "--sizes", "4,3,2",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("kind,name,seed")
        presets = [ln for ln in lines if ln.startswith("preset,")]
        assert len(presets) == 14
        assert all(",pass," in ln for ln in presets)

    def test_unknown_preset_is_usage_error(self):
        assert run(["verify", "--preset", "BOGUS"]) == 2

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_n_below_two_is_usage_error(self, n):
        assert run(["verify", "--n", n]) == 2

    def test_n_sweep_adds_family_rows(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run(["verify", "--seed", "1", "--n", "8", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        for n in range(2, 9):
            assert f"Pn(n={n})" in text
            assert f"Dn(n={n})" in text
            assert f"Mn(n={n})" in text

    def test_n_block_rows_have_len_sizes_blocks(self, capsys):
        # without --n an n-block row has one block per size, as in verify_preset
        assert run(["verify", "--preset", "Pn,Dn", "--sizes", "6,2"]) == 0
        rows = [cli.verify.verify_preset(p, 0, (6, 2)) for p in ("Pn", "Dn")]
        assert [r.name for r in rows] == ["Pn(n=2)", "Dn(n=2)"]
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:3] == cli.verify.report_csv_rows(rows)[1:]

    def test_suite_rows_read_the_block_count(self):
        assert next(cli.verify.suite_rows(0, (6, 2), ("Pn",)))[:2] == ("Pn", 2)

    def test_size_guard_before_generation(self, capsys):
        # Pn cycles 300,300 over n blocks: n=7 is the first over the limit
        assert run(["verify", "--preset", "Pn", "--n", "8",
                    "--sizes", "300,300"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "size guard: Pn has 2100 > 2000 unknowns\n"
        assert captured.out == ""

    def test_size_guard_stops_at_first_oversized_row(self, monkeypatch, capsys):
        # the guard reads rows lazily: the N=2000 sweep has about 6,000 rows
        # and the first over the limit is Pn near n=290
        calls = []
        real = cli.verify.hypothesis_options

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli.verify, "hypothesis_options", counting)
        assert run(["verify", "--n", "2000", "--sizes", "9,7,5"]) == 3
        assert len(calls) < 1000
        assert capsys.readouterr().err == "size guard: Pn has 2004 > 2000 unknowns\n"

    def test_size_guard_covers_ldu_rows(self, capsys):
        # every preset row has 900 unknowns; the LDU row at n=7 has 2100
        assert run(["verify", "--sizes", "300,300,300"]) == 3
        assert capsys.readouterr().err == (
            "size guard: ldu n=7 has 2100 > 2000 unknowns\n")

    def test_explicit_mn_sweep(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run(["verify", "--preset", "Mn", "--n", "4", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "Mn(n=2)" in text and "Mn(n=4)" in text

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["verify", "--seed", "3", "--out", str(a)]) == 0
        assert run(["verify", "--seed", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed6_sweep_passes(self, tmp_path):
        out = tmp_path / "report.csv"
        assert run(SEED6_SWEEP + ["--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 52
        assert all(",pass," in ln for ln in rows)

    def test_seed0_sweep_stdout_pinned(self, capsys):
        # the whole report: any changed digit of a residual, real part or
        # membership distance, or any changed verdict, changes the hash
        assert run(["verify", "--n", "8", "--sizes", "9,7,5", "--seed", "0"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == (
            "d777d0c504bf5a9468a8c60ae556d8e41026b177c31006fd230995330ef1535a")

    def test_seed16_sweep_stdout_pinned(self, capsys):
        # the seed-0 pin at a second seed, over the same row kinds: the
        # nested, Q and n-block presets, LDU and Routh
        assert run(["verify", "--n", "8", "--sizes", "9,7,5", "--seed", "16"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == (
            "2b76914883612d9d93ef6fafabdb36a3e132b957b7e7787af25877e5b3b0844b")

    def test_numeric_fields_parse_as_floats(self, capsys):
        assert run(["verify", "--n", "8", "--sizes", "9,7,5", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split(",")[2:6] == [
            "seed", "residual", "min_real_part", "max_membership_distance"]
        assert len(lines) == 53
        for line in lines[1:]:
            fields = line.split(",")
            for text in fields[2:6]:
                if text:   # LDU and Routh rows leave min_real_part empty
                    float(text)

    def test_byte_identical_across_blas_threads(self):
        outputs = [run_child(["-m", "schurkit"] + SEED6_SWEEP,
                             OPENBLAS_NUM_THREADS=threads)
                   for threads in ("1", "2")]
        assert outputs[0] == outputs[1]


class TestSpectrumCommand:
    def test_zero_tail_diagonal_clusters(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = run(["spectrum", "--preset", "PD1", "--seed", "2",
                    "--sizes", "5,4,3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "preset,re,im,root_re,root_im,distance"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 12  # one row per eigenvalue
        printed = [-1.2470, -0.6180, 0.4450, 1.0, 1.6180, 1.8019]
        for row in rows:
            z = complex(float(row[1]), float(row[2]))
            assert min(abs(z - w) for w in printed) < 1e-3
        assert all(float(r[5]) < 1e-7 for r in rows)

    def test_unit_spectrum_for_triangular_preset(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--preset", "P1", "--seed", "2",
                    "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        for row in rows:
            assert abs(complex(float(row[1]), float(row[2])) - 1.0) < 1e-5

    def test_empty_preset_list_usage_error(self):
        assert run(["spectrum", "--preset", ""]) == 2

    def test_size_guard(self):
        assert run(["spectrum", "--preset", "P1",
                    "--sizes", "1200,600,400"]) == 3
        # Dn at n=62 generates blocks 63, 62, ..., 2: 2015 unknowns
        assert run(["spectrum", "--preset", "Dn", "--sizes", "2,2",
                    "--n", "62"]) == 3

    @pytest.mark.parametrize("argv", [
        ["--preset", "Pn", "--n", "1"],
        ["--preset", "Dn", "--n", "0"],
    ])
    def test_n_below_two_is_usage_error(self, argv):
        assert run(["spectrum"] + argv) == 2

    def test_size_guard_ignores_n_for_three_block_presets(self, tmp_path):
        # P1 always has three blocks: 90 unknowns whatever --n says
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--preset", "P1", "--sizes", "30,30,30",
                    "--n", "70", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 90

    @pytest.mark.parametrize("preset", sorted(SPECTRUM_SEED0))
    def test_seed0_stdout_pinned(self, preset, capsys):
        # every eigenvalue, predicted root and distance digit of the preset
        assert run(["spectrum", "--preset", preset, "--seed", "0",
                    "--sizes", "4,3,2"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == SPECTRUM_SEED0[preset]

    def test_draws_each_system_once(self, monkeypatch, capsys):
        # 15 presets read 4 systems: the plain (9, 7, 5) one (P1-P4, Pn, Q1,
        # Q2), the zero-tail ones of PD1-PD4 and of Dn/Mn, and QD's zero middle
        draws = []
        real = cli.verify.random_system
        monkeypatch.setattr(cli.verify, "random_system",
                            lambda opts: draws.append(opts) or real(opts))
        assert run(["spectrum", "--preset", ",".join(SPECTRUM_SEED0), "--seed", "0",
                    "--sizes", "9,7,5", "--n", "3"]) == 0
        distinct = {cli.verify.hypothesis_options(p, 0, (9, 7, 5), n=3)
                    for p in SPECTRUM_SEED0}
        assert len(distinct) == 4
        assert sorted(draws, key=repr) == sorted(distinct, key=repr)

    def test_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["spectrum", "--preset", "PD3,QD1", "--seed", "5", "--out", str(a)])
        run(["spectrum", "--preset", "PD3,QD1", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestTwoSizes:
    """Two --sizes suit only the n-block presets; any other is a usage error."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--sizes", "4,3"],
        ["verify", "--sizes", "4,3", "--n", "4"],
        ["verify", "--sizes", "4,3", "--preset", "Pn,P1"],
        ["spectrum", "--preset", "QD1", "--sizes", "4,3"],
        ["spectrum", "--preset", "Pn,PD2", "--sizes", "4,3", "--n", "4"],
    ])
    def test_three_block_preset_is_usage_error(self, argv):
        assert run(argv) == 2

    def test_n_block_presets_accept_two_sizes(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--preset", "Pn", "--sizes", "4,3", "--n", "4",
                    "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 14
        assert run(["verify", "--preset", "Pn,Dn,Mn", "--sizes", "4,3",
                    "--out", str(tmp_path / "report.csv")]) == 0


class TestBiotCommand:
    def test_single_row_markdown(self, capsys):
        code = run(["biot", "--N", "8", "--tau", "1e-2", "--tol", "1e-6",
                    "--maxit", "500"])
        assert code == 0
        outp = capsys.readouterr().out
        lines = [ln for ln in outp.splitlines() if ln.startswith("|")]
        assert lines[0].split("|")[2].strip() == "PD1"
        assert len(lines) == 3  # header, rule, one row
        assert lines[-1].startswith("| 8x8")

    def test_cartesian_sweep_csv_files(self, tmp_path):
        prefix = tmp_path / "bench"
        code = run(["biot", "--N", "4,8", "--tau", "1e-2,1e-3",
                    "--tol", "1e-6", "--maxit", "500", "--format", "csv",
                    "--out", str(prefix)])
        assert code == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["bench_tau0.0001.csv", "bench_tau0.001.csv"] or \
            files == ["bench_tau0.001.csv", "bench_tau0.01.csv"]
        for p in tmp_path.iterdir():
            rows = [ln for ln in p.read_text().splitlines()
                    if not ln.startswith("#")]
            assert rows[0] == "system,PD1,PD2,PD3,PD4,P1,P2,P3,P4"
            assert len(rows) == 3

    def test_csv_counts_pinned(self, capsys):
        assert run(["biot", "--N", "8,16", "--tau", "1e-3",
                    "--format", "csv"]) == 0
        assert capsys.readouterr().out == (
            "# tol=4e-06 maxit=1500\n"
            "# ic drop tolerance tau=0.001\n"
            "# rhs: body force (1,1), source 1, one implicit step from rest\n"
            "# dirichlet walls: x=0 and x=1 for displacement and fluid pressure\n"
            "system,PD1,PD2,PD3,PD4,P1,P2,P3,P4\n"
            "8x8,28,28,25,36,13,23,23,19\n"
            "16x16,41,42,37,61,19,38,38,33\n")

    def test_missing_out_directory_fails_before_the_sweep(self, tmp_path,
                                                          monkeypatch, capsys):
        def sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(schurkit.biot, "benchmark", sweep)
        assert run(["biot", "--N", "4", "--out", str(tmp_path / "missing" / "b")]) == 4
        assert capsys.readouterr().err.startswith("IO error: [Errno 2]")
        assert list(tmp_path.iterdir()) == []

    def test_runs_under_cprofile(self, tmp_path):
        # a profile hook holds references that ndarray.resize's refcheck sees
        argv = ["-m", "schurkit", "biot", "--N", "4", "--format", "csv"]
        stats = tmp_path / "biot.prof"
        profiled = run_child(["-m", "cProfile", "-o", str(stats)] + argv)
        assert profiled == run_child(argv)
        assert stats.stat().st_size > 0

    def test_check_ordering_small(self, capsys):
        code = run(["biot", "--N", "16", "--tau", "1e-3", "--check-ordering"])
        assert code == 0

    def test_bad_mesh_size(self):
        assert run(["biot", "--N", "0"]) == 2

    # a repeated --N or --tau value would solve and report its cells twice
    @pytest.mark.parametrize("argv", [
        ["--tol", "0"], ["--tol=-1e-6"], ["--maxit", "0"],
        ["--N", "4,4", "--check-ordering"], ["--N", "4,6,4"],
        ["--tau", "1e-3,1e-3"], ["--tau", "1e-3,0.001", "--format", "csv"],
        ["--tau", "nan"], ["--tau", "1e-3,nan"]])
    def test_bad_solver_setting_is_usage_error(self, argv):
        assert run(["biot", "--N", "4"] + argv) == 2


class TestExportCommand:
    def test_random_system_round_trip(self, tmp_path, capsys):
        out = tmp_path / "sys"
        code = run(["export", "--sizes", "3,2,4", "--seed", "5",
                    "--out", str(out)])
        assert code == 0
        from schurkit import blocks
        manifest = capsys.readouterr().out.strip()
        loaded = blocks.load_system(manifest)
        original = blocks.random_system(
            blocks.SystemOptions(seed=5, sizes=(3, 2, 4)))
        assert np.array_equal(blocks.assemble(loaded),
                              blocks.assemble(original))

    def test_default_seed_is_zero(self, tmp_path, capsys):
        assert run(["export", "--sizes", "3,2", "--out", str(tmp_path / "sys")]) == 0
        from schurkit import blocks
        loaded = blocks.load_system(capsys.readouterr().out.strip())
        original = blocks.random_system(blocks.SystemOptions(seed=0, sizes=(3, 2)))
        assert np.array_equal(blocks.assemble(loaded), blocks.assemble(original))

    def test_biot_export_file_count(self, tmp_path):
        out = tmp_path / "biot4"
        code = run(["export", "--biot-N", "4", "--out", str(out)])
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert len(files) == 10   # 7 system blocks, 2 mass matrices
        assert "manifest.txt" in files

    def test_unwritable_target_is_io_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("occupied")
        code = run(["export", "--sizes", "2,2", "--out",
                    str(blocker / "sub")])
        assert code == 4

    def test_requires_a_source(self, tmp_path):
        assert run(["export", "--out", str(tmp_path / "x")]) == 2

    def test_zero_tail_with_increasing_sizes_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sys"
        assert run(["export", "--sizes", "2,3", "--zero-tail",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: schurkit export ")
        assert "zero_tail requires nonincreasing block sizes" in err
        assert not out.exists()


class TestExitCodes:
    def test_no_command_usage(self):
        assert run([]) == 2

    def test_unknown_command_usage(self):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "1"],
        ["verify", "--sizes", "4,3"],
        ["spectrum", "--preset", "P1", "--n", "1"],
        ["biot", "--N", "0"],
        ["export", "--biot-N", "0", "--out", "unused"],
        ["verify", "--seed", "-1", "--preset", "P1"],
        ["spectrum", "--preset", "P1", "--seed", "-1"],
        ["export", "--sizes", "4,3,2", "--seed", "-1", "--out", "d"],
        ["export", "--biot-N", "2", "--seed", "5", "--out", "d"],
        ["export", "--biot-N", "2", "--seed", "0", "--out", "d"],
        ["export", "--biot-N", "2", "--zero-tail", "--out", "d"],
        ["export", "--biot-N", "2", "--spd", "--out", "d"],
        ["export", "--biot-N", "2", "--zero-tail", "--spd", "--seed", "5", "--out", "d"],
        # both taus print as 0.001, so their tables would share a file
        ["biot", "--N", "4", "--tau", "1.0000001e-3,1e-3", "--format", "csv",
         "--out", "b"],
    ])
    def test_usage_error_prints_subcommand_usage(self, argv, tmp_path, capsys):
        assert run(out_under(tmp_path, argv)) == 2
        assert capsys.readouterr().err.startswith(f"usage: schurkit {argv[0]} ")

    @pytest.mark.parametrize("argv,message", [
        (["biot", "--N", "4,x"], "bad integer list '4,x'"),
        (["biot", "--tau", "1e-3,x"], "bad float list '1e-3,x'"),
        (["verify", "--sizes", "4,x"], "bad size list '4,x'"),
        (["verify", "--sizes", "4"], "need at least two positive sizes"),
        (["export", "--sizes", "2,2", "--seed", "1.5", "--out", "unused"],
         "seed must be a nonnegative integer, got '1.5'"),
        (["verify", "--sizes", "4,3"], "needs three sizes"),
        (["verify", "--preset", "BOGUS"], "choose from P1"),
        (["verify", "--preset", "P1,,P2"], "unknown preset ''"),
    ])
    def test_bad_value_is_named(self, argv, message, tmp_path, capsys):
        assert run(out_under(tmp_path, argv)) == 2
        assert message in capsys.readouterr().err
