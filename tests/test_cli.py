import contextlib
import errno
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import kalpha.paths
from kalpha.cli import (EXIT_INTERNAL, EXIT_IO, EXIT_OK, EXIT_USAGE,
                        _build_parser, main, parse_envelope, validate_document)
from kalpha.measure import EnvelopeSpec, KAlphaParams
from kalpha.paths import (BLOCK, SIDECAR_SUFFIX, EventPath, load_event_file,
                          simulate_large_jumps, write_event_path)
from kalpha.spaces import Bump, ExpPoly, Gaussian, parse_test_function


def run(args):
    return main(list(args))


def strip_timestamps(text: str) -> str:
    doc = json.loads(text)

    def scrub(node):
        if isinstance(node, dict):
            node.pop("timestamp", None)
            for v in node.values():
                scrub(v)

    scrub(doc)
    return json.dumps(doc, sort_keys=True)


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class TestSimulate:
    def test_writes_manifest_and_events(self, tmp_path):
        out = tmp_path / "p.jsonl"
        assert run(["simulate", "--alpha", "1.5", "--horizon", "100",
                    "--seed", "42", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["alpha"] == 1.5
        assert meta["horizon"] == 100.0
        assert meta["seed"] == 42
        assert meta["component"] == "large"
        assert meta["rng_name"] == "philox4x64"
        assert meta["manifest"]["tool_version"]
        for line in lines[1:]:
            rec = json.loads(line)
            assert set(rec) == {"t", "sign", "log1p_mag"}

    def test_rerun_byte_identical_events(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["simulate", "--alpha", "1.5", "--horizon", "100",
                "--seed", "42"]
        assert run(args + ["--out", str(a)]) == EXIT_OK
        assert run(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_text().splitlines()[1:] == b.read_text().splitlines()[1:]

    def test_alpha_domain_exit_2(self, tmp_path, capsys):
        rc = run(["simulate", "--alpha", "2.5", "--horizon", "10",
                  "--seed", "1", "--out", str(tmp_path / "x.jsonl")])
        assert rc == EXIT_USAGE
        assert "(0, 2)" in capsys.readouterr().err

    @staticmethod
    def files(directory):
        # split at line breaks, so a mismatch names its first line
        return {f.name: f.read_bytes().splitlines(keepends=True)
                for f in directory.iterdir()}

    def test_failed_write_changes_no_target(self, tmp_path, monkeypatch,
                                            capsys):
        base = ["simulate", "--alpha", "1.5", "--horizon", "20", "--paths",
                "3", "--out", str(tmp_path / "p.jsonl")]
        assert run(base + ["--seed", "1"]) == EXIT_OK
        before = self.files(tmp_path)
        write = kalpha.paths.write_event_path
        written = []

        def disk_full_on_second_file(path, fp, *args, **kwargs):
            written.append(path)
            if len(written) == 2:
                fp.write(b'{"format_version": ')
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            write(path, fp, *args, **kwargs)

        monkeypatch.setattr(kalpha.paths, "write_event_path",
                            disk_full_on_second_file)
        capsys.readouterr()
        assert run(base + ["--seed", "2"]) == EXIT_IO
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("i/o error: [Errno 28]")
        assert len(written) == 2
        # byte-identical targets and sidecars, and no temporary file
        assert self.files(tmp_path) == before

    @pytest.mark.parametrize("fails_at", [1, 2, 8])
    def test_failed_draw_changes_no_target(self, fails_at, tmp_path,
                                           monkeypatch, capsys):
        # the paths are drawn as the files are written, each once the
        # last one's JSONL and sidecar are complete: a draw that fails
        # after earlier files are written, up to the last path's, leaves
        # every target as it was
        base = ["simulate", "--alpha", "1.5", "--horizon", "20", "--paths",
                "9", "--out", str(tmp_path / "p.jsonl")]
        assert run(base + ["--seed", "1"]) == EXIT_OK
        before = self.files(tmp_path)
        draw = kalpha.cli.simulate_large_jumps
        temporaries = []

        def fails_on_one_path(params, horizon, seed, spawn_key):
            temporaries.append(len(list(tmp_path.glob("*.tmp"))))
            if spawn_key == (fails_at,):
                raise ValueError("a sampled log magnitude exceeds the float range")
            return draw(params, horizon, seed, spawn_key)

        monkeypatch.setattr(kalpha.cli, "simulate_large_jumps",
                            fails_on_one_path)
        capsys.readouterr()
        assert run(base + ["--seed", "2"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: a sampled log magnitude")
        assert temporaries == list(range(0, 2 * fails_at + 1, 2))
        assert self.files(tmp_path) == before

    def test_directory_target_exit_3_before_writing(self, tmp_path, capsys):
        (tmp_path / "p-p001.jsonl").mkdir()
        assert run(["simulate", "--alpha", "1.5", "--horizon", "20",
                    "--paths", "2", "--seed", "1",
                    "--out", str(tmp_path / "p.jsonl")]) == EXIT_IO
        assert "Is a directory" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["p-p001.jsonl"]

    def test_runs_off_the_main_thread(self, tmp_path):
        # where no SIGTERM handler can be set, simulate writes as before
        out = tmp_path / "p.jsonl"
        codes = []
        worker = threading.Thread(target=lambda: codes.append(run(
            ["simulate", "--alpha", "1.5", "--horizon", "20", "--seed", "1",
             "--out", str(out)])))
        worker.start()
        worker.join(timeout=60)
        assert codes == [EXIT_OK]
        assert load_event_file(out).n_events > 0

    @pytest.mark.parametrize("to, returncode, err", [
        ("parent", -signal.SIGTERM, b""),
        ("group", -signal.SIGTERM, b""),
    ])
    def test_sigterm_leaves_no_process_or_temporary(self, to, returncode,
                                                    err, tmp_path):
        # SIGTERM while the event lines are being written, to the
        # simulate process alone or to its whole group
        src = Path(kalpha.paths.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "kalpha.cli", "simulate", "--alpha", "1.5",
             "--horizon", "3e5", "--seed", "1", "--out", str(tmp_path / "p.jsonl")],
            env=env, start_new_session=True, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE)
        pgid = proc.pid
        try:
            deadline = time.monotonic() + 60
            while not any(f.stat().st_size > 2 * 10 ** 5
                          for f in tmp_path.iterdir()):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            if to == "group":
                os.killpg(pgid, signal.SIGTERM)
            else:
                os.kill(proc.pid, signal.SIGTERM)
            deadline = time.monotonic() + 5
            assert proc.wait(timeout=5) == returncode
            while True:
                try:
                    os.killpg(pgid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "processes still alive"
                time.sleep(0.01)
            assert proc.stderr.read().startswith(err)
            assert list(tmp_path.iterdir()) == []
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pgid, signal.SIGKILL)
            proc.wait(timeout=5)
            proc.stderr.close()

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        out1 = tmp_path / "e.jsonl"
        out2 = tmp_path / "f.jsonl"
        monkeypatch.setenv("KALPHA_SEED", "42")
        assert run(["simulate", "--alpha", "1.5", "--horizon", "50",
                    "--out", str(out1)]) == EXIT_OK
        monkeypatch.delenv("KALPHA_SEED")
        assert run(["simulate", "--alpha", "1.5", "--horizon", "50",
                    "--seed", "42", "--out", str(out2)]) == EXIT_OK
        assert out1.read_text().splitlines()[1:] == \
               out2.read_text().splitlines()[1:]

    def test_prints_only_jsonl_names(self, tmp_path, capsys):
        assert run(["simulate", "--alpha", "1.5", "--horizon", "20",
                    "--seed", "3", "--paths", "3",
                    "--out", str(tmp_path / "s.jsonl")]) == EXIT_OK
        names = [str(tmp_path / f"s-p{i:03d}.jsonl") for i in range(3)]
        assert capsys.readouterr().out.split() == names
        assert sorted(map(str, tmp_path.iterdir())) == \
               sorted(names + [n + SIDECAR_SUFFIX for n in names])

    def test_no_seed_anywhere_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.delenv("KALPHA_SEED", raising=False)
        assert run(["simulate", "--alpha", "1.0", "--horizon", "1",
                    "--out", str(tmp_path / "x.jsonl")]) == EXIT_USAGE

    def test_seed_env_not_an_integer_exit_2(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setenv("KALPHA_SEED", "abc")
        assert run(["simulate", "--alpha", "1.0", "--horizon", "1",
                    "--out", str(tmp_path / "x.jsonl")]) == EXIT_USAGE
        assert capsys.readouterr().err == \
               "error: KALPHA_SEED must be an integer, got 'abc'\n"
        assert not any(tmp_path.iterdir())


@pytest.fixture()
def sample_path_file(tmp_path):
    out = tmp_path / "p.jsonl"
    assert run(["simulate", "--alpha", "1.5", "--horizon", "100",
                "--seed", "42", "--out", str(out)]) == EXIT_OK
    return out


class TestDiagnose:
    def test_envelope_report_schema(self, sample_path_file, tmp_path):
        rpt = tmp_path / "r.json"
        rc = run(["diagnose", "--in", str(sample_path_file),
                  "--envelope", "exp:c=1.0", "--json", str(rpt)])
        assert rc == EXIT_OK
        doc = json.loads(rpt.read_text())
        validate_document(doc)
        assert 0.0 <= doc["aggregate"]["exceedance_fraction"] <= 1.0
        assert doc["burn_in"] == 10.0
        assert doc["per_path"][0]["intervals"]

    def test_envelope_bad_descriptor_exit_2(self, sample_path_file):
        assert run(["diagnose", "--in", str(sample_path_file),
                    "--envelope", "pow:beta=0.5"]) == EXIT_USAGE
        assert run(["diagnose", "--in", str(sample_path_file),
                    "--envelope", "spiral:k=2"]) == EXIT_USAGE

    @pytest.mark.parametrize("modes, message", [
        ([], "one of the arguments --envelope --moment-scan --pruitt "
             "--growth is required"),
        (["--envelope", "exp:c=1", "--growth", "eta=0.5"],
         "argument --growth: not allowed with argument --envelope"),
        # an empty descriptor still names its mode
        (["--envelope", "", "--growth", "eta=0.5"],
         "argument --growth: not allowed with argument --envelope"),
    ], ids=["none", "two", "empty-and-one"])
    def test_exactly_one_mode(self, modes, message, sample_path_file,
                              tmp_path, capsys):
        rpt = tmp_path / "r.json"
        assert run(["diagnose", "--in", str(sample_path_file), *modes,
                    "--json", str(rpt)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not rpt.exists()

    def test_mixed_horizons_exit_2_without_report(self, tmp_path, capsys):
        # files are read one at a time, so the horizon mismatch of the
        # second file is reported before the malformed third one is read
        files = []
        for horizon in ("20", "30"):
            out = tmp_path / f"h{horizon}.jsonl"
            assert run(["simulate", "--alpha", "1.5", "--horizon", horizon,
                        "--seed", "1", "--out", str(out)]) == EXIT_OK
            files.append(str(out))
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        rpt = tmp_path / "r.json"
        capsys.readouterr()
        for infiles in (files, files[::-1], files + [str(bad)]):
            assert run(["diagnose", "--envelope", "exp:c=1", "--json",
                        str(rpt), "--in", *infiles]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err == "error: paths in a report must share the horizon\n"
            assert not rpt.exists()
        assert run(["diagnose", "--envelope", "exp:c=1", "--json", str(rpt),
                    "--in", str(bad), *files]) == EXIT_USAGE
        assert "invalid JSON" in capsys.readouterr().err
        assert not rpt.exists()

    def test_missing_input_exit_3(self, tmp_path):
        assert run(["diagnose", "--in", str(tmp_path / "nope.jsonl"),
                    "--envelope", "exp:c=1.0"]) == EXIT_IO

    def test_pruitt_table(self, tmp_path):
        rpt = tmp_path / "pruitt.json"
        rc = run(["diagnose", "--alpha", "1.0",
                  "--pruitt", "etas=0.5,rs=10,100,1000",
                  "--json", str(rpt)])
        assert rc == EXIT_OK
        doc = json.loads(rpt.read_text())
        validate_document(doc)
        vals = doc["rows"][0]["values"]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert doc["tail_increasing"]["0.5"] is True

    def test_moment_scan_table(self, tmp_path):
        rpt = tmp_path / "scan.json"
        rc = run(["diagnose", "--alpha", "1.5",
                  "--moment-scan", "eta=0.25,caps=10,100,1000,10000",
                  "--json", str(rpt)])
        assert rc == EXIT_OK
        doc = json.loads(rpt.read_text())
        validate_document(doc)
        assert doc["divergence_flagged"] is True
        assert doc["status"] == "divergent"

    def test_growth_scan_zero_rows_are_null(self, tmp_path, capsys):
        # no event before t = 2, so the statistic at t = 1 is zero
        path = EventPath(params=KAlphaParams(1.5), horizon=4.0, seed=0,
                         times=np.array([2.0]), signs=np.array([1]),
                         log1p_mags=np.array([3.0]))
        infile = tmp_path / "late.jsonl"
        with open(infile, "wb") as fp:
            write_event_path(path, fp)
        assert run(["diagnose", "--in", str(infile),
                    "--growth", "eta=0.5"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out,
                         parse_constant=reject_constant)
        assert [(r["t"], r["sign"]) for r in doc["rows"]] == \
               [(1.0, 0), (2.0, 1), (4.0, 1)]
        assert doc["rows"][0]["log_stat"] is None

    def test_growth_scan_with_plot_data(self, sample_path_file, tmp_path):
        rpt = tmp_path / "g.json"
        csv_out = tmp_path / "g.csv"
        rc = run(["diagnose", "--in", str(sample_path_file),
                  "--growth", "eta=0.5", "--json", str(rpt),
                  "--plot-data", str(csv_out)])
        assert rc == EXIT_OK
        doc = json.loads(rpt.read_text())
        validate_document(doc)
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "t,sign,log_stat"
        assert len(lines) == len(doc["rows"]) + 1

    def test_mode_exclusivity(self, sample_path_file):
        assert run(["diagnose", "--in", str(sample_path_file)]) == EXIT_USAGE
        assert run(["diagnose", "--alpha", "1.0",
                    "--pruitt", "etas=0.5,rs=10,100",
                    "--moment-scan", "eta=0.2,caps=10,100"]) == EXIT_USAGE

    def test_bad_keyed_list_exit_2(self):
        assert run(["diagnose", "--alpha", "1.0",
                    "--pruitt", "etas=0.5"]) == EXIT_USAGE
        assert run(["diagnose", "--alpha", "1.0",
                    "--pruitt", "bogus=1,rs=10,100"]) == EXIT_USAGE


class TestClassify:
    def test_exponential_regime_fields(self, capsys):
        assert run(["classify", "--alpha", "1.5", "--betas", "2"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        validate_document(doc)
        assert doc["in_S_prime"] is False
        assert doc["in_K_prime"] is True
        assert doc["in_K_beta"] == {"2": True}

    def test_below_threshold(self, capsys):
        assert run(["classify", "--alpha", "0.4", "--betas", "2"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["in_K_beta"] == {"2": False}

    @pytest.mark.parametrize("betas", ["2,2.000003", "1.0000001,1.0000002"])
    def test_betas_sharing_a_report_key_exit_2(self, betas, tmp_path, capsys):
        # the report keys each beta by f"{beta:g}", so one verdict would
        # silently replace the other (beta 2 diverges at alpha 0.5,
        # 2.000003 converges)
        rpt = tmp_path / "r.json"
        assert run(["classify", "--alpha", "0.5", "--betas", betas,
                    "--json", str(rpt)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and not rpt.exists()
        assert err.startswith("error: betas ")
        assert "share the report key" in err

    def test_betas_distinct_at_six_digits_kept(self, capsys):
        assert run(["classify", "--alpha", "0.5",
                    "--betas", "2,2.00001"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["in_K_beta"] == {"2": False, "2.00001": True}

    def test_beta_domain_exit_2(self):
        assert run(["classify", "--alpha", "1.0", "--betas", "0.5"]) == EXIT_USAGE

    def test_internal_inconsistency_exit_4(self, monkeypatch):
        import kalpha.cli as cli_mod
        from kalpha.measure import ConsistencyError

        def boom(*a, **k):
            raise ConsistencyError("forced disagreement")

        monkeypatch.setattr(cli_mod, "classify_support", boom)
        assert run(["classify", "--alpha", "1.5", "--betas", "2"]) == EXIT_INTERNAL

    @pytest.mark.parametrize("alpha, beta", [
        ("0.5", "2.000001"), ("0.5", "2.0000015"), ("1.000001", "3")])
    def test_boundary_exits_4_without_report(self, alpha, beta, tmp_path, capsys):
        # for 0 < alpha*p - 1 <= -log2(1 - 1e-6) ~ 1.4427e-6 (p = 1 for
        # exp(t), beta for exp(t^beta)) the block ratio 2^(1 - alpha*p)
        # reads as "no decay" to the quadrature tail verdict; a documented
        # limit, reported as exit 4 and no report
        rpt = tmp_path / "r.json"
        assert run(["classify", "--alpha", alpha, "--betas", beta,
                    "--json", str(rpt)]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith("internal consistency error: ")
        # alpha in full: at 1.000001, alpha=1 would name the divergent side
        assert f"at alpha={float(alpha)!r}: " in err
        assert not rpt.exists()

    @pytest.mark.parametrize("alpha, in_k_beta_1e307", [
        ("1.2e-308", False), ("1e-307", False), ("1e-306", True)],
        ids=["1.2e-308", "1e-307", "1e-306"])
    def test_tiny_alpha_gives_closed_form_verdicts(self, alpha,
                                                   in_k_beta_1e307,
                                                   tmp_path, capsys):
        # just above the rate's float floor the tail's factor 1/alpha is
        # near the float limit; the integrands leave it out, so no panel
        # sum overflows, and the verdicts are the closed form's: in
        # K'_beta exactly when alpha * beta > 1 (0.12, 1 - 1.1e-16 and 10)
        rpt = tmp_path / "r.json"
        assert run(["classify", "--alpha", alpha, "--betas", "2,1e307",
                    "--json", str(rpt)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        report = json.loads(rpt.read_text())
        assert (report["in_S_prime"], report["in_K_prime"]) == (False, False)
        assert report["in_K_beta"] == {"2": False, "1e+307": in_k_beta_1e307}

    @pytest.mark.parametrize("alpha", ["1.5", "1e-300"])
    def test_beta_near_float_max_is_quiet(self, alpha, tmp_path, capsys):
        # beta ln x and alpha ln ln(1 + f) overflow to inf at beta = 1e308:
        # the tail there is below every float, 0, and no warning is raised
        rpt = tmp_path / "r.json"
        assert run(["classify", "--alpha", alpha, "--betas", "1e308",
                    "--json", str(rpt)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert json.loads(rpt.read_text())["in_K_beta"]["1e+308"] is True

    @pytest.mark.parametrize("alpha, beta", [
        ("0.5", "2.0001"), ("0.5", "2.001"), ("1.0001", "3"),
        ("0.5", "2.00001"), ("0.5", "2.000003")])
    def test_near_boundary_settles(self, alpha, beta, tmp_path):
        # alpha * p - 1 down to 1.5e-6, just above the band of exit 4: the
        # blocks decay and their geometric remainder is summed
        rpt = tmp_path / "r.json"
        assert run(["classify", "--alpha", alpha, "--betas", beta,
                    "--json", str(rpt)]) == EXIT_OK
        report = json.loads(rpt.read_text())
        assert report["in_K_beta"] == {f"{float(beta):g}": True}
        assert report["in_K_prime"] == (float(alpha) > 1.0)


class TestPair:
    def test_pairing_report(self, sample_path_file, tmp_path):
        rpt = tmp_path / "pair.json"
        rc = run(["pair", "--in", str(sample_path_file),
                  "--phi", "bump:center=5,width=2", "--json", str(rpt)])
        assert rc == EXIT_OK
        doc = json.loads(rpt.read_text())
        validate_document(doc)
        assert doc["crosscheck_rel_err"] < 1e-9
        assert doc["value_sign"] in (-1, 0, 1)
        assert isinstance(doc["truncation_warning"], bool)

    @pytest.mark.parametrize("order", ["increasing", "decreasing", "tied"])
    def test_monotone_magnitudes_exit_0(self, tmp_path, capsys, order):
        # the max-Cartesian tree of the jump sizes is a single chain as long
        # as the path: every event outgrows all before it (increasing), or
        # none does, so the stack holds every event across all three block
        # edges (decreasing, tied)
        n = 3 * BLOCK + 5
        mags = {"increasing": np.linspace(1.0, 50.0, n),
                "decreasing": np.linspace(50.0, 1.0, n),
                "tied": np.full(n, 7.0)}[order]
        path = EventPath(params=KAlphaParams(1.5), horizon=10.0, seed=0,
                         times=np.linspace(0.0, 10.0, n, endpoint=False),
                         signs=np.ones(n, dtype=np.int64), log1p_mags=mags)
        infile = tmp_path / "monotone.jsonl"
        with open(infile, "wb") as fp:
            write_event_path(path, fp)
        assert run(["pair", "--in", str(infile),
                    "--phi", "bump:center=5,width=4"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["crosscheck_rel_err"] < 1e-9
        assert doc["truncation_warning"] is False

    def test_zero_pairing_is_valid_json(self, tmp_path, capsys):
        # the bump lives on [18, 22], beyond the horizon, so the pairing is 0
        infile = tmp_path / "z.jsonl"
        assert run(["simulate", "--alpha", "1", "--horizon", "10",
                    "--seed", "5", "--out", str(infile)]) == EXIT_OK
        capsys.readouterr()
        assert run(["pair", "--in", str(infile),
                    "--phi", "bump:center=20,width=2"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out,
                         parse_constant=reject_constant)
        validate_document(doc)
        assert (doc["value_sign"], doc["value_logmag"]) == (0, None)

    @pytest.mark.parametrize("phi", ["gaussian:center=5,scale=1e-200",
                                     "gaussian:center=5,scale=1e-320",
                                     "bump:center=5,width=1e-320"])
    def test_tiny_scale_is_quiet(self, tmp_path, capsys, phi):
        # (t - 5) / 1e-200 squared overflows, and (t - 5) / 1e-320 itself;
        # y = +-inf is the right coordinate, where every derivative is 0
        infile = tmp_path / "g.jsonl"
        assert run(["simulate", "--alpha", "1.5", "--horizon", "10",
                    "--seed", "1", "--out", str(infile)]) == EXIT_OK
        capsys.readouterr()
        assert run(["pair", "--in", str(infile), "--phi", phi]) == EXIT_OK
        out, err = capsys.readouterr()
        validate_document(json.loads(out, parse_constant=reject_constant))
        assert err == ""

    @pytest.mark.parametrize("phi", ["bump:center=50,width=40",
                                     "gaussian:center=50,scale=20"])
    def test_log_jumps_beyond_2_to_63(self, tmp_path, capsys, phi):
        # at alpha 0.1 this path's largest log1p magnitude is about
        # 1.6e35, where the pairing's sums keep only their largest terms
        infile = tmp_path / "k.jsonl"
        assert run(["simulate", "--alpha", "0.1", "--horizon", "100",
                    "--seed", "42", "--out", str(infile)]) == EXIT_OK
        assert load_event_file(infile).log1p_mags.max() > 2.0 ** 63
        capsys.readouterr()
        assert run(["pair", "--in", str(infile), "--phi", phi]) == EXIT_OK
        out, err = capsys.readouterr()
        doc = json.loads(out, parse_constant=reject_constant)
        validate_document(doc)
        assert doc["crosscheck_rel_err"] < 1e-9
        assert err == ""

    def test_bad_phi_exit_2(self, sample_path_file):
        assert run(["pair", "--in", str(sample_path_file),
                    "--phi", "wavelet:k=1"]) == EXIT_USAGE


REPORT_COMMANDS = {
    "exceedance_report": ["diagnose", "--in", "{path}", "--envelope", "exp:c=1.0"],
    "moment_scan": ["diagnose", "--alpha", "1.5",
                    "--moment-scan", "eta=0.25,caps=10,100,1000"],
    "pruitt_slope": ["diagnose", "--alpha", "1.0",
                     "--pruitt", "etas=0.5,rs=10,100,1000"],
    "growth_scan": ["diagnose", "--in", "{path}", "--growth", "eta=0.5"],
    "support_verdict": ["classify", "--alpha", "1.5", "--betas", "2"],
    "pairing": ["pair", "--in", "{path}", "--phi", "bump:center=5,width=2"],
}


class TestDeterminism:
    @pytest.mark.parametrize("kind", sorted(REPORT_COMMANDS))
    def test_reports_identical_modulo_timestamp(self, kind, sample_path_file,
                                                tmp_path):
        # the third run reads the path file without its sidecar
        a, b, c = (tmp_path / f"{x}.json" for x in "abc")
        args = [arg.format(path=sample_path_file) for arg in REPORT_COMMANDS[kind]]
        assert run(args + ["--json", str(a)]) == EXIT_OK
        assert run(args + ["--json", str(b)]) == EXIT_OK
        Path(f"{sample_path_file}{SIDECAR_SUFFIX}").unlink()
        assert run(args + ["--json", str(c)]) == EXIT_OK
        assert json.loads(a.read_text())["kind"] == kind
        assert strip_timestamps(a.read_text()) == strip_timestamps(b.read_text())
        assert strip_timestamps(a.read_text()) == strip_timestamps(c.read_text())


class TestBadInput:
    @pytest.mark.parametrize("args", [
        ["diagnose", "--alpha", "1.0", "--pruitt", "etas=nan,0.1,rs=10,100"],
        ["diagnose", "--alpha", "1.0", "--moment-scan", "eta=nan,caps=10,100,1000"],
        ["diagnose", "--in", "{path}", "--growth", "eta=0.5,eta=0.7"],
        ["diagnose", "--in", "{path}", "--envelope", "pow:beta=inf"],
        ["classify", "--alpha", "1.0", "--betas", "inf,2"],
        ["diagnose", "--in", "{path}", "--envelope", "exp:c=1",
         "--plot-data", "{out}/x.csv"],
        ["diagnose", "--alpha", "1.5", "--pruitt", "etas=0.1,rs=1e100,1e200"],
        ["diagnose", "--alpha", "1.5", "--pruitt", "etas=4,rs=1e100,1e120"],
        ["diagnose", "--alpha", "1.5", "--moment-scan", "eta=800,caps=10,100,1000"],
        ["diagnose", "--alpha", "1.5", "--moment-scan", "eta=2,caps=10,1e200"],
        # 1.6 EiB of event times exceeds any 64-bit user address space
        ["simulate", "--alpha", "1.5", "--horizon", "1e17", "--seed", "1",
         "--out", "{out}/p.jsonl"],
        # each envelope kind takes only its own keys
        ["diagnose", "--in", "{path}", "--envelope", "exp:c=1,beta=2"],
        ["diagnose", "--in", "{path}", "--envelope", "pow:beta=2,c=3"],
        ["diagnose", "--in", "{path}", "--envelope", "exponential:c=1,beta=2"],
        ["diagnose", "--in", "{path}", "--envelope", "powexp:c=1"],
        ["diagnose", "--in", "{path}", "--envelope", "expo:c=1"],
        ["classify", "--alpha", "1.0", "--betas", "2,1"],
        # below alpha ~1.11e-308 the rate 2/(alpha ln^alpha 2) overflows
        ["simulate", "--alpha", "1e-310", "--horizon", "10", "--seed", "1",
         "--out", "{out}/p.jsonl"],
        ["diagnose", "--alpha", "1e-310", "--pruitt", "etas=0.1,rs=10,100"],
        ["classify", "--alpha", "1e-310", "--betas", "2"],
        ["diagnose", "--alpha", "1e-307", "--pruitt", "etas=0.5,rs=10,100"],
        ["diagnose", "--in", "{path}", "--growth", "eta=1e-310"],
        # a finite rate, about 1.7e308, beyond any Poisson draw
        ["simulate", "--alpha", "1.2e-308", "--horizon", "1", "--seed", "1",
         "--out", "{out}/p.jsonl"],
        ["simulate", "--alpha", "1.5", "--horizon", "10", "--seed", "1",
         "--paths", "0", "--out", "{out}/p.jsonl"],
        # refused by the first draw, before any file is opened
        ["simulate", "--alpha", "1.5", "--horizon", "-1", "--seed", "1",
         "--out", "{out}/p.jsonl"],
        ["diagnose", "--envelope", "exp:c=1"],
        ["diagnose", "--moment-scan", "eta=0.25,caps=10,100"],
        ["diagnose", "--pruitt", "etas=0.5,rs=10,100"],
        ["pair", "--in", "{path}", "--phi", "gaussian:center=x"],
        ["pair", "--in", "{path}", "--phi", "gaussian:center=1,2"],
        ["diagnose", "--alpha", "1.5", "--pruitt", "etas=0.5,rs=100,10"],
    ], ids=["pruitt-nan", "moment-scan-nan", "growth-repeated-key",
            "envelope-inf", "betas-inf", "plot-data-without-table",
            "pruitt-radius-squared-overflows", "pruitt-r-power-eta-overflows",
            "moment-eta-overflows",
            "moment-cap-overflows", "simulate-horizon-beyond-memory",
            "envelope-exp-with-beta", "envelope-pow-with-c",
            "envelope-exponential-with-beta", "envelope-powexp-without-beta",
            "envelope-unknown-name", "betas-one", "simulate-rate-overflows",
            "pruitt-rate-overflows", "classify-rate-overflows",
            "pruitt-hbar-overflows", "growth-eta-weight-overflows",
            "simulate-event-count-beyond-poisson", "simulate-no-paths",
            "simulate-negative-horizon", "envelope-without-in",
            "moment-scan-without-alpha", "pruitt-without-alpha",
            "phi-value-not-a-number", "phi-two-values-for-a-key",
            "pruitt-radii-decreasing"])
    def test_rejected_without_output(self, args, sample_path_file, tmp_path,
                                     capsys):
        out = tmp_path / "out"
        out.mkdir()
        argv = [a.format(path=sample_path_file, out=out) for a in args]
        if argv[0] != "simulate":       # simulate writes paths, not a report
            argv += ["--json", str(out / "r.json")]
        assert run(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not any(out.iterdir())

    def test_event_count_beyond_poisson_names_it(self, tmp_path, capsys):
        assert run(["simulate", "--alpha", "1.2e-308", "--horizon", "1",
                    "--seed", "1", "--out", str(tmp_path / "p.jsonl")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: the expected event count trunc_mass * "
                              "horizon = 1.6")
        assert "lam value" not in err
        assert not any(tmp_path.iterdir())

    def test_log_magnitude_beyond_float_range(self, tmp_path, capsys):
        # about 1.6 expected draws of ln(1+|x|) > 1.8e308 at alpha 0.01
        out = tmp_path / "p.jsonl"
        assert run(["simulate", "--alpha", "0.01", "--horizon", "10",
                    "--seed", "1", "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: a sampled log magnitude ln(1+|x|) "
                              "exceeds the float range at alpha=0.01")
        assert not any(tmp_path.iterdir())      # no JSONL and no sidecar

    @pytest.mark.parametrize("option", [["--small"], ["--eps", "0.1"],
                                        ["--grid-step", "0.5"]],
                             ids=["small", "eps", "grid-step"])
    def test_removed_simulate_option(self, option, tmp_path, capsys):
        out = tmp_path / "p.jsonl"
        assert run(["simulate", "--alpha", "1.0", "--horizon", "4", "--seed",
                    "3", "--out", str(out), *option]) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "p.small.jsonl").exists()

    @pytest.mark.parametrize("mangle", [
        lambda meta, rec: rec.pop("sign"),
        lambda meta, rec: meta.pop("alpha"),
        lambda meta, rec: rec.update(log1p_mag=float("nan")),
        lambda meta, rec: rec.update(sign=1.5),
        lambda meta, rec: meta.update(horizon=float("nan")),
        lambda meta, rec: meta.update(alpha="x"),
        lambda meta, rec: meta.update(horizon="x"),
        lambda meta, rec: rec.update(log1p_mag="0.9"),
        lambda meta, rec: rec.update(t=str(rec["t"])),
        lambda meta, rec: rec.update(sign=True),
        lambda meta, rec: rec.update(t=True),
        lambda meta, rec: rec.update(log1p_mag=10 ** 400),
        lambda meta, rec: rec.update(t=None),
        lambda meta, rec: rec.update(sign=[1]),
        lambda meta, rec: rec.update(log1p_mag={"value": 0.9}),
        lambda meta, rec: meta.update(spawn_key=5),
        lambda meta, rec: meta.update(spawn_key=["a"]),
        lambda meta, rec: meta.update(spawn_key={"x": 1}),
        lambda meta, rec: meta.update(spawn_key=[-1]),
        lambda meta, rec: meta.update(spawn_key="ab"),
        lambda meta, rec: meta.update(spawn_key=[True]),
        lambda meta, rec: meta.update(rng_name=5),
        lambda meta, rec: meta.update(component="small"),
        lambda meta, rec: meta.update(horizon=0),
        lambda meta, rec: meta.update(horizon=-5.0),
        lambda meta, rec: meta.update(format_version=True),
        lambda meta, rec: meta.update(format_version=1.0),
        lambda meta, rec: meta.update(seed=1.5),
    ], ids=["record-without-sign", "header-without-alpha", "nan-magnitude",
            "fractional-sign", "nan-horizon", "string-alpha", "string-horizon",
            "string-magnitude", "string-time", "bool-sign", "bool-time",
            "int-magnitude-beyond-float", "null-time", "list-sign", "object-magnitude",
            "spawn-key-int", "spawn-key-strings", "spawn-key-object",
            "spawn-key-negative", "spawn-key-string", "spawn-key-bool",
            "rng-name-int", "component-small", "horizon-zero",
            "horizon-negative", "bool-format-version",
            "float-format-version", "float-seed"])
    def test_malformed_path_file(self, mangle, sample_path_file, tmp_path,
                                 capsys):
        lines = sample_path_file.read_text().splitlines()
        meta, rec = json.loads(lines[0]), json.loads(lines[1])
        mangle(meta, rec)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(meta), json.dumps(rec)]
                                 + lines[2:]) + "\n")
        assert run(["diagnose", "--in", str(bad),
                    "--envelope", "exp:c=1.0"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("horizon", [0, -5.0])
    @pytest.mark.parametrize("args", [
        ["diagnose", "--envelope", "exp:c=1.0"],
        ["diagnose", "--growth", "eta=0.5"],
        ["pair", "--phi", "bump:center=5,width=2"],
    ], ids=["envelope", "growth", "pair"])
    def test_header_only_nonpositive_horizon(self, args, horizon,
                                             sample_path_file, tmp_path,
                                             capsys):
        meta = json.loads(sample_path_file.read_text().splitlines()[0])
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(dict(meta, horizon=horizon)) + "\n")
        assert run([*args, "--in", str(bad)]) == EXIT_USAGE
        assert capsys.readouterr().err == \
               f"error: horizon must be positive, got {horizon!r}\n"

    @pytest.mark.parametrize("key", ["alpha", "horizon"])
    @pytest.mark.parametrize("args", [
        ["diagnose", "--envelope", "exp:c=1.0"],
        ["diagnose", "--growth", "eta=0.5"],
        ["pair", "--phi", "bump:center=5,width=2"],
    ], ids=["envelope", "growth", "pair"])
    def test_header_integer_beyond_float_range(self, args, key,
                                               sample_path_file, tmp_path,
                                               capsys):
        # a 401-digit integer is valid JSON but no float; math.isfinite
        # raised OverflowError on it
        lines = sample_path_file.read_text().splitlines()
        meta = dict(json.loads(lines[0]), **{key: 10 ** 400})
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(meta), *lines[1:]]) + "\n")
        assert run([*args, "--in", str(bad)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: path header {key} must be a finite "
                              "number, got 1000")
        assert err.count("\n") == 1 and len(err) < 120   # the value is cut

    @staticmethod
    def jsonl_only(sample_path_file) -> bytes:
        """The sample file's bytes, its sidecar removed so that the JSONL
        is parsed."""
        Path(f"{sample_path_file}{SIDECAR_SUFFIX}").unlink()
        return sample_path_file.read_bytes()

    def test_in_place_edit_names_its_line(self, sample_path_file, capsys):
        # the sidecar no longer matches, so the edited JSONL is parsed
        lines = sample_path_file.read_text().splitlines(keepends=True)
        lines[2] = lines[2].replace('"sign"', '"sgn"')
        sample_path_file.write_text("".join(lines))
        assert run(["diagnose", "--in", str(sample_path_file),
                    "--envelope", "exp:c=1.0"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: line 3: ")

    def test_digit_after_a_record_names_its_line(self, sample_path_file,
                                                 capsys):
        # the writer's shape but for a digit after the closing brace,
        # which the block parse must not join to log1p_mag
        lines = self.jsonl_only(sample_path_file).splitlines(keepends=True)
        lines[2] = lines[2].replace(b"}\n", b"}7\n")
        sample_path_file.write_bytes(b"".join(lines))
        assert run(["diagnose", "--in", str(sample_path_file),
                    "--envelope", "exp:c=1.0"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            "error: line 3: invalid JSON (Extra data")

    @pytest.mark.parametrize("lineno", [1, 4], ids=["header", "event"])
    def test_undecodable_byte_names_its_line(self, lineno, sample_path_file,
                                             capsys):
        # a 0xff byte is not UTF-8 in any position, whatever the locale
        lines = self.jsonl_only(sample_path_file).splitlines(keepends=True)
        lines[lineno - 1] = b"{\xff" + lines[lineno - 1][1:]
        sample_path_file.write_bytes(b"".join(lines))
        assert run(["diagnose", "--in", str(sample_path_file),
                    "--envelope", "exp:c=1.0"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {lineno}: not UTF-8 ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("recode", [
        lambda data: b"\xef\xbb\xbf" + data,
        lambda data: data.decode().encode("utf-16-be"),
        # JSON Lines ends a line at \n only, so the file is one line
        lambda data: data.replace(b"\n", b"\r"),
    ], ids=["utf-8-bom", "utf-16-be", "lone-cr-line-breaks"])
    def test_other_encodings_refused(self, recode, sample_path_file, capsys):
        sample_path_file.write_bytes(recode(self.jsonl_only(sample_path_file)))
        assert run(["diagnose", "--in", str(sample_path_file),
                    "--envelope", "exp:c=1.0"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: invalid JSON")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("recode", [
        lambda data: data.replace(b"\n", b"\r\n"),
        # in the header and in the first event line
        lambda data: data.replace(b"}\n", ', "note": "\u00e9"}\n'.encode(), 2),
    ], ids=["crlf-line-breaks", "non-ascii-extra-key"])
    def test_other_bytes_load_the_same_rows(self, recode, sample_path_file,
                                            tmp_path):
        data = self.jsonl_only(sample_path_file)
        twin = tmp_path / "twin.jsonl"
        twin.write_bytes(recode(data))
        assert twin.read_bytes() != data
        a, b = load_event_file(sample_path_file), load_event_file(twin)
        for field in ("times", "signs", "log1p_mags"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert (a.params.alpha, a.horizon, a.seed) == \
               (b.params.alpha, b.horizon, b.seed)

    @pytest.mark.parametrize("mangle", [
        lambda meta, rec: rec.update(sign=float(rec["sign"])),
        lambda meta, rec: rec.update(log1p_mag=10 ** 299),
    ], ids=["float-sign", "300-digit-magnitude"])
    def test_other_numeric_forms_accepted(self, mangle, sample_path_file,
                                          tmp_path, capsys):
        lines = sample_path_file.read_text().splitlines()
        meta, rec = json.loads(lines[0]), json.loads(lines[1])
        mangle(meta, rec)
        odd = tmp_path / "odd.jsonl"
        odd.write_text("\n".join([json.dumps(meta), json.dumps(rec)]
                                 + lines[2:]) + "\n")
        assert run(["diagnose", "--in", str(odd),
                    "--envelope", "exp:c=1.0"]) == EXIT_OK
        json.loads(capsys.readouterr().out, parse_constant=reject_constant)

    @pytest.mark.parametrize("value", ["nan", "inf", "abc"])
    @pytest.mark.parametrize("args", [
        ["simulate", "--alpha", "{v}", "--horizon", "10", "--seed", "1",
         "--out", "{out}/p.jsonl"],
        ["simulate", "--alpha", "1.5", "--horizon", "{v}", "--seed", "1",
         "--out", "{out}/p.jsonl"],
        ["diagnose", "--in", "{path}", "--envelope", "exp:c=1",
         "--burn-in", "{v}", "--json", "{out}/r.json"],
        ["diagnose", "--alpha", "{v}", "--moment-scan", "eta=0.25,caps=10,100",
         "--json", "{out}/r.json"],
        ["classify", "--alpha", "{v}", "--betas", "2", "--json", "{out}/r.json"],
    ], ids=["simulate-alpha", "simulate-horizon", "diagnose-burn-in",
            "diagnose-alpha", "classify-alpha"])
    def test_non_finite_float_option(self, args, value, sample_path_file,
                                     tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        argv = [a.format(path=sample_path_file, out=out, v=value) for a in args]
        assert run(argv) == EXIT_USAGE
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.startswith("error: argument --")
        assert err.endswith(f": expected a finite number, got '{value}'\n")
        assert err.count("\n") == 1
        assert not any(out.iterdir())


class TestNonRegularFiles:
    """A path file or sidecar that is a FIFO or a directory never blocks
    a load: the sidecar is skipped, the path file exits 3."""

    @staticmethod
    def cli(*args):
        # a subprocess, so a load that blocks on a FIFO fails the test
        src = Path(kalpha.paths.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "kalpha.cli", *map(str, args)],
                              env=env, capture_output=True, text=True, timeout=60)

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    def test_sidecar_falls_back_to_the_parse(self, kind, sample_path_file,
                                             tmp_path):
        args = ["diagnose", "--in", sample_path_file, "--envelope", "exp:c=1"]
        expected = self.cli(*args)
        sidecar = Path(f"{sample_path_file}{SIDECAR_SUFFIX}")
        sidecar.unlink()
        os.mkfifo(sidecar) if kind == "fifo" else sidecar.mkdir()
        done = self.cli(*args)
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        assert strip_timestamps(done.stdout) == strip_timestamps(expected.stdout)

    @pytest.mark.parametrize("command", [
        ["diagnose", "--envelope", "exp:c=1"], ["diagnose", "--growth", "eta=0.5"],
        ["pair", "--phi", "bump:center=5,width=2"]])
    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    def test_path_file_exits_3(self, kind, command, tmp_path):
        infile = tmp_path / "p.jsonl"
        os.mkfifo(infile) if kind == "fifo" else infile.mkdir()
        done = self.cli(*command, "--in", infile)
        assert done.returncode == EXIT_IO
        assert done.stderr == (f"i/o error: [Errno {errno.EINVAL}] not a "
                               f"regular file: '{infile}'\n")


class TestHelpers:
    def test_parse_envelope_aliases(self):
        # each kind by its short name and its full name, in any case
        for texts, spec in [
            (("pow:beta=2", "power:beta=2", "POW:beta=2"),
             EnvelopeSpec("power", beta=2.0)),
            (("exp:c=0.5", "exponential:c=0.5", "Exp:c=0.5"),
             EnvelopeSpec("exponential", c=0.5)),
            (("powexp:c=1,beta=2", "power_exponential:beta=2,c=1"),
             EnvelopeSpec("power_exponential", beta=2.0, c=1.0)),
        ]:
            for text in texts:
                assert parse_envelope(text) == spec, text

    def test_describe_parses_back_to_an_equal_object(self):
        # reports and manifests name envelopes and test functions by
        # describe(); its text must build the same object again
        for env in (EnvelopeSpec("power", beta=2.5),
                    EnvelopeSpec("exponential", c=0.75),
                    EnvelopeSpec("power_exponential", beta=1.25, c=3.0)):
            assert parse_envelope(env.describe()) == env
        for phi in (Gaussian(-1.5, 0.25), Bump(5.0, 2.0), ExpPoly(2.5, 6)):
            back = parse_test_function(phi.describe())
            assert type(back) is type(phi) and vars(back) == vars(phi)

    def test_validate_document_rejects(self):
        with pytest.raises(ValueError):
            validate_document({"kind": "nonsense"})
        with pytest.raises(ValueError):
            validate_document({"kind": "pairing", "format_version": 1})

    def test_validate_document_nullable(self):
        doc = {"format_version": 2, "kind": "pairing", "phi": "gaussian",
               "value_sign": 0, "value_logmag": None,
               "crosscheck_rel_err": 0.0, "truncation_warning": False,
               "manifest": {}}
        validate_document(doc)
        with pytest.raises(ValueError):
            validate_document(dict(doc, crosscheck_rel_err=None))
        with pytest.raises(ValueError):
            validate_document(dict(doc, value_logmag=True))

    def test_json_numbers_round_trip(self, sample_path_file):
        # repr-based float serialisation is bit-faithful
        lines = sample_path_file.read_text().splitlines()
        for line in lines[1:]:
            rec = json.loads(line)
            assert json.loads(json.dumps(rec)) == rec


class TestParser:
    """main() builds its parser once per process; no call sees another's
    options."""

    def test_built_once(self):
        assert _build_parser() is _build_parser()

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["frob"], "argument command: invalid choice: 'frob'"),
        (["simulate", "--alpha", "1.5", "--horizon", "10", "--seed", "1"],
         "the following arguments are required: --out"),
        (["classify", "--alpha", "1.5", "--betas", "2", "--frob"],
         "unrecognized arguments: --frob"),
    ], ids=["no-command", "unknown-command", "missing-out", "unknown-option"])
    def test_argparse_refusal_is_one_error_line(self, argv, message, capsys):
        assert run(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, flag, capsys):
        assert run([flag]) == EXIT_OK
        out, err = capsys.readouterr()
        assert out and err == ""

    def test_different_subcommands_in_one_process(self, sample_path_file,
                                                  tmp_path, capsys):
        pair, classify = tmp_path / "pair.json", tmp_path / "classify.json"
        assert run(["pair", "--in", str(sample_path_file), "--phi",
                    "bump:center=50,width=40", "--json", str(pair)]) == EXIT_OK
        assert run(["classify", "--alpha", "1.5", "--betas", "2",
                    "--json", str(classify)]) == EXIT_OK
        assert json.loads(pair.read_text())["kind"] == "pairing"
        doc = json.loads(classify.read_text())
        assert (doc["kind"], doc["in_K_prime"]) == ("support_verdict", True)
        assert doc["manifest"]["params"] == {"alpha": 1.5, "betas": [2.0]}

    def test_in_files_do_not_carry_over(self, sample_path_file, tmp_path,
                                        capsys):
        assert run(["diagnose", "--envelope", "exp:c=1", "--json",
                    str(tmp_path / "env.json"),
                    "--in", str(sample_path_file)]) == EXIT_OK
        args = _build_parser().parse_args(
            ["diagnose", "--alpha", "1.5", "--pruitt", "etas=0.5,rs=10,100"])
        assert args.infiles == ()
        assert run(["diagnose", "--alpha", "1.5", "--pruitt",
                    "etas=0.5,rs=10,100", "--json",
                    str(tmp_path / "pruitt.json")]) == EXIT_OK
        capsys.readouterr()
        # a mode that needs --in files still finds none
        assert run(["diagnose", "--growth", "eta=0.5"]) == EXIT_USAGE
        assert "--growth needs at least one --in" in capsys.readouterr().err
