"""Command-line interface: exit codes, printed artifacts, and manifests."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhlab import cli
from bhlab.constructions import code_from_text


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    from bhlab import __version__

    code, out, err = run(capsys, "--version")
    assert code == 0
    assert __version__ in out + err


def test_module_entry_point_runs_without_warning():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "bhlab", "rate", "poltyrev", "--h", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "poltyrev rate 0.471679\n", "")
    usage = subprocess.run([sys.executable, "-m", "bhlab", "rate", "nosuch"],
                           capture_output=True, text=True, env=env, timeout=120)
    assert usage.returncode == 2 and "Traceback" not in usage.stderr


def test_oracle_runs_do_not_import_numpy_ma(tmp_path):
    """numpy 2.4's 1-D `np.unique` imports `numpy.ma` on its first call, 16-19 ms
    and about 1 MB; neither a verify nor a simulate with many violations pays it.
    Skipped where `import numpy` itself loads `numpy.ma` (numpy 1.x)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = """if True:
        import sys
        import numpy
        print("numpy.ma" in sys.modules)
        from bhlab import cli
        for argv in ("construct bose-chowla --q 13 --h 2 --binary --output bc.txt",
                     "verify bh --h 2 --input bc.txt", "simulate --h 2 --n 12 --seed 1",
                     "simulate --h 2 --g 2 --n 12 --seed 1"):
            assert cli.main(argv.split()) == 0, argv
        print("numpy.ma" in sys.modules)
    """
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    with_numpy, after_runs = done.stdout.splitlines()[-2:]
    if with_numpy == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert after_runs == "False"


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "construct", "bose-chowla")[0] == 2  # missing --q/--h
    assert run(capsys, "rate", "dr")[0] == 2                # missing --h


def _assert_usage_error(result):
    code, _, err = result
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_internal_error_exits_3_without_traceback(monkeypatch, capsys):
    def broken(args, argv):
        raise RuntimeError("handler bug")

    monkeypatch.setattr(cli, "_cmd_rate", broken)
    code, out, err = run(capsys, "rate", "poltyrev", "--h", "2")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: handler bug\n"


def test_verify_bhsharp_without_d_exits_2(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("n=2 h=2 source=demo\n00\n01\n")
    _assert_usage_error(run(capsys, "verify", "bhsharp", "--h", "2", "--input", str(path)))


def test_verify_h_zero_exits_2(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("n=2 h=2 source=demo\n00\n01\n")
    _assert_usage_error(run(capsys, "verify", "bh", "--h", "0", "--input", str(path)))


def test_rate_bhsharp_without_d_exits_2(capsys):
    _assert_usage_error(run(capsys, "rate", "bhsharp", "--h", "2"))


def test_rate_dist_without_dist_exits_2(capsys):
    _assert_usage_error(run(capsys, "rate", "dist", "--h", "2"))


def test_configs_enumerate_without_k_l_exits_2(capsys):
    _assert_usage_error(run(capsys, "configs", "enumerate"))
    _assert_usage_error(run(capsys, "configs", "enumerate", "--k", "2"))
    _assert_usage_error(run(capsys, "configs", "enumerate", "--sharp", "--h", "2"))


def test_entropy_without_inputs_exits_2(capsys):
    _assert_usage_error(run(capsys, "entropy", "renyi"))
    _assert_usage_error(run(capsys, "entropy", "majorize", "--p-seq", "1/2,1/2"))


NAMED_OPTION = {  # argv -> the part of its error message that names the option
    ("entropy", "search", "--n0", "0"): "n0 must be >= 1, got 0",  # printed a report
    ("entropy", "search", "--n0", "-1"): "n0 must be >= 1, got -1",
    ("entropy", "search", "--n0", "40"): "n0 = 40",  # built 2^40 points
    ("simulate", "--h", "2", "--n", "40", "--seed", "0", "--n0", "40"): "n0 = 40",
    ("entropy", "search", "--trials", "-5"): "trials must be >= 0, got -5",  # exit 0
    ("entropy", "search", "--n0", "13"): "1594323 cells",  # ran 1000 trials of 2^26 point pairs
    ("simulate", "--h", "2", "--n", "4", "--seed", "0", "--attempts", "0"):
        "attempts must be >= 1, got 0",
    ("rate", "bhg", "--h", "0"): "h = 0",  # "no configurations to optimize over"
    ("rate", "bhg", "--h", "2", "--g", "0"): "g = 0",
    ("configs", "enumerate", "--sharp", "--h", "3", "--d", "2"): "d = 2",  # printed 4 classes
    ("configs", "enumerate", "--sconf", "--sharp", "--h", "2", "--d", "3", "--k", "2", "--l", "3"):
        "not allowed with",  # printed the 4 sharp classes, ignoring --sconf, --k and --l
    ("entropy", "sidon", "--p", "0", "--alpha", "-1"): "alpha must be >= 0",  # exit 3
    ("entropy", "sidon", "--alpha", "nan"): "alpha must be >= 0",  # printed f=nan, exit 0
    ("entropy", "search", "--seed", "-1"): "seed -1",  # numpy's "key must be positive ..."
    ("entropy", "search", "--seed", str(2**64)): f"seed {2**64}",  # a key past uint64, exit 0
    ("simulate", "--h", "2", "--n", "4", "--seed", "-1"): "seed -1",  # a two's-complement key
    ("simulate", "--h", "2", "--n", "4", "--seed", str(2**64)): f"seed {2**64}",  # exit 3
    ("entropy", "hessian", "--n", "-1"): "n = -1",  # "negative shift count"
    ("entropy", "hessian", "--alpha", "-1"): "alpha must be >= 0",  # printed a matrix
    ("entropy", "hessian", "--n", "14"): "n = 14",  # a 2 GB matrix, filled entry by entry
    ("entropy", "majorize", "--p-seq=1/2,1/2", "--q-seq=2,-1"): "negative entry -1",  # "true"
}


@pytest.mark.parametrize("argv", [
    ("simulate", "--h", "2", "--n", "4", "--seed", "0", "--g", "0"),  # looped forever
    ("simulate", "--h", "2", "--n", "4", "--seed", "0", "--n0", "0"),
    ("construct", "bose-chowla", "--q", "0", "--h", "-1"),
    ("rate", "special", "--h", "1", "--g", "0"),
    ("rate", "special", "--h", "0", "--g", "2"),
    ("rate", "dist", "--h", "2", "--dist", "1/0,1"),  # ZeroDivisionError, exit 3
    ("entropy", "renyi", "--dist", "1/0,1"),
    ("entropy", "hfold", "--dist", "1/0,1"),
    ("simulate", "--h", "2", "--n", "4", "--seed", "0", "--dist", "1/0,1"),
    ("entropy", "majorize", "--p-seq", "1/0", "--q-seq", "1"),
    ("rate", "dist", "--h", "2", "--n0", "0", "--dist", "1"),  # exit 3
    ("entropy", "renyi", "--n0", "0", "--dist", "1"),  # printed -0.0000000000
    ("entropy", "renyi", "--n0", "-1", "--dist", "1"),
    ("rate", "bhsharp", "--h", "2", "--d", "20"),  # printed "rate inf (vacuous)"
    ("rate", "bhsharp", "--h", "0", "--d", "0"),
    ("configs", "enumerate", "--sharp", "--h", "0", "--d", "0"),  # printed "total 0"
    ("configs", "enumerate", "--sharp", "--h", "4", "--d", "4"),
    *NAMED_OPTION,
])
def test_degenerate_parameters_exit_2(capsys, argv):
    result = run(capsys, *argv)
    _assert_usage_error(result)
    assert NAMED_OPTION.get(argv, "") in result[2]


def test_dist_errors_name_their_cause(capsys):
    result = run(capsys, "entropy", "renyi", "--n0", "-1", "--dist", "1")
    _assert_usage_error(result)
    assert "n0 must be >= 1, got -1" in result[2]
    result = run(capsys, "entropy", "majorize", "--p-seq", "1/2,1/2", "--q-seq", "1,1/0")
    _assert_usage_error(result)
    assert "zero denominator" in result[2]


def test_bose_chowla_with_h_1_exits_2_naming_h(capsys):
    result = run(capsys, "construct", "bose-chowla", "--q", "3", "--h", "1")
    _assert_usage_error(result)
    assert "h >= 2" in result[2] and "h = 1" in result[2]


def test_cached_parser_matches_a_fresh_parser_per_call(tmp_path, capsys, monkeypatch):
    code_file, bad_file = str(tmp_path / "code.txt"), tmp_path / "bad.txt"
    bad_file.write_text(CODE_FILES["bad.txt"])
    argvs = [
        ("construct", "bose-chowla", "--q", "5", "--h", "2", "--binary", "--output", code_file),
        ("verify", "bh", "--h", "2", "--input", code_file),
        ("verify", "bh", "--h", "2", "--input", str(bad_file)),
        ("construct", "power-map", "--q", "5", "--h", "2"),
        ("rate", "bhg", "--h", "2", "--g", "2", "--table"),
        ("configs", "enumerate", "--k", "2", "--l", "2"),
        ("entropy", "roots"),
        ("rate", "nosuch", "--h", "2"),
        ("construct", "bose-chowla", "--q", "3"),
        ("--version",),
        ("nonsense",),
    ]
    cached = [run(capsys, *argv) for argv in argvs * 2]
    assert cached[:len(argvs)] == cached[len(argvs):]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # one parser per call
    assert [run(capsys, *argv) for argv in argvs] == cached[:len(argvs)]
    assert [c[0] for c in cached[:len(argvs)]] == [0, 0, 1, 0, 0, 0, 0, 2, 2, 0, 2]


def test_construct_prints_residues(capsys):
    code, out, _ = run(capsys, "construct", "bose-chowla", "--q", "5", "--h", "2")
    assert code == 0
    assert out.splitlines()[0] == "modulus=24"
    assert len(out.splitlines()[1].split()) == 5


def test_construct_binary_to_file_with_manifest(tmp_path, capsys):
    path = tmp_path / "code.txt"
    code, _, _ = run(capsys, "construct", "bose-chowla", "--q", "5", "--h", "2",
                     "--binary", "--output", str(path))
    assert code == 0
    parsed = code_from_text(path.read_text())
    assert len(parsed) == 5 and parsed.h == 2
    manifest = json.loads((tmp_path / "code.txt.manifest.json").read_text())
    assert manifest["subcommand"] == "construct"
    assert manifest["artifacts"] == [str(path)]
    assert manifest["parameters"]["q"] == 5


def test_verify_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "good.txt"
    run(capsys, "construct", "bose-chowla", "--q", "7", "--h", "2",
        "--binary", "--output", str(good))
    code, out, _ = run(capsys, "verify", "bh", "--h", "2", "--input", str(good))
    assert code == 0 and out.startswith("pass:")

    bad = tmp_path / "bad.txt"
    bad.write_text("n=2 h=2 source=demo\n00\n01\n10\n11\n")
    code, out, _ = run(capsys, "verify", "bh", "--h", "2", "--input", str(bad))
    assert code == 1
    assert "violation" in out
    assert "00 + 11" in out and "01 + 10" in out

    code, out, _ = run(capsys, "verify", "bhg", "--h", "2", "--g", "2",
                       "--input", str(bad))
    assert code == 0

    code, _, err = run(capsys, "verify", "bh", "--h", "2", "--input",
                       str(tmp_path / "missing.txt"))
    assert code == 2 and "error:" in err


def test_configs_enumerate(capsys):
    code, out, err = run(capsys, "configs", "enumerate", "--k", "2", "--l", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 7
    assert "total 7" in err

    code, out, _ = run(capsys, "configs", "enumerate", "--k", "2", "--l", "3", "--json")
    records = json.loads(out)
    assert len(records) == 7
    assert all(set(r) == {"k", "l", "columns", "d", "p"} for r in records)

    code, out, err = run(capsys, "configs", "enumerate", "--sharp",
                         "--h", "2", "--d", "2")
    assert code == 0 and "total 4" in err

    for k, l in (("-3", "-7"), ("0", "5")):  # an empty shape, before the cell cap
        code, out, err = run(capsys, "configs", "enumerate", "--k", k, "--l", l)
        assert (code, out, err) == (0, "", "total 0\n")


def test_rate_formulas(capsys):
    code, out, _ = run(capsys, "rate", "poltyrev", "--h", "2")
    assert code == 0 and "rate 0.471679" in out

    code, out, _ = run(capsys, "rate", "bhg", "--h", "2", "--g", "1", "--table")
    assert code == 0
    assert "argmin" in out and "configuration,k,l,d,p,exponent" in out

    code, out, _ = run(capsys, "rate", "bhsharp", "--h", "2", "--d", "3", "--table")
    assert code == 0 and out.startswith("bhsharp(h=2,d=3) rate 0.471679\nargmin ")

    code, out, _ = run(capsys, "rate", "dist", "--h", "2", "--dist", "1/2,1/2")
    assert code == 0 and "rate 0.471679" in out


def test_rate_special_pinned_output(capsys):
    code, out, _ = run(capsys, "rate", "special", "--h", "100", "--g", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "special exponent 0.982312"
    assert lines[1].split() == ["cmax", "exponent", "0.981414"]


def test_simulate_writes_verified_code_and_stats(tmp_path, capsys):
    path = tmp_path / "sim.txt"
    code, out, _ = run(capsys, "simulate", "--h", "2", "--n", "24",
                       "--seed", "5", "--output", str(path))
    assert code == 0 and "rate=" in out
    parsed = code_from_text(path.read_text())
    exit_code, vout, _ = run(capsys, "verify", "bh", "--h", "2",
                             "--input", str(path))
    assert exit_code == 0
    stats = json.loads((tmp_path / "sim.txt.stats.json").read_text())
    assert stats["oracle_pass"] and stats["final_size"] == len(parsed)
    manifest = json.loads((tmp_path / "sim.txt.manifest.json").read_text())
    assert manifest["seeds"] == [5]
    assert manifest["subcommand"] == "simulate"


def test_simulate_to_an_unwritable_path_prints_only_its_error(tmp_path, capsys):
    # the summary line used to be printed before the artifacts failed to open
    path = tmp_path / "missing" / "sim.txt"
    code, out, err = run(capsys, "simulate", "--h", "2", "--n", "16", "--seed", "5",
                         "--output", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2]") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


SIMULATE_PINS = {  # argv -> sha256 of stdout, code text and .stats.json
    "--h 2 --n 20 --seed 3 --n0 2": (
        "24ef2337e21da73aee9251a3e4385fca17689de5a7eb1a327decdcbde2b8282a",
        "ccf2e591380dc59b2d25ffd93d818861792622430be8bd3eb5363e04e5e67c51",
        "ab744b87944dc7c6f8922295f296667b5df1993b1791950056c746ad7f3a3eb1"),
    "--h 3 --n 24 --seed 5 --n0 3": (
        "a3e5add455bbacd959fc9c4b8f88f75ae3ded47528a6549f9b67899a5dd43ab3",
        "62eb6f106b21bda40c33b65830d4e11bf0c2805db915c4acbd09332ac22b8946",
        "e14af61cf4ee2120ad0378d81d851181611434fce02eb5839cc845fd0327442c"),
    "--h 2 --g 3 --n 16 --seed 7 --n0 2": (
        "9e64c202f6e11568047e605a9acbe2f227b17f6cd6573316bb47698242cff156",
        "ad3ed8e7ab5e3598fec622bc334f835755a0745211e49596371a72e638fb2cde",
        "b13e3175b07852aeb8a6e8ead6d7feda501f3074f7fc471f803e46fe25c0ec1a"),
    "--h 2 --g 3 --n 16 --n0 8 --seed 1": (  # t=893 through p_8(C) = p_1(C)^8
        "3e4de4e99d6415572d22fe493c6e9d6eb52e19f91aa122c73b324ba1ad16681d",
        "babc503f8802ef28efac213a1a4287ee3fb00a79708ce8459f87ba5f7f5cb504",
        "18cfc2c1099074eaab740f0e46f6486b6de8c779f0aa763cd2dc98aecd553f41"),
    "--h 2 --n 20 --seed 2 --n0 2 --dist 1/8,1/8,3/8,3/8": (
        "7d8adc7588e933f3654198965f82f15b390fc957ae9180d13ea8c729227c1308",
        "4c39f60da6b1bc6088d5adcc8cd5bed0a6b3858ea8e906cb9dd29316a7f1ec78",
        "1f35c6c0de5589247db92be3e631a3579ae2da6b0b3a7b680193d03714eb554d"),
    "--h 3 --n 30 --seed 4 --n0 2 --dist 1/8,1/8,3/8,3/8": (
        "ea975e210dfd3815576545fbb11552f5b0c2ea6703265ad1d5246542e84066ea",
        "c5707255eebf903615b83d251b4c4cfaf05d5c1a25aa304228e6e50f6219c42a",
        "1bb0f47d717e20e02f9b80027f0d43dc914cb8f646356158534307a9167e34a2"),
    "--h 3 --n 21 --seed 6 --dist 3/4,1/4": (
        "6c44becffe1026911f2a047acf90c81a44498cce8544e2855fc37910c9f2dd5d",
        "fb68508bd3970e30f6e8c6caba1df42dd1f166afcc786843b3a64b4efbe1cc6c",
        "642fbdfeec5653ff8fcdc7f6d5ada4d2f02b64d8f2a3d671d0e4afe6dac4b5f1"),
}


@pytest.mark.parametrize("argv", sorted(SIMULATE_PINS))
def test_simulate_with_block_laws_is_pinned(tmp_path, capsys, argv):
    path = tmp_path / "sim.txt"
    code, out, _ = run(capsys, "simulate", *argv.split(), "--output", str(path))
    assert code == 0
    digests = (out.encode(), path.read_bytes(), (tmp_path / "sim.txt.stats.json").read_bytes())
    assert tuple(hashlib.sha256(b).hexdigest() for b in digests) == SIMULATE_PINS[argv]


def test_manifest_replay_reproduces_artifacts(tmp_path, capsys):
    # three pinned artifact-producing runs; replaying the recorded argv must
    # reproduce every artifact byte-for-byte
    runs = [
        ["construct", "bose-chowla", "--q", "5", "--h", "2", "--binary",
         "--output", str(tmp_path / "bc.txt")],
        ["construct", "power-map", "--q", "7", "--h", "2", "--binary",
         "--output", str(tmp_path / "pm.txt")],
        ["simulate", "--h", "2", "--n", "20", "--seed", "11",
         "--output", str(tmp_path / "sim.txt")],
    ]
    for argv in runs:
        assert cli.main(argv) == 0
        capsys.readouterr()
        out_path = argv[argv.index("--output") + 1]
        manifest = json.loads(Path(out_path + ".manifest.json").read_text())
        before = {p: Path(p).read_bytes() for p in manifest["artifacts"]}
        assert cli.main(manifest["argv"]) == 0
        capsys.readouterr()
        for p, content in before.items():
            assert Path(p).read_bytes() == content, f"replay changed {p}"


def test_entropy_subcommands(capsys):
    code, out, _ = run(capsys, "entropy", "roots")
    lines = out.strip().splitlines()
    assert code == 0 and lines == ["1.29856", "3.65986"]

    code, out, _ = run(capsys, "entropy", "renyi", "--dist", "1/2,1/2",
                       "--alpha", "2")
    assert code == 0 and out.strip() == "1.0000000000"

    code, out, _ = run(capsys, "entropy", "hfold", "--dist", "1/2,1/2", "--h", "2")
    assert code == 0
    assert out.strip().splitlines() == ["0 1/4", "1 1/2", "2 1/4"]

    code, out, _ = run(capsys, "entropy", "sidon", "--p", "0.5", "--alpha", "4")
    assert code == 0 and "f''(1/2)=-0.25" in out

    code, out, _ = run(capsys, "entropy", "hessian", "--n", "1", "--alpha", "2")
    assert code == 0 and len(out.strip().splitlines()) == 2


@pytest.mark.parametrize("alpha", ["0", "0.5", "1", "2", "3", "inf"])
def test_renyi_of_a_point_mass_prints_positive_zero(capsys, alpha):
    code, out, _ = run(capsys, "entropy", "renyi", "--dist", "1,0", "--alpha", alpha)
    assert code == 0 and out == "0.0000000000\n"  # printed -0.0000000000 at 1, 2, 3, inf


def test_rate_dist_of_a_point_mass_prints_positive_zero(capsys):
    code, out, _ = run(capsys, "rate", "dist", "--h", "3", "--dist", "1,0")
    assert code == 0 and out == "distribution rate 0.000000\n"  # printed -0.000000


def test_entropy_majorize_exit_codes(capsys):
    code, out, _ = run(capsys, "entropy", "majorize",
                       "--p-seq", "1/2,1/2", "--q-seq", "1,0")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "entropy", "majorize",
                       "--p-seq", "1,0", "--q-seq", "1/2,1/2")
    assert code == 1 and out.strip() == "false"


def test_entropy_search_reports_json(capsys):
    code, out, _ = run(capsys, "entropy", "search", "--n0", "1", "--alpha", "2",
                       "--h", "2", "--trials", "100", "--seed", "0")
    assert code == 0
    report = json.loads(out)
    assert report["gap"] >= 0 and not report["counterexample"]
    assert report["sampling_law"] == "dirichlet-uniform-simplex"


def test_bad_distribution_exits_2(capsys):
    code, _, err = run(capsys, "rate", "dist", "--h", "2", "--dist", "1/2,1/3")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "entropy", "renyi", "--dist", "1/2,1/4,1/4",
                       "--n0", "1")
    assert code == 2


# ---------------------------------------------------------------------------
# exit-code contract on random argv

# the first value of each list is a valid small one; h, g, k, l <= 2 keep each run cheap
SMALL = ["2", "1", "0", "-1"]
OPTION_VALUES = {
    "--q": ["3", "5", "4", "2", "7", "9", "6", "1", "0"],
    "--h": SMALL, "--g": SMALL, "--d": SMALL, "--k": SMALL, "--l": SMALL,
    "--n": ["8", "6", "4", "2", "1", "0", "-1"],
    "--n0": ["1", "2", "0"],
    "--seed": SMALL, "--attempts": ["2", "1", "0"], "--trials": SMALL,
    "--alpha": ["2", "0.5", "1", "0", "inf", "nan", "-1"],
    "--p": ["0.5", "0.3", "0", "1", "1.5"],
    "--dist": ["1/2,1/2", "3/4,1/4", "1,0", "1/4,1/4,1/4,1/4", "1/2,1/3", "0,0", "-1/2,3/2",
               "x"],
    "--p-seq": ["1/2,1/2", "1,0", "1/3,2/3", "1", "a"],
    "--q-seq": ["1/2,1/2", "1,0", "0,1", "1/2,1/4,1/4", ""],
}
FLAGS = ("--binary", "--table", "--json", "--sconf", "--sharp")
# subcommand: (positional choices, usually-given options, other options)
COMMANDS = {
    "construct": (("bose-chowla", "power-map"), ("--q", "--h"), ("--binary", "--output")),
    "verify": (("bh", "bhg", "bhsharp"), ("--h", "--input"), ("--g", "--d")),
    "configs": (("enumerate",), ("--k", "--l"), ("--sconf", "--sharp", "--h", "--d", "--json")),
    "rate": (("dr", "poltyrev", "dist", "bhg", "bhsharp", "special"), ("--h",),
             ("--g", "--d", "--dist", "--n0", "--table")),
    "simulate": ((), ("--h", "--n", "--seed"),
                 ("--n0", "--dist", "--g", "--attempts", "--output")),
    "entropy": (("renyi", "hfold", "hessian", "roots", "sidon", "search", "majorize"), (),
                ("--dist", "--n0", "--alpha", "--h", "--n", "--p", "--trials", "--seed",
                 "--p-seq", "--q-seq")),
}
CODE_FILES = {"good.txt": "n=3 h=2 source=demo\n001\n010\n100\n",
              "bad.txt": "n=2 h=2 source=demo\n00\n01\n10\n11\n",
              "garbled.txt": "not a code\n"}


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    for name, text in CODE_FILES.items():
        (path / name).write_text(text)
    return path


def _option_values(option, directory):
    """The values `option` takes in these tests, as the argv words that follow
    it; the first is a valid small one."""
    if option in FLAGS:
        return [[]]
    if option == "--input":
        return [[str(directory / name)] for name in list(CODE_FILES) + ["missing.txt"]]
    if option == "--output":
        return [[str(directory / "out.txt")]]
    return [[value] for value in OPTION_VALUES[option]]


@st.composite
def cli_argv(draw, directory):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positionals, usual, other = COMMANDS[command]
    argv = [command] + ([draw(st.sampled_from(positionals))] if positionals else [])
    dropped = draw(st.sampled_from((None,) * 4 + usual))  # at times one goes missing
    extra = draw(st.lists(st.sampled_from(other), max_size=5, unique=True))
    for option in [o for o in usual if o != dropped] + extra:
        argv += [option] + draw(st.sampled_from(_option_values(option, directory)))
    return argv


def _check_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err
    assert code in (0, 1, 2), err
    if code == 1:
        # a printed violation, a search counterexample, or a failed majorization
        counterexample = '"counterexample": ' in out and '"counterexample": null' not in out
        assert "violation:" in out or counterexample or out == "false\n", out


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_random_argv_keeps_the_exit_code_contract(cli_dir, data):
    _check_exit_code_contract(data.draw(cli_argv(cli_dir), label="argv"))


def _swept_argvs(directory):
    """Per subcommand and positional: the usual options at their first (valid,
    small) value, then each option alone dropped (if usual) or set to each of
    its values.  Each argv once, in a fixed order."""
    seen = {}
    for command, (positionals, usual, other) in sorted(COMMANDS.items()):
        for head in [[command, p] for p in positionals] or [[command]]:
            base = {o: _option_values(o, directory)[0] for o in usual}
            for option in usual + other:
                dropped = [None] if option in usual else []
                for value in dropped + _option_values(option, directory):
                    options = {o: v for o, v in base.items() if o != option}
                    if value is not None:
                        options[option] = value
                    seen.setdefault(tuple(head + [w for o, v in options.items()
                                                  for w in [o] + v]), None)
    return [list(argv) for argv in seen]


def test_every_single_option_change_keeps_the_exit_code_contract(cli_dir):
    for argv in _swept_argvs(cli_dir):
        _check_exit_code_contract(argv)
