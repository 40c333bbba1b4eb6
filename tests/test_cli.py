"""Command-line interface: exit codes, printed artifacts, and manifests."""

import contextlib
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


@pytest.mark.parametrize("argv", [
    ("simulate", "--h", "2", "--n", "4", "--seed", "0", "--g", "0"),  # looped forever
    ("simulate", "--h", "2", "--n", "4", "--seed", "0", "--n0", "0"),
    ("construct", "bose-chowla", "--q", "0", "--h", "-1"),
    ("rate", "special", "--h", "1", "--g", "0"),
    ("rate", "special", "--h", "0", "--g", "2"),
])
def test_degenerate_parameters_exit_2(capsys, argv):
    _assert_usage_error(run(capsys, *argv))


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


def test_rate_formulas(capsys):
    code, out, _ = run(capsys, "rate", "poltyrev", "--h", "2")
    assert code == 0 and "rate 0.471679" in out

    code, out, _ = run(capsys, "rate", "bhg", "--h", "2", "--g", "1", "--table")
    assert code == 0
    assert "argmin" in out and "configuration,k,l,d,p,exponent" in out

    code, out, _ = run(capsys, "rate", "bhsharp", "--h", "2", "--d", "20")
    assert code == 0 and "vacuous" in out

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
        manifest = json.loads(open(out_path + ".manifest.json").read())
        before = {p: open(p, "rb").read() for p in manifest["artifacts"]}
        assert cli.main(manifest["argv"]) == 0
        capsys.readouterr()
        for p, content in before.items():
            assert open(p, "rb").read() == content, f"replay changed {p}"


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

SMALL = st.sampled_from(["2", "1", "0", "-1"])  # h, g, k, l <= 2 keep each run cheap
OPTION_VALUES = {
    "--q": st.sampled_from(["3", "5", "4", "2", "7", "9", "6", "1", "0"]),
    "--h": SMALL, "--g": SMALL, "--d": SMALL, "--k": SMALL, "--l": SMALL,
    "--n": st.sampled_from(["8", "6", "4", "2", "1", "0", "-1"]),
    "--n0": st.sampled_from(["1", "2", "0"]),
    "--seed": SMALL, "--attempts": st.sampled_from(["2", "1", "0"]), "--trials": SMALL,
    "--alpha": st.sampled_from(["2", "0.5", "1", "0", "inf", "nan", "-1"]),
    "--p": st.sampled_from(["0.5", "0.3", "0", "1", "1.5"]),
    "--dist": st.sampled_from(["1/2,1/2", "3/4,1/4", "1,0", "1/4,1/4,1/4,1/4", "1/2,1/3",
                               "0,0", "-1/2,3/2", "x"]),
    "--p-seq": st.sampled_from(["1/2,1/2", "1,0", "1/3,2/3", "1", "a"]),
    "--q-seq": st.sampled_from(["1/2,1/2", "1,0", "0,1", "1/2,1/4,1/4", ""]),
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


@st.composite
def cli_argv(draw, directory):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positionals, usual, other = COMMANDS[command]
    argv = [command] + ([draw(st.sampled_from(positionals))] if positionals else [])
    dropped = draw(st.sampled_from((None,) * 4 + usual))  # at times one goes missing
    extra = draw(st.lists(st.sampled_from(other), max_size=5, unique=True))
    for option in [o for o in usual if o != dropped] + extra:
        if option in FLAGS:
            argv.append(option)
        elif option == "--input":
            name = draw(st.sampled_from(sorted(CODE_FILES) + ["missing.txt"]))
            argv += [option, str(directory / name)]
        elif option == "--output":
            argv += [option, str(directory / "out.txt")]
        else:
            argv += [option, draw(OPTION_VALUES[option])]
    return argv


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_random_argv_keeps_the_exit_code_contract(cli_dir, data):
    argv = data.draw(cli_argv(cli_dir), label="argv")
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
