import json
import math
import warnings

import numpy as np
import pytest
from oracles import save_sequence_file, write_points_csv

from spiralvis import SequenceSpec, direction_batch, point_batch
from spiralvis import cli
from spiralvis.cli import main
from spiralvis.spirals import CHUNK, write_points_binary


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_generate_row_count(tmp_path, capsys):
    out = tmp_path / "pts.csv"
    code, _ = run(capsys, "generate", "--seq", "golden-angle", "--d", "1",
                  "--n", "5000", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,x0,x1"
    assert len(lines) == 5001  # header + 5000 rows


def test_generate_binary(tmp_path, capsys):
    out = tmp_path / "pts.bin"
    code, _ = run(capsys, "generate", "--n", "64", "--out", str(out))
    assert code == 0
    from spiralvis.spirals import read_points_binary
    d, lo, hi, coords = read_points_binary(out)
    assert (d, lo, hi) == (1, 1, 64)
    assert coords.shape == (64, 2)


def test_generate_binary_bytes(tmp_path, capsys):
    out = tmp_path / "pts.bin"
    code, _ = run(capsys, "generate", "--seq", "fibonacci-sphere", "--d", "2",
                  "--n", "700", "--out", str(out))
    assert code == 0
    _, coords = point_batch(SequenceSpec("fibonacci-sphere", d=2),
                            np.arange(1, 701, dtype=np.int64))
    want = tmp_path / "want.bin"
    write_points_binary(want, 2, 1, 700, coords)
    header = np.array([2, 1, 700], dtype="<i8").tobytes()
    assert out.read_bytes() == want.read_bytes() == header + coords.astype("<f8").tobytes()


@pytest.mark.parametrize("block", [1000, cli.GENERATE_BLOCK])
@pytest.mark.parametrize("kind,d", [("golden-angle", 1), ("fibonacci-sphere", 2)])
def test_streamed_generate_matches_one_shot_dump(tmp_path, capsys, monkeypatch,
                                                 block, kind, d):
    monkeypatch.setattr(cli, "GENERATE_BLOCK", block)
    n = 2 * block + 123  # two full blocks and a partial one
    idx = np.arange(1, n + 1, dtype=np.int64)
    _, coords = point_batch(SequenceSpec(kind, d=d), idx)
    suffixes = (".bin", ".csv") if block < 10_000 else (".bin",)
    for suffix in suffixes:
        out, want = tmp_path / f"got{suffix}", tmp_path / f"want{suffix}"
        code, text = run(capsys, "generate", "--seq", kind, "--d", str(d),
                         "--n", str(n), "--out", str(out))
        assert code == 0
        assert json.loads(text)["points"] == n
        if suffix == ".bin":
            write_points_binary(want, d, 1, n, coords)
        else:
            write_points_csv(want, idx, coords)
        assert out.read_bytes() == want.read_bytes()


def test_cached_parser_leaves_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    calls = [["uniform", "--seq", "rational-ladder", "--eps", "0.2", "--V", "40"],
             ["covering", "--N", "100"],
             ["visible", "--seq", "rational-ladder", "--x", "0,1", "--dir", "1,0",
              "--Tmax", "50"]]
    overrides = [["--t0", "0,3"], ["--m", "0,10"], ["--dir", "0,1"]]
    for argv, extra in zip(calls, overrides):
        run(capsys, *argv, *extra)
        after = [run(capsys, *argv)[1] for _ in range(2)]  # defaults, read twice
        cli.build_parser.cache_clear()
        _, fresh = run(capsys, *argv)
        assert after == [fresh, fresh]


def test_orchard_assert_passes(capsys):
    code, out = run(capsys, "orchard", "--seq", "rational-ladder",
                    "--eps", "0.1", "--V", "125.7", "--assert")
    assert code == 0
    payload = json.loads(out)
    assert payload["reports"][0]["passed"] is True
    assert payload["config"]["subcommand"] == "orchard"


def test_orchard_assert_fails_for_constant(capsys):
    code, out = run(capsys, "orchard", "--seq", "constant", "--v", "1,0",
                    "--eps", "0.2", "--V", "20", "--assert")
    assert code == 1
    assert json.loads(out)["reports"][0]["passed"] is False


def test_failure_without_assert_exits_zero(capsys):
    code, _ = run(capsys, "orchard", "--seq", "constant", "--v", "1,0",
                  "--eps", "0.2", "--V", "20")
    assert code == 0


def test_visible_reports_strip_distance(capsys):
    code, out = run(capsys, "visible", "--seq", "rational-ladder",
                    "--x", "0,1", "--dir", "1,0", "--Tmax", "1e3")
    assert code == 0
    v = json.loads(out)["verdicts"][0]
    assert v["min_distance"] >= 0.999999999
    assert v["certified"] is True


def test_uniform_repeated_t0_is_checked_once(capsys):
    reports = []
    for t0 in ("0,0", "0"):
        code, out = run(capsys, "uniform", "--seq", "golden-angle", "--eps", "0.2",
                        "--V", "25", "--t0", t0)
        assert code == 0
        reports.append(json.loads(out)["reports"])
    assert reports[0] == reports[1]
    assert reports[0][0]["total_checks"] == reports[0][0]["net"]["count"]


def test_uniform_and_covering_and_criterion(capsys):
    code, out = run(capsys, "uniform", "--eps", "0.1", "--V", "50",
                    "--t0", "0,100", "--assert")
    assert code == 0
    code, out = run(capsys, "covering", "--m", "0,1000", "--N", "100,1000")
    assert code == 0
    assert json.loads(out)["estimate"]["uniform_covering_parameter"] < 8.0
    code, out = run(capsys, "criterion", "--eps", "0.2,0.1")
    assert code == 0
    code, out = run(capsys, "defvisi", "--eps", "0.2,0.1",
                    "--x-grid", "1,2,4,8")
    assert code == 0


def test_negative_infinity_is_written_as_minus_inf(capsys):
    from spiralvis.reports import dump_json
    assert dump_json([-math.inf, math.inf, math.nan, np.float64(-math.inf)]) == (
        '[\n  "-inf",\n  "inf",\n  "nan",\n  "-inf"\n]\n')
    # an empty grid, which once left a running maximum at -inf, is refused
    for argv, flag in ((["covering", "--m", ""], "--m"), (["criterion", "--eps", ""], "--eps")):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert f"{flag} needs at least one value" in capsys.readouterr().err


def test_tiny_and_huge_directions_are_normalized(capsys):
    # squared norms that underflow to 0 or overflow to inf
    argv = ["visible", "--seq", "golden-angle", "--x", "0.3,0.1", "--eps-floor", "0.2",
            "--Tmax", "100"]
    for tiny, huge in (("1e-200,0", "1e300,0"), ("3e-170,4e-170", "3e307,4e307")):
        verdicts = []
        for text in (tiny, huge):
            code, out = run(capsys, *argv, "--dir", text)
            assert code == 0
            verdicts.append(json.loads(out)["verdicts"])
        assert verdicts[0] == verdicts[1]
    code, out = run(capsys, "orchard", "--seq", "constant", "--v", "1e-200,0",
                    "--eps", "0.2", "--V", "2")
    assert code == 0
    assert json.loads(out)["reports"][0]["spec"]["params"]["v"] == [1.0, 0.0]


def test_forest_strip_line_fails(capsys):
    angle = repr(math.pi / 2)
    code, out = run(capsys, "forest", "--seq", "rational-ladder",
                    "--eps", "0.5", "--V", "20",
                    "--line", f"1.0,{angle},10,30", "--assert")
    assert code == 1
    assert json.loads(out)["reports"][0]["passed"] is False


def test_delone_payload(capsys):
    code, out = run(capsys, "delone", "--T", "10", "--probe-res", "1.0",
                    "--badness-Q", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["n_points"] == 100
    assert payload["badness"]["value"] > 0.3


def test_puncture_clears_region(tmp_path, capsys):
    out = tmp_path / "punct.csv"
    code, text = run(capsys, "puncture", "--seq", "rational-ladder",
                     "--v0", "0,1", "--delta", "0.5", "--n", "20000",
                     "--out", str(out), "--assert")
    assert code == 0
    payload = json.loads(text)
    assert payload["remaining_in_region"] == 0
    assert payload["redirected"] > 0
    assert len(out.read_text().splitlines()) == 20001


def test_puncture_schedules_run_at_their_own_default_ranges(tmp_path, capsys):
    # factorial once ran geometric's default annuli 4..20, whose small ones
    # have no inner radius under its thicknesses 2^(m+1)
    for schedule, annuli in (("geometric", (4, 20)), ("factorial", (5, 7))):
        code, text = run(capsys, "puncture", "--schedule", schedule, "--n", "1000",
                         "--out", str(tmp_path / "p.bin"))
        assert code == 0
        args = json.loads(text)["config"]["args"]
        assert (args["m_lo"], args["m_hi"]) == annuli
    code, text = run(capsys, "puncture", "--schedule", "factorial", "--m-hi", "6", "--n",
                     "1000", "--out", str(tmp_path / "p.bin"))
    args = json.loads(text)["config"]["args"]
    assert code == 0 and (args["m_lo"], args["m_hi"]) == (5, 6)


def test_puncture_empties_the_last_axis_by_default(tmp_path, capsys):
    # the planar default 0,1 once refused every d=2 sequence. (At d=2 the
    # geometric annuli 2^m are 2*C*2^m thick, so --strip-C must stay below 1/2.)
    for argv, v0 in ((["--seq", "fibonacci-sphere", "--d", "2", "--strip-C", "0.25"], "0,0,1"),
                     (["--seq", "rational-ladder"], "0,1")):
        code, text = run(capsys, "puncture", *argv, "--n", "100",
                         "--out", str(tmp_path / "p.bin"))
        assert code == 0 and json.loads(text)["config"]["args"]["v0"] == v0


def test_puncture_streams_blocks_of_at_most_chunk_points(tmp_path, capsys, monkeypatch):
    sizes, write = [], cli.write_point_blocks

    def sized(blocks):
        for ns, coords in blocks:
            sizes.append(len(coords))
            yield ns, coords

    monkeypatch.setattr(cli, "write_point_blocks", lambda path, d, n_lo, n_hi, blocks:
                        write(path, d, n_lo, n_hi, sized(blocks)))
    code, text = run(capsys, "puncture", "--seq", "golden-angle", "--v0", "1,0",
                     "--n", str(CHUNK + 1000), "--out", str(tmp_path / "p.bin"))
    assert code == 0 and json.loads(text)["redirected"] > 0
    assert sizes == [CHUNK, 1000]


def _one_direction_in_strip(path, count):
    """A ``file`` sequence of ``count`` directions whose u_300 is (1, 0) and
    whose other directions lie at angles in [1, 2*pi - 1], far from (1, 0)."""
    angles = np.linspace(1.0, 2 * math.pi - 1.0, count)
    angles[299] = 0.0
    save_sequence_file(path, np.column_stack([np.cos(angles), np.sin(angles)]))
    return str(path)


def test_puncture_redirect_stops_at_the_file_end(tmp_path, capsys):
    seq = _one_direction_in_strip(tmp_path / "dirs.txt", 600)
    out = tmp_path / "p.csv"
    # u_301 leaves the strip, and no candidate past the last point is read
    code, text = run(capsys, "puncture", "--seq", "file", "--seq-file", seq, "--v0", "1,0",
                     "--delta", "0.5", "--n", "600", "--out", str(out))
    assert code == 0
    payload = json.loads(text)
    assert (payload["redirected"], payload["remaining_in_region"]) == (1, 0)
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    u_301 = direction_batch(SequenceSpec("file", path=seq), [301])[0]
    assert np.array_equal(rows[299], [300, *(math.sqrt(300) * u_301)])
    # with u_300 the file's last point, no candidate is left
    seq = _one_direction_in_strip(tmp_path / "short.txt", 300)
    with pytest.raises(SystemExit) as err:
        main(["puncture", "--seq", "file", "--seq-file", seq, "--v0", "1,0",
              "--delta", "0.5", "--n", "300", "--out", str(out)])
    assert err.value.code == 2
    assert "puncture unresolved for n=300: no replacement within 0 indices" \
        in capsys.readouterr().err


def test_failed_dump_leaves_no_file(tmp_path, capsys):
    seq = _one_direction_in_strip(tmp_path / "dirs.txt", 600)
    for suffix in (".bin", ".csv"):
        for argv in (["generate", "--seq", "file", "--seq-file", seq, "--n", "70000"],
                     ["puncture", "--seq", "constant", "--v", "1,0", "--v0", "1,0",
                      "--n", "100"]):
            out = tmp_path / f"dump{suffix}"
            with pytest.raises(SystemExit) as err:
                main([*argv, "--out", str(out)])
            assert err.value.code == 2
            assert not out.exists(), (argv, suffix)
    assert "index 65536 requested" in capsys.readouterr().err


def test_plot_svg_structure(tmp_path, capsys):
    out = tmp_path / "spiral.svg"
    code, _ = run(capsys, "plot", "--seq", "rational-ladder", "--T", "20",
                  "--strip", "0,2.0", "--out", str(out))
    assert code == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 400  # floor(T^2) points inside the ball
    assert "<rect" in svg


def test_plot_overlay_from_report(tmp_path, capsys):
    report = tmp_path / "rep.json"
    code, out = run(capsys, "orchard", "--seq", "constant", "--v", "1,0",
                    "--eps", "0.2", "--V", "20", "--out", str(report))
    assert code == 0
    svg = tmp_path / "overlay.svg"
    code, _ = run(capsys, "plot", "--seq", "constant", "--v", "1,0",
                  "--T", "10", "--overlay-json", str(report), "--out", str(svg))
    assert code == 0
    assert "<line" in svg.read_text()  # failing directions drawn as rays


def test_plot_overlay_without_spec_exits_2(tmp_path, capsys):
    report = tmp_path / "vis.json"
    code, _ = run(capsys, "visible", "--x", "0,1", "--dir", "1,0", "--Tmax", "20",
                  "--out", str(report))
    assert code == 0
    svg = tmp_path / "overlay.svg"
    with pytest.raises(SystemExit) as err:
        main(["plot", "--T", "10", "--overlay-json", str(report), "--out", str(svg)])
    assert err.value.code == 2
    assert "'spec'" in capsys.readouterr().err
    assert not svg.exists()


def test_plot_overlay_of_sphere_report_exits_2(tmp_path, capsys):
    report = tmp_path / "sphere.json"
    code, _ = run(capsys, "uniform", "--seq", "fibonacci-sphere", "--d", "2",
                  "--eps", "0.2", "--V", "0.5", "--out", str(report))
    assert code == 0
    svg = tmp_path / "overlay.svg"
    with pytest.raises(SystemExit) as err:
        main(["plot", "--T", "10", "--overlay-json", str(report), "--out", str(svg)])
    assert err.value.code == 2
    assert "d=2" in capsys.readouterr().err
    assert not svg.exists()


OVERLAYS = {  # once a traceback, or a message that named no flag
    "witness-without-n": '{"spec": {"kind": "golden-angle", "d": 1}, "witnesses": [{"x": 1}]}',
    "spec-without-kind": '{"spec": {"d": 1}}',
    "report-not-an-object": '{"reports": [5]}',
    "direction-not-a-number": '{"spec": {"kind": "golden-angle", "d": 1}, '
                              '"net": {"count": 8}, "failures": [{"direction": "a"}]}',
    "no-report": '{"reports": []}',
    "witness-index-0": '{"spec": {"kind": "golden-angle", "d": 1}, "witnesses": [{"n": 0}]}',
    # a float index once drew its cross at the truncated index
    "witness-index-float": '{"spec": {"kind": "golden-angle", "d": 1}, '
                           '"witnesses": [{"n": 1.7}]}',
    "not-json": "not json",
    "missing": None,
}


@pytest.mark.parametrize("name", OVERLAYS)
def test_plot_overlay_of_malformed_json_exits_2(tmp_path, capsys, name):
    report = tmp_path / f"{name}.json"
    if OVERLAYS[name] is not None:
        report.write_text(OVERLAYS[name])
    svg = tmp_path / "overlay.svg"
    with pytest.raises(SystemExit) as err:
        main(["plot", "--T", "5", "--overlay-json", str(report), "--out", str(svg)])
    assert err.value.code == 2
    message = capsys.readouterr().err.strip().splitlines()[-1]
    assert message.startswith(f"spiralvis: error: --overlay-json {report}: "), message
    assert not svg.exists()


def test_only_a_file_sequence_overrun_names_seq_file(tmp_path, capsys):
    # an IndexError of the overlay once read as a --seq-file overrun
    report = tmp_path / "empty.json"
    report.write_text('{"reports": []}')
    with pytest.raises(SystemExit) as err:
        main(["plot", "--T", "5", "--overlay-json", str(report), "--out",
              str(tmp_path / "p.svg")])
    assert err.value.code == 2
    message = capsys.readouterr().err.strip().splitlines()[-1]
    assert "--seq-file" not in message and f"--overlay-json {report}: " in message


def test_byte_identical_reports(capsys):
    _, a = run(capsys, "orchard", "--eps", "0.1", "--V", "50", "--seed", "3")
    _, b = run(capsys, "orchard", "--eps", "0.1", "--V", "50", "--seed", "3")
    assert a == b


def test_config_defaults_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": [0.2], "V": [70.0]}))
    code, out = run(capsys, "orchard", "--seq", "rational-ladder",
                    "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["reports"][0]["V"] == 70.0
    code, out = run(capsys, "orchard", "--seq", "rational-ladder",
                    "--config", str(cfg), "--V", "126", "--eps", "0.1")
    assert json.loads(out)["reports"][0]["V"] == 126.0
    # a value is parsed by its flag's own parser, as on the command line
    flags = ["orchard", "--seq", "rational-ladder", "--eps", "0.2", "--V", "70"]
    _, want = run(capsys, *flags)
    for text in ('{"eps": 0.2, "V": 70}', '{"eps": "0.2", "V": [70]}'):
        cfg.write_text(text)
        code, out = run(capsys, "orchard", "--seq", "rational-ladder", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["reports"] == json.loads(want)["reports"]
    # flag spellings, a bare switch, repeated flags and a negative coordinate
    cfg.write_text(json.dumps({"eps-floor": 0.5, "Tmax": 300, "assert": True,
                               "dir": ["1,0", "-1,0.001"], "x": "0,1"}))
    _, want = run(capsys, "visible", "--seq", "rational-ladder", "--x", "0,1",
                  "--dir", "1,0", "--dir=-1,0.001", "--eps-floor", "0.5",
                  "--Tmax", "300", "--assert")
    _, out = run(capsys, "visible", "--seq", "rational-ladder", "--config", str(cfg))
    assert json.loads(out)["verdicts"] == json.loads(want)["verdicts"]
    assert json.loads(out)["config"]["args"]["assert_"] is True


def test_bad_arguments_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["orchard"])  # missing --eps/--V
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["generate", "--n", "10"])  # missing --out
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:  # nothing to write
        main(["generate", "--n", "0", "--out", str(tmp_path / "none.bin")])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:  # nothing to write
        main(["puncture", "--n", "0", "--out", str(tmp_path / "none.csv")])
    assert err.value.code == 2
    assert "--n 0" in capsys.readouterr().err
    for check in ("orchard", "uniform", "forest"):  # nothing to check
        with pytest.raises(SystemExit) as err:
            main([check, "--eps", "", "--V", "5", "--assert"])
        assert err.value.code == 2
        assert "--eps" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        main(["orchard", "--eps", "0.1", "--V", "50", "--d", "3"])  # bad kind/d
    assert err.value.code == 2
    capsys.readouterr()
    for theta in ("inf", "-inf", "nan"):
        with pytest.raises(SystemExit) as err:
            main(["orchard", f"--theta={theta}", "--eps", "0.1", "--V", "50"])
        assert err.value.code == 2
        assert "theta must be finite" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:  # a zero direction has no unit vector
        main(["visible", "--x", "0,1", "--dir", "1,0", "--dir", "0,0", "--Tmax", "50"])
    assert err.value.code == 2
    for argv in (["--T", "inf"], ["--T", "nan"], ["--probe-res", "nan"]):
        with pytest.raises(SystemExit) as err:
            main(["delone", *argv])
        assert err.value.code == 2
    assert "finite" in capsys.readouterr().err
    # probe grids past the int64 bound, and within it but past any machine's
    # memory (1.4e14 probes), fail before a point is read
    for argv in (["--T", "1e300", "--probe-res", "1"], ["--T", "3e5", "--probe-res", "0.05"]):
        with pytest.raises(SystemExit) as err:
            main(["delone", "--seq", "golden-angle", *argv])
        assert err.value.code == 2
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert f"--T {float(argv[1])} and --probe-res {float(argv[3])}" in message
    for argv, problem in (
            # an empty grid: no row, or an argmax outside the grid
            *(([table, f"--{flag}="], f"--{flag} needs at least one value")
              for table, flag in (("covering", "m"), ("covering", "N"), ("criterion", "eps"),
                                  ("criterion", "h-mults"), ("defvisi", "eps"),
                                  ("defvisi", "x-grid"))),
            (["criterion", "--eps", "0"], "--eps"),
            (["criterion", "--eps", "1e-300"], "past the float range"),
            (["criterion", "--eps", "0.1", "--V-power", "1e3"], "arithmetic failed"),
            (["covering", "--C", "inf"], "--C"),
            (["forest", "--eps", "0.5", "--V", "1", "--lines", "1", "--lam-max", "inf"],
             "--lam-max")):  # bad numbers that once ended in a traceback
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert problem in capsys.readouterr().err.strip().splitlines()[-1]
    for argv in (["uniform", "--t0", "1e200", "--V", "5", "--eps", "0.1"],
                 ["forest", "--seq", "golden-angle", "--eps", "0.1", "--V", "44",
                  "--line", "1,0,5000,5044"]):  # no index of the window within budget
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert "past the index budget 10000000" in message
        assert max(map(len, message.split())) < 40  # names no 400-digit index
    with pytest.raises(SystemExit) as err:  # an empty index range is no verdict
        main(["visible", "--seq", "rational-ladder", "--x", "0,1", "--dir", "1,0",
              "--budget", "-3", "--Tmax", "50"])
    assert err.value.code == 2
    assert "--budget" in capsys.readouterr().err
    nan_rows = tmp_path / "nan-rows.txt"
    nan_rows.write_text("0 0 1\nnan 0 1\n")
    three_cols = tmp_path / "three-cols.txt"
    three_cols.write_text("0 0 1\n1 0 0\n")
    for argv, problem in (
            (["visible", "--x", "0,1,2", "--dir", "1,0"], "--x 0,1,2 has 3 coordinates"),
            (["visible", "--x", "0,1", "--dir", "1,0", "--dir", "1"],
             "--dir 1 has 1 coordinates"),
            (["visible", "--seq", "fibonacci-sphere", "--d", "2", "--x", "0,1",
              "--dir", "1,0,0"], "--x 0,1 has 2 coordinates"),
            (["forest", "--seq", "fibonacci-sphere", "--d", "2", "--eps", "0.2",
              "--V", "5", "--lines", "2"], "planar"),
            # non-finite window input, each named in the message
            (["uniform", "--seq", "golden-angle", "--eps", "0.1", "--V", "50",
              "--t0", "nan"], "t0 must be finite"),
            (["uniform", "--seq", "golden-angle", "--eps", "0.1", "--V", "50",
              "--t0", "0,inf"], "t0 must be finite"),
            (["orchard", "--eps", "0.1", "--V", "inf"], "V must be finite"),
            (["forest", "--eps", "0.1", "--V", "20", "--line", "1,nan,10,30"],
             "angle must be finite"),
            (["forest", "--eps", "0.1", "--V", "20", "--line", "nan,0,10,30"],
             "lam must be finite"),
            (["forest", "--eps", "0.1", "--V", "inf", "--lines", "2"],
             "t1 must be finite"),
            # windows whose squared norms overflow, each named in the message
            (["visible", "--seq", "golden-angle", "--x", "0,1", "--dir", "1,0",
              "--eps-floor", "0.1", "--Tmax", "1e160"], "--Tmax 1e+160"),
            (["visible", "--seq", "golden-angle", "--x", "1e300,0", "--dir", "1,0",
              "--eps-floor", "0.1", "--Tmax", "5"], "--x 1e300,0"),
            (["forest", "--seq", "golden-angle", "--eps", "0.1", "--V", "1e300",
              "--line=0,0,0,1e300"], "--line 0,0,0,1e300"),
            # a direction net of 1.3e13 cells cannot be allocated
            (["orchard", "--seq", "golden-angle", "--eps", "1e-6", "--V", "1e6"],
             "needs more memory than is available"),
            # a net mesh eps/(4V) that underflows, and directions with no unit vector
            (["orchard", "--eps", "0.1", "--V", "1e308"], "--eps 0.1 and --V 1e+308"),
            (["orchard", "--seq", "constant", "--d", "2", "--v", "0,0,0", "--eps", "0.2",
              "--V", "2"], "constant direction v [0.0, 0.0, 0.0] cannot be normalized"),
            (["visible", "--x", "0,1", "--dir", "0,0"],
             "cannot normalize a zero or non-finite vector"),
            (["visible", "--x", "0,1", "--dir", "1,nan"],
             "cannot normalize a zero or non-finite vector"),
            (["orchard", "--seq", "constant", "--v", "inf,0", "--eps", "0.2",
              "--V", "2"], "constant direction v [inf, 0.0] cannot be normalized"),
            (["orchard", "--seq", "file", "--d", "2", "--seq-file", str(nan_rows),
              "--eps", "0.2", "--V", "2"], f"{nan_rows}: row 2 (nan 0.0 1.0) cannot be"),
            # argument shapes the checks cannot run on
            (["orchard", "--eps", "0.1,0.2", "--V", "1,2,3"],
             "--eps and --V must have matching lengths"),
            (["forest", "--eps", "0.1", "--V", "20"], "forest needs --line or --lines"),
            (["forest", "--eps", "0.1", "--V", "20", "--line", "1,2,3"],
             "a --line needs lam,angle,t0,t1"),
            (["forest", "--eps", "0.1,0.5", "--V", "44", "--lines", "2"],
             "one --eps and one --V"),
            # input checks of the library, each reached through the CLI
            (["forest", "--eps", "1.5", "--V", "10", "--lines", "2"],
             "eps must lie in (0, 1)"),
            (["covering", "--C", "1e7", "--m", "0", "--N", "100"], "exceeds index budget"),
            (["orchard", "--seq", "constant", "--v", "1,0,0", "--eps", "0.1", "--V", "5"],
             "constant direction has 3 coords"),
            (["plot", "--seq", "fibonacci-sphere", "--d", "2", "--out",
              str(tmp_path / "sphere.svg")], "planar only"),
            (["orchard", "--seq", "file", "--seq-file", str(three_cols), "--eps", "0.2",
              "--V", "2"], "expected 2 columns"),
            # the file's own error, with no puncture flag before it
            (["puncture", "--seq", "file", "--seq-file", str(three_cols), "--n", "2",
              "--out", str(tmp_path / "p.csv")], f"error: {three_cols}: expected 2 columns"),
            (["puncture", "--v0", "0,1,0", "--n", "10", "--out", str(tmp_path / "v0.csv")],
             "v0 has 3 coordinates")):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert problem in capsys.readouterr().err
    puncture = ["puncture", "--n", "2000", "--out", str(tmp_path / "p.csv")]
    big = str(10**19)
    for argv, *problems in (  # once a silent wrong number, or a message naming no flag
            (["covering", "--N", "0,-3"], "--N 0.0 is not a whole number >= 1"),
            (["covering", "--N", "inf"], "--N inf is not a whole number"),
            (["covering", "--N", "nan"], "--N nan is not a whole number"),
            # a window of int(0.5 * 1) = 0 points once read as divergence, radius inf
            (["covering", "--C", "0.5", "--m", "0", "--N", "1,100"],
             "--N 1 is not at least 1/--C", "(--C 0.5)"),
            # the badness of the default --theta, which a ladder never reads
            *((["delone", "--seq", seq, "--d", d, "--T", "5", "--badness-Q", "100"],
               "--badness-Q", f"--seq {seq}")
              for seq, d in (("rational-ladder", "1"), ("fibonacci-sphere", "2"))),
            (["covering", "--m", "-5"], "--m -5.0 is not a whole number >= 0"),
            (["covering", "--m", "1e300"], "--m 1e+300 is not below --budget 10000000"),
            (puncture + ["--delta", "nan"], "--delta nan, ", "delta must be finite and positive"),
            (puncture + ["--v0", "0,0"], "--v0 0,0, ", "cannot normalize a zero or non-finite"),
            (puncture + ["--v0", "0,x"], "--v0 0,x, ", "could not convert string to float"),
            (puncture + ["--m-lo", "5", "--m-hi", "2"], "--m-lo 5, --m-hi 2, ",
             "the schedule holds no annulus"),
            # every replacement stays in the region
            (["puncture", "--seq", "constant", "--v", "1,0", "--v0", "1,0", "--delta", "0.5",
              "--n", "100", "--out", str(tmp_path / "p.csv")],
             "--schedule geometric with --v0 1,0, --delta 0.5, ",
             "puncture unresolved for n=1: no replacement within 100000 indices"),
            (["defvisi", "--eps", "nan"], "--eps nan is not finite and positive"),
            (["defvisi", "--h-cap", "0"], "--x-grid 1 is not below --h-cap 0"),
            (["defvisi", "--x-grid", "inf"], "--x-grid inf is not finite"),
            (["defvisi", "--x-grid", "nan"], "--x-grid nan is not finite"),
            (["criterion", "--h-mults", "inf"], "--h-mults inf is not a whole number"),
            (["plot", "--out", str(tmp_path / "p.svg"), "--T", "nan"],
             "--T nan is not finite and positive"),
            # V(eps) = --V-const * eps^(-power) overflows inside the criterion
            (["criterion", "--eps", "0.1", "--V-power", "1e3"], "arithmetic failed",
             "--V-const 1.0 and --V-power 1000.0: "),
            # ... and only V(eps) names those flags
            (["criterion", "--seq", "fibonacci-sphere", "--d", "2"],
             "error: the covering radius on S^2 needs a resolution"),
            # a window constant K <= 0 measured nothing yet exited 0
            (["criterion", "--K", "-1"], "--K -1.0 is not finite and positive"),
            (["criterion", "--K", "0"], "--K 0.0 is not finite and positive"),
            (["criterion", "--K", "nan"], "--K nan is not finite and positive"),
            (["visible", "--x", "0,1", "--dir", "0,0"], "--dir 0,0: ",
             "cannot normalize a zero or non-finite vector"),
            (["defvisi", "--seq", "fibonacci-sphere", "--d", "2", "--resolution", "nan"],
             "--resolution nan is not finite and positive"),
            (["defvisi", "--seq", "fibonacci-sphere", "--d", "2", "--resolution", "0"],
             "--resolution 0.0 is not finite and positive"),
            (["defvisi", "--seq", "fibonacci-sphere", "--d", "2", "--resolution", "-1"],
             "--resolution -1.0 is not finite and positive"),
            (["covering", "--C", "-1"], "--C -1.0 is not finite and positive"),
            # factorial radii past 170! overflow the float range
            (["puncture", "--n", "20", "--out", str(tmp_path / "p.csv"), "--schedule",
              "factorial", "--m-hi", "2000"], "--schedule factorial with ", "--m-hi 2000, ",
             "outer radii must be finite"),
            # direction nets too large for an index array, rejected before any scan
            (["orchard", "--eps", "0.5", "--V", "1e300"], "--eps 0.5 and --V 1e+300: ",
             "more directions than an int64 array can hold"),
            (["orchard", "--eps", "0.5", "--V", "1e17"], "--eps 0.5 and --V 1e+17: ",
             "more directions than an int64 array can hold"),
            (["orchard", "--seq", "fibonacci-sphere", "--d", "2", "--eps", "0.5", "--V",
              "1e300"], "--eps 0.5 and --V 1e+300: ",
             "more directions than an int64 array can hold"),
            # within the int64 bound, but a net (7.7 TiB) or probe grid past memory
            (["orchard", "--seq", "fibonacci-sphere", "--d", "2", "--eps", "0.5", "--V",
              "1e5"], "needs more memory", "--eps 0.5 and --V 100000.0: "),
            (["delone", "--T", "3e5", "--probe-res", "0.05"], "needs more memory",
             "--T 300000.0 and --probe-res 0.05: "),
            (["forest", "--eps", "0.1", "--V", "44", "--lines", "2", "--lam-max", "-5"],
             "--lam-max -5.0 is not >= 0"),
            (["forest", "--eps", "0.1", "--V", "44", "--lines", "-3"],
             "--lines -3 is not a whole number >= 0"),
            # a forest once checked eps alone, and a probe grid could hold no probe
            *((["forest", "--eps", "0.1", f"--V={V}", "--line", "1,0,0,5", "--assert"],
               f"--eps 0.1 and --V {V}: visibility V must be finite and positive, got {V}")
              for V in ("nan", "inf")),
            (["delone", "--T", "2", "--probe-res", "10"], "--T 2.0 and --probe-res 10.0: ",
             "a probe grid of mesh 10.0 on [-2.0, 2.0]^2 has no point in B(0, 2.0)"),
            (["plot", "--T", "3", "--out", str(tmp_path / "p.svg"), "--marker", "-2"],
             "--marker -2.0 is not finite and positive"),
            (["plot", "--T", "3", "--out", str(tmp_path / "p.svg"), "--marker", "nan"],
             "--marker nan is not finite and positive"),
            # a shaded band of negative, nan or infinite height was written as SVG
            *((["plot", "--T", "3", "--out", str(tmp_path / "p.svg"), f"--strip={strip}"],
               f"--strip {strip} is not two finite values lo,hi with lo < hi")
              for strip in ("3,1", "1,1", "nan,1", "1,inf", "-inf,1", "1", "1,2,3")),
            (["plot", "--T", "3", "--out", str(tmp_path / "p.svg"), "--strip", "0,x"],
             "--strip 0,x: could not convert string to float"),
            # ranges past 2^63 - 1: an OverflowError, or a CSV written without end
            *((["generate", "--n", big, "--budget", big, "--out", str(tmp_path / out)],
               f"--n {big} reaches index {big}, past 2^63 - 1") for out in ("g.bin", "g.csv")),
            (puncture + ["--n", big, "--budget", big], f"--n {big} reaches index {big}, "),
            (["plot", "--T", "1e10", "--budget", big, "--out", str(tmp_path / "p.svg")],
             f"--T 10000000000.0 reaches index {big}, "),
            (["covering", "--m", "0", "--N", big, "--budget", str(10 * int(big))],
             f"the window [1, {big}] reaches index {big}, past 2^63 - 1"),
            # a refused window or ray names its own --line or --dir
            (["forest", "--line", "1,0,0,5", "--line", "1,0,5000,5005", "--eps", "0.1",
              "--V", "5", "--budget", "1000000"],
             "--line 1,0,5000,5005: forest window 1, ", "wholly past the index budget"),
            (["visible", "--x", "3040000000,0", "--dir", "0,1", "--dir", "1,0",
              "--budget", big], "--dir 0,1: the segment from", "past 2^63 - 1"),
            (["visible", "--x", "3037000000,0", "--dir=-1,0", "--dir", "1,0", "--Tmax", "1000",
              "--budget", big], "--dir 1,0: the segment from", "past 2^63 - 1")):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert all(problem in message for problem in problems), message
        assert max(map(len, message.split())) < 40  # names no 301-digit index
    cfg = tmp_path / "cfg.json"
    for text, problem in (
            ('[0.2, 70]', "must hold a JSON object"),
            ('{"eps": [0.2', "Expecting"),
            ('{"epss": [0.2], "V": [70]}', "orchard has no flag 'epss'"),
            ('{"eps-floor": 0.1, "eps": [0.2], "V": [70]}',
             "orchard has no flag 'eps-floor'"),
            ('{"eps": [0.2], "V": ["seventy"]}', "argument --V"),
            (None, "No such file")):
        if text is not None:
            cfg.write_text(text)
        with pytest.raises(SystemExit) as err:
            main(["orchard", "--seq", "rational-ladder",
                  "--config", str(cfg if text is not None else tmp_path / "none.json")])
        assert err.value.code == 2
        assert problem in capsys.readouterr().err


# each subcommand at small valid values, and the numeric flags it reads
SWEPT = [
    (["orchard", "--eps", "0.2", "--V", "5"], ("eps", "V")),
    (["uniform", "--eps", "0.2", "--V", "5", "--t0", "0"], ("eps", "V", "t0")),
    (["forest", "--eps", "0.2", "--V", "5", "--line", "1,0,0,5", "--lam-max", "10"],
     ("eps", "V", "lam-max")),
    (["visible", "--x", "0,1", "--dir", "1,0", "--eps-floor", "0.1", "--Tmax", "50"],
     ("eps-floor", "Tmax")),
    (["delone", "--T", "3", "--probe-res", "0.5"], ("T", "probe-res")),
    (["covering", "--C", "1", "--m", "0", "--N", "10", "--resolution", "0.1"],
     ("C", "m", "N", "resolution")),
    (["criterion", "--V-const", "1", "--V-power", "1", "--K", "1", "--eps", "0.2",
      "--h-mults", "1", "--resolution", "0.1"],
     ("V-const", "V-power", "K", "eps", "h-mults", "resolution")),
    (["defvisi", "--eps", "0.2", "--x-grid", "1", "--h-cap", "4", "--resolution", "0.1"],
     ("eps", "x-grid", "resolution")),
]


@pytest.mark.parametrize("argv", [argv for argv, _ in SWEPT], ids=lambda argv: argv[0])
def test_swept_commands_run_at_their_valid_values(capsys, argv):
    assert main(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv,flag", [(argv, flag) for argv, flags in SWEPT for flag in flags],
                         ids=lambda x: x if isinstance(x, str) else x[0])
def test_non_finite_numeric_flags_exit_2(capsys, argv, flag, value):
    with pytest.raises(SystemExit) as err:
        main([*argv, f"--{flag}={value}"])  # the later value of a flag wins
    assert err.value.code == 2
    capsys.readouterr()



@pytest.mark.parametrize("argv,index", [
    (["visible", "--x", "0.1,0.1", "--dir", "1,0", "--Tmax", "50"], 2520),
    (["orchard", "--eps", "0.5", "--V", "5"], 30),
    (["forest", "--line", "1,0,0,5", "--eps", "0.1", "--V", "5"], 27),
    (["delone", "--T", "5"], 25),
    (["covering"], 100)], ids=lambda x: x[0] if isinstance(x, list) else str(x))
def test_file_sequence_read_past_its_end_names_its_flags(tmp_path, capsys, argv, index):
    # an overrun names the file and the flag that caps the indices read
    seq = tmp_path / "pts3.txt"
    save_sequence_file(seq, np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(SystemExit) as err:
        main([*argv, "--seq", "file", "--seq-file", str(seq)])
    assert err.value.code == 2
    message = capsys.readouterr().err.strip().splitlines()[-1]
    assert message.endswith(f"--seq-file {seq}: sequence file holds 3 points, index "
                            f"{index} requested; --budget caps the indices read")

def test_puncture_overflowing_schedule_warns_nothing(tmp_path, capsys):
    # outer radii 2^m past m = 1023 overflow to inf, which the spec rejects;
    # numpy's overflow warning must not come first (-W error made it a
    # traceback)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for extra in ([], ["--strip-C", "0"]):
            with pytest.raises(SystemExit) as err:
                main(["puncture", "--n", "2000", "--out", str(tmp_path / "p.csv"),
                      "--m-hi", "2000", *extra])
            assert err.value.code == 2
            message = capsys.readouterr().err.strip().splitlines()[-1]
            assert "--m-hi 2000" in message and "outer radii must be finite" in message


def test_environment_thread_cap(monkeypatch):
    from spiralvis._par import thread_count
    monkeypatch.setenv("SPIRAL_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("SPIRAL_THREADS", "")
    assert thread_count() >= 1
