import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qctl

from qctl import (ONE, ZERO, I, J, K, IllConditioned, LeftFraction,
                  ParseError, QPoly, Quaternion, QuatMatrix, StateSpace,
                  place_poles, right_eigenvalues, right_zeros, tf_left)
from qctl.cli import main, parse_roots
from qctl.sim import random_state
from qctl.serialize import (detect, dump_document, fraction_from_doc,
                            load_document, matrix_from_doc, poly_from_doc,
                            quat_from_doc, system_from_doc, to_doc)
import gen

PLANT = StateSpace(QuatMatrix([[ONE, I], [J, K]]),
                   QuatMatrix([[I], [ZERO]]),
                   QuatMatrix([[ONE, ZERO]]),
                   ZERO)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _plant_path(tmp_path):
    return _write(tmp_path, "plant.json", to_doc(PLANT))


def test_serialization_round_trips_bit_exact():
    rng = gen.rng_for(51)
    q = gen.rand_quat(rng)
    assert quat_from_doc(json.loads(json.dumps(to_doc(q)))) == q
    p = gen.rand_poly(rng, 3)
    assert poly_from_doc(json.loads(json.dumps(to_doc(p)))) == p
    m = gen.rand_matrix(rng, 2, 3)
    assert matrix_from_doc(json.loads(json.dumps(to_doc(m)))) == m
    f = tf_left(PLANT)
    f2 = fraction_from_doc(json.loads(json.dumps(to_doc(f))))
    assert f2.kind == "left" and f2.den == f.den and f2.num == f.num
    s2 = system_from_doc(json.loads(json.dumps(to_doc(PLANT))))
    assert s2.F == PLANT.F and s2.G == PLANT.G
    assert s2.H == PLANT.H and s2.J == PLANT.J


def test_detect_layouts():
    assert isinstance(detect([1, 2, 3, 4]), Quaternion)
    assert isinstance(detect([[[1, 2, 3, 4]], [[0, 0, 0, 0]]]), QuatMatrix)
    assert isinstance(detect({"coeffs": [[1, 0, 0, 0]]}), QPoly)
    assert isinstance(detect({"kind": "left",
                              "den": {"coeffs": [[1, 0, 0, 0]]},
                              "num": {"coeffs": [[0, 0, 0, 0]]}}),
                      LeftFraction)
    assert isinstance(detect(to_doc(PLANT)), StateSpace)


def test_detect_rejects_garbage():
    with pytest.raises(ParseError) as info:
        detect({"what": 1}, field="payload")
    assert info.value.field == "payload"
    with pytest.raises(ParseError):
        quat_from_doc([1, 2, 3])
    with pytest.raises(ParseError):
        quat_from_doc([1, 2, 3, True])
    with pytest.raises(ParseError):
        matrix_from_doc([[1, 2, 3, 4], [1, 2, 3]])
    with pytest.raises(ParseError):
        poly_from_doc({"coeffs": "nope"})


def test_load_document_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError) as info:
        load_document(str(bad))
    assert "bad.json" in str(info.value)
    with pytest.raises(OSError):
        load_document(str(tmp_path / "missing.json"))


def test_dump_load_round_trip(tmp_path):
    path = tmp_path / "sys.json"
    dump_document(PLANT, str(path))
    text = path.read_text()
    assert text.endswith("\n")
    loaded = detect(json.loads(text))
    assert isinstance(loaded, StateSpace) and loaded.F == PLANT.F


def test_parse_roots():
    roots = parse_roots("3, 4")
    assert roots == [Quaternion(3.0), Quaternion(4.0)]
    roots = parse_roots("(0, 1, 0, 0), 2.5")
    assert roots == [I, Quaternion(2.5)]
    with pytest.raises(ParseError):
        parse_roots("(1, 2)")
    with pytest.raises(ParseError):
        parse_roots("abc")
    with pytest.raises(ParseError):
        parse_roots("")
    # the finiteness rule of JSON quaternion documents
    for text in ("nan", "inf", "1e400", "(0, nan, 0, 0)", "3, -inf"):
        with pytest.raises(ParseError, match="finite"):
            parse_roots(text)


@pytest.mark.parametrize("roots", ["nan,3", "inf", "1e400", "(0, nan, 0, 0)"])
def test_cli_design_rejects_nonfinite_roots(tmp_path, capsys, roots):
    assert main(["design", "--plant", _plant_path(tmp_path),
                 "--roots", roots]) == 1
    assert "--roots" in capsys.readouterr().err


def test_cli_eig(tmp_path, capsys):
    assert main(["eig", "--system", _plant_path(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1.366" in out and "-0.36603" in out
    assert "1.4142" in out


def test_cli_tf(tmp_path, capsys):
    assert main(["tf", "--system", _plant_path(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "left fraction" in out and "right fraction" in out


def test_cli_zeros(tmp_path, capsys):
    path = _write(tmp_path, "g.json", to_doc(QPoly([12.0, -7.0, 1.0])))
    assert main(["zeros", "--poly", path]) == 0
    out = capsys.readouterr().out
    assert "3" in out and "4" in out


def test_cli_stable_both_verdicts(tmp_path, capsys):
    stable = _write(tmp_path, "s.json", to_doc(QPoly([12.0, -7.0, 1.0])))
    unstable = _write(tmp_path, "u.json", to_doc(QPoly([-0.5, 1.0])))
    assert main(["stable", "--poly", stable]) == 0
    assert "stable: yes" in capsys.readouterr().out
    assert main(["stable", "--poly", unstable]) == 0
    assert "stable: no" in capsys.readouterr().out
    # exactly one input source is accepted
    assert main(["stable", "--poly", stable, "--system",
                 _plant_path(tmp_path)]) == 1
    assert main(["stable"]) == 1


def test_cli_solve_and_design(tmp_path, capsys):
    plant = _plant_path(tmp_path)
    target = _write(tmp_path, "c.json", to_doc(QPoly([12.0, -7.0, 1.0])))
    assert main(["solve", "--plant", plant, "--poly", target]) == 0
    out = capsys.readouterr().out
    assert "residual" in out
    assert main(["design", "--plant", plant, "--roots", "3, 4"]) == 0
    out = capsys.readouterr().out
    assert "stability: PASS" in out
    assert "controller" in out


@pytest.mark.parametrize("seed", [10, 14])
def test_cli_design_reports_unresolved_zeros_and_exits_0(tmp_path, capsys,
                                                          seed):
    # right_zeros cannot resolve these real closed-loop classes yet
    # (ROADMAP item 4); the listing says so and the design still stands
    ss = gen.rand_system(gen.rng_for(seed), 4)
    plant_ss = StateSpace(ss.F, ss.G, ss.H, ZERO)
    plant = _write(tmp_path, "plant.json", to_doc(plant_ss))
    assert main(["design", "--plant", plant,
                 "--roots", "1.5,2.1,2.7,3.3"]) == 0
    out = capsys.readouterr().out
    _, zeros = out.split("closed-loop denominator zeros:\n")
    res = place_poles(plant_ss, parse_roots("1.5,2.1,2.7,3.3"), 1e-9)
    with pytest.raises(IllConditioned) as exc:
        right_zeros(res.t_w.den, 1e-9)
    assert zeros.splitlines()[0] == "  not resolved: " + str(exc.value)
    assert zeros.splitlines()[1].startswith("closed-loop spectrum (")
    assert out.endswith("stability: PASS\n")


@pytest.mark.parametrize("seed, listed", [(1, 11), (7, 11), (2, 12)])
def test_cli_design_says_when_it_lists_fewer_zeros_than_deg_c(
        tmp_path, capsys, seed, listed):
    # at n = 12 the zeros of t_w.den fall short of deg c on seeds 1 and 7
    # (ROADMAP item 1); the listing says so and the design still stands
    n = 12
    plant = _write(tmp_path, "plant.json", to_doc(
        gen.plant_system(gen.rng_for(seed, 100 + n), n)))
    roots = ",".join("(%r,%r,%r,%r)" % q.components() for q in
                     gen.spaced_nonreal(gen.rng_for(seed, 200 + n), n))
    assert main(["design", "--plant", plant, "--roots", roots]) == 0
    out = capsys.readouterr().out
    zeros = out.split("closed-loop denominator zeros:\n")[1].split(
        "closed-loop spectrum (")[0].splitlines()
    assert sum(line.split(":")[0].strip().isdigit() for line in zeros) \
        == listed
    unresolved = [line for line in zeros if "not resolved" in line]
    if listed == n:
        assert unresolved == []
    else:
        assert unresolved == [f"  not resolved: {listed} zeros listed (a "
                              f"sphere counts 2) for deg c = {n}"]
    assert out.endswith("stability: PASS\n")


@pytest.mark.parametrize("seed", range(1, 11))
def test_cli_design_at_20_states_exits_0(tmp_path, capsys, seed):
    # the adjoint mates of these closed loops differ by up to 1e-7
    # (ROADMAP item 4); the spectrum is listed with a warning, not raised
    n = 20
    plant_ss = gen.plant_system(gen.rng_for(seed, 100 + n), n)
    targets = gen.spaced_nonreal(gen.rng_for(seed, 200 + n), n)
    plant = _write(tmp_path, "plant.json", to_doc(plant_ss))
    roots = ",".join("(%r,%r,%r,%r)" % q.components() for q in targets)
    assert main(["design", "--plant", plant, "--roots", roots]) == 0
    out = capsys.readouterr().out
    spectrum = right_eigenvalues(place_poles(plant_ss, targets)
                                 .closed_loop.F)
    listing = out.split("closed-loop spectrum (")[1].splitlines()
    assert listing[0] == f"{2 * n - 1}):"
    assert [line for line in listing if line.startswith("warning: conj")] \
        == [f"warning: {note}" for note in spectrum.warnings]
    assert out.endswith("stability: PASS\n")


def test_cli_design_rejects_double_target(tmp_path):
    plant = _plant_path(tmp_path)
    target = _write(tmp_path, "c.json", to_doc(QPoly([12.0, -7.0, 1.0])))
    assert main(["design", "--plant", plant, "--roots", "3, 4",
                 "--poly", target]) == 1
    assert main(["design", "--plant", plant]) == 1


def test_cli_exit_codes(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["eig", "--system", missing]) == 1
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{oops")
    assert main(["eig", "--system", str(garbage)]) == 1
    # unsolvable equation via raw polynomials sharing a left factor
    # the target lacks (fraction documents would reduce the factor away)
    g = QPoly([1.0, I])
    from qctl import pmul
    pa = _write(tmp_path, "a.json", to_doc(pmul(g, QPoly([1.0, J]))))
    pb = _write(tmp_path, "b.json", to_doc(pmul(g, QPoly([0.0, 0.5]))))
    pc = _write(tmp_path, "c2.json", to_doc(QPoly([0.5])))
    assert main(["solve", "--poly", pa, "--poly", pb, "--poly", pc]) == 2
    assert main(["bogus"]) == 1


def test_cli_rejects_non_finite_components(tmp_path, capsys):
    doc = to_doc(PLANT)
    doc["H"][0][1] = [0.0, float("nan"), 0.0, 0.0]
    path = _write(tmp_path, "nan_sys.json", doc)
    assert main(["simulate", "--system", path, "--steps", "5"]) == 1
    assert f"{path}.H[0][1]" in capsys.readouterr().err
    path = _write(tmp_path, "inf_poly.json",
                  {"coeffs": [[1, 0, 0, 0], [float("inf"), 0, 0, 0]]})
    assert main(["zeros", "--poly", path]) == 1
    assert f"{path}.coeffs[1]" in capsys.readouterr().err
    path = _write(tmp_path, "huge_poly.json",
                  {"coeffs": [[1, 0, 0, 0], [0, 10 ** 400, 0, 0]]})
    assert main(["zeros", "--poly", path]) == 1
    assert f"{path}.coeffs[1]" in capsys.readouterr().err


def test_cli_simulate_csv_svg(tmp_path, capsys):
    plant = _plant_path(tmp_path)
    csv_path = tmp_path / "out.csv"
    svg_path = tmp_path / "out.svg"
    code = main(["simulate", "--system", plant, "--steps", "40",
                 "--seed", "5", "--csv", str(csv_path),
                 "--svg", str(svg_path)])
    assert code == 0
    text = csv_path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "k,yw,yx,yy,yz,ynorm"
    assert len(lines) == 41
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 5
    assert 'width="800"' in svg and 'height="480"' in svg
    # byte determinism on a second run
    csv2 = tmp_path / "out2.csv"
    main(["simulate", "--system", plant, "--steps", "40",
          "--seed", "5", "--csv", str(csv2)])
    assert csv2.read_text() == text


def test_cli_simulate_feedback_loop(tmp_path, capsys):
    plant = _plant_path(tmp_path)
    from qctl import place_poles, realize
    ctrl = realize(place_poles(PLANT, [3.0, 4.0]).controller)
    ctrl_path = _write(tmp_path, "ctrl.json", to_doc(ctrl))
    code = main(["simulate", "--system", plant, "--system", ctrl_path,
                 "--steps", "30", "--seed", "9"])
    assert code == 0
    out = capsys.readouterr().out
    assert "steps" in out and "seed" in out


def test_cli_simulate_diverging_run_exits_2(tmp_path, capsys):
    # the components of (10 + i)^k x0 pass the float range at k = 308
    path = _write(tmp_path, "grow.json", to_doc(StateSpace(
        QuatMatrix([[Quaternion(10.0, 1.0)]]), QuatMatrix([[ONE]]),
        QuatMatrix([[ONE]]), ZERO)))
    csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
    code = main(["simulate", "--system", path, "--steps", "400",
                 "--csv", str(csv_path), "--svg", str(svg_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert "SimulationDiverged" in captured.err
    assert "k=308" in captured.err
    assert captured.out == ""
    assert not csv_path.exists() and not svg_path.exists()
    assert main(["simulate", "--system", path, "--steps", "150"]) == 0
    # |y| passes 1.3e154 at k = 154, where its square overflows, but the
    # run is finite up to k = 307
    assert main(["simulate", "--system", path, "--steps", "308"]) == 0


def test_cli_simulate_large_finite_run_exits_0(tmp_path, capsys):
    # |y(0)| = 1e200 |x0|: its square overflows, its components do not
    path = _write(tmp_path, "large.json", to_doc(StateSpace(
        QuatMatrix([[Quaternion(0.5)]]), QuatMatrix([[ONE]]),
        QuatMatrix([[Quaternion(1e200)]]), ZERO)))
    svg_path = tmp_path / "out.svg"
    assert main(["simulate", "--system", path, "--steps", "3",
                 "--svg", str(svg_path)]) == 0
    out = capsys.readouterr().out
    want = 1e200 * math.hypot(*random_state(1, 0)[0, 0].components())
    peak = float(out.split("peak |y|: ")[1].split()[0])
    final = float(out.split("final |y|: ")[1].split()[0])
    assert abs(peak - want) <= 1e-4 * want
    assert abs(final - 0.25 * want) <= 1e-4 * want
    assert "inf" not in svg_path.read_text()


def _csv_of_process(tmp_path, name, systems):
    """CSV bytes written by a separate `qctl simulate` process."""
    csv_path = tmp_path / name
    argv = [sys.executable, "-m", "qctl.cli", "simulate", "--steps", "200",
            "--seed", "3", "--csv", str(csv_path)]
    for path in systems:
        argv += ["--system", path]
    env = dict(os.environ,
               PYTHONPATH=str(Path(qctl.__file__).resolve().parent.parent))
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return csv_path.read_bytes()


def test_cli_simulate_csv_identical_across_processes(tmp_path):
    from qctl import place_poles, realize
    big = _write(tmp_path, "big.json",
                 to_doc(gen.rand_system(gen.rng_for(61), 16, radius=0.95)))
    plant = _plant_path(tmp_path)
    ctrl = _write(tmp_path, "ctrl.json",
                  to_doc(realize(place_poles(PLANT, [3.0, 4.0]).controller)))
    for systems in ([big], [plant, ctrl]):
        first = _csv_of_process(tmp_path, "a.csv", systems)
        assert first.count(b"\n") == 201
        assert _csv_of_process(tmp_path, "b.csv", systems) == first


def test_cli_digits_flag(tmp_path, capsys):
    plant = _plant_path(tmp_path)
    main(["eig", "--system", plant, "--digits", "3"])
    short = capsys.readouterr().out
    main(["eig", "--system", plant, "--digits", "9"])
    long = capsys.readouterr().out
    assert "1.37" in short and "1.3660254" in long


def test_cli_tol_flag(tmp_path, capsys):
    plant = _plant_path(tmp_path)
    poly = _write(tmp_path, "p.json",
                  to_doc(gen.rand_poly(gen.rng_for(52), 4)))
    for argv in (["eig", "--system", plant], ["tf", "--system", plant],
                 ["zeros", "--poly", poly], ["stable", "--poly", poly],
                 ["design", "--plant", plant, "--roots", "3, 4"]):
        assert main(argv + ["--tol", "0"]) == 1
        assert main(argv + ["--tol", "-1e-9"]) == 1
        assert main(argv + ["--tol", "nan"]) == 1
        assert main(argv + ["--tol", "inf"]) == 1
    capsys.readouterr()
    # without --tol each command runs at its library function's default
    assert main(["zeros", "--poly", poly]) == 0
    default = capsys.readouterr().out
    assert main(["zeros", "--poly", poly, "--tol", "1e-9"]) == 0
    assert capsys.readouterr().out == default
    # a given --tol reaches the library: none is met below 1e-300
    assert main(["tf", "--system", plant, "--tol", "1e-300"]) == 2
    assert "AnnihilatorNotFound" in capsys.readouterr().err


def test_cli_csv_norm_is_the_reported_norm(tmp_path, capsys):
    # |y| = 1e200 |x0| overflows as a square: the CSV and the report
    # share one norm rule
    path = _write(tmp_path, "large.json", to_doc(StateSpace(
        QuatMatrix([[Quaternion(0.5)]]), QuatMatrix([[ONE]]),
        QuatMatrix([[Quaternion(1e200)]]), ZERO)))
    csv_path = tmp_path / "out.csv"
    assert main(["simulate", "--system", path, "--steps", "3",
                 "--csv", str(csv_path), "--digits", "17"]) == 0
    peak = float(capsys.readouterr().out.split("peak |y|: ")[1].split()[0])
    rows = csv_path.read_text().strip().split("\n")[1:]
    norms = [float(row.split(",")[5]) for row in rows]
    assert all(map(math.isfinite, norms))
    assert max(norms) == peak
