import gc
import json
import sys
import threading
import weakref

import numpy as np
import pytest

from contactstat import cli
from contactstat.cli import main, run
from contactstat.fixtures import fixture_doc
from contactstat.sampling import sample_box
from contactstat.specfile import from_doc, load_spec


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_passing_suites_exit_zero(self, capsys):
        code, out, err = invoke(capsys, "check", "--spec", "fix-s3",
                                "--suites", "ambient")
        assert code == 0
        assert "overall: PASS" in out

    def test_failing_records_exit_one(self, capsys):
        code, out, err = invoke(capsys, "check", "--spec",
                                "paper-r7-euclidean", "--suites",
                                "ambient,contact,submanifold,cr,product")
        assert code == 1
        assert "overall: FAIL" in out
        # the almost-contact, statistical and CR structure records pass while
        # the Sasakian-specific ones fail, exactly as documented
        assert "xi-derivative" in out

    def test_missing_submanifold_block_exit_two(self, capsys):
        code, out, err = invoke(capsys, "check", "--spec", "fix-s3",
                                "--suites", "cr")
        assert code == 2
        assert "submanifold block" in err

    def test_malformed_spec_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = invoke(capsys, "check", "--spec", str(bad))
        assert code == 2
        assert "bad.json:1" in err

    def test_located_diagnostic_for_bad_expression(self, tmp_path, capsys):
        doc = fixture_doc("fix-s3")
        doc["ambient"]["eta"][0] = "x9 +"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path))
        assert code == 2
        assert "ambient.eta[0]" in err

    def test_non_ascii_digit_in_an_expression_exit_two(self, tmp_path,
                                                       capsys):
        doc = fixture_doc("fix-s3")
        doc["ambient"]["metric"]["1 1"] = "1 + x2\u00b2"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path))
        assert code == 2
        assert err == (f"error: {path}.ambient.metric['1 1']: unexpected "
                       "character '\u00b2' (offset 6)\n")

    def test_repeated_key_exit_two(self, tmp_path, capsys):
        # json.loads alone would keep the second "3 3" and pass the suite
        text = json.dumps(fixture_doc("fix-s3"))
        assert text.count('"3 3": "1/4"') == 1
        path = tmp_path / "spec.json"
        path.write_text(text.replace('"3 3": "1/4"',
                                     '"3 3": "1/4", "3 3": "5"'))
        code, out, err = invoke(capsys, "check", "--spec", str(path),
                                "--suites", "ambient")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: key '3 3' repeated in one object\n"

    def test_two_keys_for_one_entry_exit_two(self, tmp_path, capsys):
        doc = fixture_doc("fix-s3")
        doc["ambient"]["metric"]["1  1"] = "5"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path),
                                "--suites", "ambient")
        assert (code, out) == (2, "")
        assert err == (f"error: {path}.ambient.metric['1  1']: same entry "
                       "as key '1 1'\n")

    def test_unknown_suite_exit_two(self, capsys):
        code, out, err = invoke(capsys, "check", "--spec", "fix-s3",
                                "--suites", "bogus")
        assert code == 2

    def test_unknown_fixture_dump_exit_two(self, capsys):
        code, out, err = invoke(capsys, "fixtures", "dump", "nope")
        assert code == 2

    def test_singular_constant_metric_exit_two(self, tmp_path, capsys):
        doc = fixture_doc("fix-s3")
        doc["ambient"]["metric"] = {"1 1": "1", "2 2": "1"}
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path))
        assert code == 2
        assert err.startswith("error: ")
        assert "ambient.metric" in err
        assert "singular near point [0.0, 0.0, 0.0]" in err
        assert "Traceback" not in err

    def test_empty_d_exit_two(self, tmp_path, capsys):
        # a contact CR structure has xi in D, so D cannot be empty
        doc = fixture_doc("fix-cr5")
        sub = doc["submanifold"]
        sub["Dperp"] = sub["D"] + sub["Dperp"]
        sub["D"] = []
        path = tmp_path / "empty-d.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path),
                                "--samples", "8")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert f"{path}.submanifold.D: at least one generator required" in err
        assert "Traceback" not in err

    def test_no_generators_leave_out_the_cr_suites(self, tmp_path, capsys):
        # a submanifold block without D or Dperp has no CR structure to check
        doc = fixture_doc("fix-cr5")
        del doc["submanifold"]["D"], doc["submanifold"]["Dperp"]
        path = tmp_path / "no-gens.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path),
                                "--samples", "8", "--format", "structured")
        assert code in (0, 1)
        assert err == ""
        assert list(json.loads(out)["suites"]) == ["ambient", "contact",
                                                   "submanifold"]
        for suites in ("cr", "product", "submanifold,product"):
            code, out, err = invoke(capsys, "check", "--spec", str(path),
                                    "--samples", "8", "--suites", suites)
            assert code == 2
            assert out == ""
            wanted = suites.split(",")[-1]
            assert err == (f"error: suite {wanted!r} requires submanifold D "
                           "generators\n")

    def test_metric_never_positive_definite_exit_two(self, tmp_path, capsys):
        doc = fixture_doc("fix-s3")
        doc["ambient"]["metric"]["1 1"] = "-1 - x1^2"
        path = tmp_path / "indefinite.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path))
        assert code == 2
        assert err.startswith("error: sampling.box: ")
        assert "stuck at point" in err

    @pytest.mark.parametrize("name", ["paper-r7-euclidean", "fix-s3"])
    def test_non_finite_metric_entry_exit_two(self, tmp_path, capsys, name):
        # a constant metric is inverted while the spec loads, a varying one
        # is first evaluated by the sampler; both stop at one located line
        doc = fixture_doc(name)
        doc["ambient"]["metric"]["1 1"] = "sqrt(-1)"
        path = tmp_path / "metric.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path),
                                "--samples", "8", "--format", "structured")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        if name == "fix-s3":
            assert err.startswith("error: sampling.box: ")
            assert "stuck at point [" in err
        else:
            assert err == (f"error: {path}.ambient.metric: non-finite "
                           "result: sqrt(-1.0)\n")


class TestBadValues:
    @pytest.mark.parametrize("flag,value", [
        ("--samples", "0"), ("--samples", "-3"), ("--seed", "-1"),
        ("--tol", "-1"), ("--tol", "0"), ("--tol", "nan"), ("--tol", "inf")])
    def test_flag_out_of_range_exit_two(self, capsys, flag, value):
        code, out, err = invoke(capsys, "check", "--spec", "fix-s3",
                                "--suites", "ambient", flag, value)
        assert code == 2
        assert out == ""
        assert f"argument {flag}: expected a" in err
        assert "not positive definite" not in err

    @pytest.mark.parametrize("sampling,key", [
        ({"seed": -5}, "sampling.seed"),
        ({"seed": True}, "sampling.seed"),
        ({"count": 0}, "sampling.count"),
        ({"count": True}, "sampling.count"),
        ({"box": [-1e308, 1e308]}, "sampling.box"),
        ({"box": [float("-inf"), 1.0]}, "sampling.box"),
        ({"box": [False, True]}, "sampling.box"),
        ({"mode": "points", "ambient": [["a", 0, 0]]}, "sampling.ambient"),
        ({"mode": "points", "ambient": [[0, 0], [0, 0, 0]]},
         "sampling.ambient"),
        ({"mode": "points", "ambient": [[0, 0, float("nan")]]},
         "sampling.ambient"),
        ({"mode": "points", "ambient": [[True, "0.5", 1e-1]]},
         "sampling.ambient")])
    def test_spec_sampling_out_of_range_exit_two(self, tmp_path, capsys,
                                                 sampling, key):
        doc = fixture_doc("fix-s3")
        doc["sampling"] = sampling
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}.{key}: ")
        assert "Traceback" not in err

    def test_spec_domain_point_not_a_number_exit_two(self, tmp_path,
                                                     capsys):
        # a numeric string and JSON's false were read as 0.1 and 0.0
        doc = fixture_doc("fix-cr5")
        doc["sampling"] = {"mode": "points",
                           "domain": [["0.1", 0.2, False, 0.3]]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path),
                                "--suites", "submanifold")
        assert (code, out) == (2, "")
        assert err == (f"error: {path}.sampling.domain: expected a non-empty "
                       "list of 4-vectors of numbers\n")

    @pytest.mark.parametrize("name", [["a list"], 7, None])
    def test_spec_name_not_a_string_exit_two(self, tmp_path, capsys, name):
        doc = fixture_doc("fix-s3")
        doc["name"] = name
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}.name: expected a string\n"

    @pytest.mark.parametrize("value", [-1, 0, float("nan"), float("inf"),
                                       True])
    def test_spec_tolerance_out_of_range_exit_two(self, tmp_path, capsys,
                                                  value):
        doc = fixture_doc("fix-s3")
        doc["tolerance"] = {"ambient": value}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path))
        assert code == 2
        assert err == (f"error: {path}.tolerance.ambient: finite positive "
                       "number required\n")


    @pytest.mark.parametrize("value", ["nan", "inf", 1e999, True, "1.5"])
    def test_spec_lambda_not_a_finite_number_exit_two(self, tmp_path, capsys,
                                                      value):
        doc = fixture_doc("fix-s3")
        doc["ambient"]["K"] = {"lambda": value}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: {path}.ambient.K.lambda: finite number "
                       "required\n")

    @pytest.mark.parametrize("block,message", [
        ("ambient", "positive integer required"),
        ("submanifold", "integer in 1..5 required")])
    def test_spec_dimension_true_exit_two(self, tmp_path, capsys, block,
                                          message):
        # JSON's true is a Python int, and was read as dimension 1
        doc = fixture_doc("fix-cr5")
        doc[block]["dim"] = True
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}.{block}.dim: {message}\n"


class TestEnginePreconditions:
    def test_domain_error_becomes_failed_record(self, tmp_path, capsys,
                                                monkeypatch):
        # sqrt(x1) leaves its domain on the default box [-1, 1]
        from contactstat.submanifold import MapGeometry

        builds = []
        build = MapGeometry._build

        def counted(self, points):
            builds.append(len(points))
            return build(self, points)

        monkeypatch.setattr(MapGeometry, "_build", counted)
        doc = fixture_doc("fix-cr5")
        doc["submanifold"]["embedding"][0] = "sqrt(x1)"
        path = tmp_path / "sqrt.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path),
                                "--samples", "8", "--format", "structured")
        assert code == 1
        assert err == ""
        doc = json.loads(out)
        assert doc["suites"]["ambient"]["passed"]
        pts = sample_box(4, count=8, seed=42).points
        first = pts[pts[:, 0] < 0][0]
        for suite in ("submanifold", "cr", "product"):
            for check in doc["suites"][suite]["checks"]:
                [rec] = check["records"]
                assert rec["name"] == "engine-precondition"
                assert rec["status"] == "FAIL"
                assert rec["note"] == ("DomainError: non-finite result: "
                                       f"sqrt(x1) at domain point "
                                       f"{first.tolist()}")
        # the ten checks share one failed build of the sample set
        assert builds == [8]

    def test_image_overflow_past_the_first_sample_is_reported(
            self, tmp_path, capsys):
        # an affine embedding whose image overflows at some domain points
        # but not at the first one: every point must still be evaluated
        doc = fixture_doc("paper-r7-euclidean")
        doc["submanifold"]["embedding"][6] = "10*x5"
        doc["sampling"]["box"] = [-1.0, 1e308]
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path),
                                "--seed", "42", "--samples", "64",
                                "--format", "structured")
        assert code == 1
        assert err == ""
        pts = sample_box(5, count=64, seed=42, box=(-1.0, 1e308)).points
        overflows = pts[:, 4] > np.finfo(float).max / 10.0
        assert not overflows[0]
        first = pts[overflows][0]
        rep = json.loads(out)
        assert rep["suites"]["ambient"]["passed"]
        notes = [rec["note"] for suite in rep["suites"].values()
                 for check in suite["checks"] for rec in check["records"]
                 if rec["name"] == "engine-precondition"]
        assert notes == [("DomainError: non-finite result: 10.0*x5 at domain "
                          f"point {first.tolist()}")] * 10

    def test_frame_overflow_names_the_domain_point(self, tmp_path, capsys):
        # a tangent vector of length 1e300 overflows the frame's Gram
        # matrix; the failure names a point and no warning reaches stderr
        doc = fixture_doc("paper-r7-euclidean")
        doc["submanifold"]["embedding"][2] = "x3+x4*1e300"
        path = tmp_path / "long-frame.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path),
                                "--format", "structured")
        assert code == 1
        assert err == ""
        first = sample_box(5, count=64, seed=42).points[0]
        rep = json.loads(out)
        notes = [rec["note"] for suite in rep["suites"].values()
                 for check in suite["checks"] for rec in check["records"]
                 if rec["name"] == "engine-precondition"]
        assert notes == [("GeometryError: tangent/normal orthogonality "
                          "defect 7.07e+299 at domain point "
                          f"{first.tolist()}")] * 10

    def test_constant_entry_outside_its_domain_fails_every_reader(
            self, tmp_path, capsys):
        # the constant xi grid fails to compile in every check that reads
        # it, or K = lambda eta (x) eta (x) xi, not only in the first one;
        # a constant entry fails at every point, so the note names the
        # first sample of the set the check reads
        doc = fixture_doc("paper-r7-euclidean")
        doc["ambient"]["xi"][6] = "sqrt(-1)+1"
        path = tmp_path / "xi.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path),
                                "--samples", "8", "--format", "structured")
        assert code == 1
        assert err == ""
        rep = json.loads(out)
        first = {check["check"]: check["records"][0]
                 for suite in rep["suites"].values()
                 for check in suite["checks"]}
        assert len(first) == 15
        assert [name for name, rec in first.items()
                if rec["name"] != "engine-precondition"] == ["contact-metric"]
        ambient = sample_box(7, count=8, seed=42).points[0].tolist()
        domain = sample_box(5, count=8, seed=42).points[0].tolist()
        # K's entries eta_i eta_j xi_7 keep their zero factors, since xi_7
        # is not finite
        assert first["statistical"]["note"] == (
            "DomainError: non-finite result: 0.0*(sqrt(-1.0)+1.0) "
            f"at domain point {ambient}")
        assert {rec["note"] for name, rec in first.items()
                if name in ("almost-contact", "sasakian",
                            "sasakian-statistical")} == {
            f"DomainError: non-finite result: sqrt(-1.0)+1.0 at domain point "
            f"{ambient}"}
        assert {rec["note"] for name, rec in first.items()
                if name not in ("statistical", "almost-contact",
                                "contact-metric", "sasakian",
                                "sasakian-statistical")} == {
            f"DomainError: non-finite result: sqrt(-1.0)+1.0 at domain point "
            f"{domain}"}

    def test_constant_generator_outside_its_domain_names_the_point(
            self, tmp_path, capsys):
        doc = fixture_doc("paper-r7-euclidean")
        doc["submanifold"]["D"][2][4] = "sqrt(-1)+1"
        path = tmp_path / "d3.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path),
                                "--samples", "8", "--format", "structured")
        assert code == 1
        assert err == ""
        rep = json.loads(out)
        notes = [check["records"][0]["note"] for suite in ("cr", "product")
                 for check in rep["suites"][suite]["checks"]]
        first = sample_box(5, count=8, seed=42).points[0]
        assert notes == 7 * [("DomainError: non-finite result: "
                              "sqrt(-1.0)+1.0 at domain point "
                              f"{first.tolist()}")]

    @pytest.mark.parametrize("name,block,key,index,text", [
        ("paper-r7-euclidean", "ambient", "xi", 6, "1/0"),
        ("fix-cr5", "submanifold", "embedding", 0, "x1+1/0*0")])
    def test_division_by_a_literal_zero_is_a_domain_error(
            self, tmp_path, capsys, name, block, key, index, text):
        # substituting the embedding leaves the quotient unfolded, so it
        # reaches the domain policy instead of raising while the shared
        # geometry is built
        doc = fixture_doc(name)
        doc[block][key][index] = text
        path = tmp_path / "div0.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path),
                                "--samples", "8", "--format", "structured")
        assert code == 1
        assert err == ""
        rep = json.loads(out)
        notes = {rec["note"] for suite in rep["suites"].values()
                 for check in suite["checks"] for rec in check["records"]
                 if rec["name"] == "engine-precondition"}
        if key == "xi":
            # a constant entry is named at the first sample of the set
            # that the check reads, ambient or domain
            ambient, domain = (sample_box(d, count=8, seed=42).points[0]
                               for d in (7, 5))
            assert notes == {
                f"DomainError: non-finite result: {expr} at domain point "
                f"{point.tolist()}"
                for expr, point in (("0.0*(1.0/0.0)", ambient),
                                    ("1.0/0.0", ambient),
                                    ("1.0/0.0", domain))}
        else:
            # the image x1+1/0*0 is NaN at every point, and its grid comes
            # before the Jacobian's, the constant 1+(0/0*0+1/0*0) that fails
            # to compile
            first = sample_box(4, count=8, seed=42).points[0]
            assert notes == {("DomainError: non-finite result: "
                              "x1+1.0/0.0*0.0 at domain point "
                              f"{first.tolist()}")}

    def test_floating_point_warnings_stay_off_stderr(self, tmp_path, capsys):
        # the ambient K = eta (x) eta (x) xi carries 1/0 into the
        # statistical residuals, which keep the NaN as their worst value
        doc = fixture_doc("fix-s3")
        doc["ambient"]["xi"][2] = "1/0"
        path = tmp_path / "xi.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path),
                                "--samples", "8", "--format", "structured")
        assert code == 1
        assert err == ""
        [stat] = json.loads(out)["suites"]["ambient"]["checks"]
        assert not stat["passed"]

    def test_floating_point_warnings_stay_off_stderr_in_blocks(
            self, tmp_path, capsys, monkeypatch):
        # the same spec above one block: the blocks run on pool threads,
        # where the caller's np.errstate must hold too, or the NaN would
        # warn (and the warning, an error under this suite, escape)
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        doc = fixture_doc("fix-s3")
        doc["ambient"]["xi"][2] = "1/0"
        path = tmp_path / "xi.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path),
                                "--samples", str(cli.BLOCK + 76),
                                "--format", "structured")
        assert code == 1
        assert err == ""
        [stat] = json.loads(out)["suites"]["ambient"]["checks"]
        assert not stat["passed"]

    @pytest.mark.parametrize("comp,at", [
        ("x1/1e200", ("embedding", 0)),
        ("x1+2^1100*0", ("embedding", 0)),
        ("1+x1/1e200", ("D", 0))])
    def test_an_overflowing_constant_power_is_no_traceback(
            self, tmp_path, capsys, comp, at):
        # folding a constant power past the float range gives inf, as the
        # float product and quotient do, where Python's ** would raise
        doc = fixture_doc("fix-cr5")
        key, i = at
        if key == "D":
            doc["submanifold"]["D"][i] = [comp, "0", "0", "0"]
        else:
            doc["submanifold"]["embedding"][i] = comp
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path),
                                "--samples", "8", "--format", "structured")
        assert code in (1, 2)
        assert "Traceback" not in err and "OverflowError" not in out + err

    def test_dependent_generators_name_the_distribution_and_point(
            self, tmp_path, capsys):
        doc = fixture_doc("fix-cr5")
        doc["submanifold"]["D"][2] = doc["submanifold"]["D"][0]
        path = tmp_path / "dependent.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path),
                                "--samples", "8", "--format", "structured")
        assert code == 1
        assert err == ""
        first = sample_box(4, count=8, seed=42).points[0]
        doc = json.loads(out)
        checks = [c for suite in ("cr", "product")
                  for c in doc["suites"][suite]["checks"]]
        assert len(checks) == 7
        for check in checks:
            [rec] = check["records"]
            assert rec["name"] == "engine-precondition"
            assert rec["note"] == ("GeometryError: D generators are linearly "
                                   "dependent at domain point "
                                   f"{first.tolist()}")

    def test_classifier_runs_once_per_cr_suite(self, monkeypatch, capsys):
        import contactstat.cli as cli
        import contactstat.crchecks as crchecks

        calls = []
        classify = crchecks.classify_geodesic

        def counted(*args, **kwargs):
            calls.append(args)
            return classify(*args, **kwargs)

        monkeypatch.setattr(crchecks, "classify_geodesic", counted)
        monkeypatch.setattr(cli, "classify_geodesic", counted)
        code, out, _ = invoke(capsys, "check", "--spec", "fix-cr5",
                              "--suites", "cr", "--samples", "4",
                              "--format", "structured")
        assert code == 1
        assert len(calls) == 1
        [mixed] = [c for c in json.loads(out)["suites"]["cr"]["checks"]
                   if c["check"] == "mixed-geodesic-consequences"]
        assert mixed["census"]["mixed-geodesic"] is False


class TestBlocks:
    def test_no_pool_thread_outlives_the_call(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        before = threading.active_count()
        code, out, err = invoke(capsys, "check", "--spec", "fix-s3",
                                "--suites", "ambient,contact", "--samples",
                                str(2 * cli.BLOCK + 1))
        # fix-s3 fails the no-half d-eta convention by design
        assert (code, err) == (1, "")
        assert threading.active_count() == before

    def test_reports_do_not_depend_on_the_cpu_count(self, capsys,
                                                    monkeypatch):
        argv = ["check", "--spec", "sasaki-r7-cr", "--suites",
                "ambient,contact", "--samples", str(cli.BLOCK + 100),
                "--format", "structured"]
        outputs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(cli, "_cpus", lambda: cpus)
            outputs.append(invoke(capsys, *argv))
        assert outputs[0][0] == 1
        assert outputs[1:] == outputs[:1] * 2


class TestConnectionBatch:
    """The ambient and contact checks of one sample set, or of one block of
    it, share one connection batch (geometry.StatTriple.connections)."""

    @pytest.mark.parametrize("samples,blocks", [(64, 1), (3000, 3)])
    def test_one_levi_civita_build_per_set_or_block(
            self, capsys, monkeypatch, samples, blocks):
        from contactstat import geometry

        builds = []
        levi_civita = geometry.levi_civita

        def counted(g, points):
            builds.append(len(points))
            return levi_civita(g, points)

        monkeypatch.setattr(geometry, "levi_civita", counted)
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        code, out, err = invoke(capsys, "check", "--spec", "sasaki-r7-cr",
                                "--suites", "ambient,contact", "--samples",
                                str(samples), "--format", "structured")
        # sasaki-r7-cr fails the no-half d-eta convention by design
        assert (code, err) == (1, "")
        assert sorted(builds) == sorted(
            min(cli.BLOCK, samples - a) for a in range(0, samples, cli.BLOCK))
        assert len(builds) == blocks

    @pytest.mark.parametrize("count,at", [(8, 3), (cli.BLOCK + 76, 0),
                                          (cli.BLOCK + 76, cli.BLOCK + 10)])
    def test_a_singular_metric_fails_every_reader_of_the_batch(
            self, tmp_path, capsys, monkeypatch, count, at):
        # g_22 = x1^2/4 is singular at the one listed point with x1 = 0
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        doc = fixture_doc("fix-s3")
        doc["ambient"]["metric"]["2 2"] = "x1^2/4"
        pts = np.random.default_rng(count).uniform(0.1, 1.0, size=(count, 3))
        pts[at, 0] = 0.0
        doc["sampling"] = {"mode": "points", "ambient": pts.tolist()}
        path = tmp_path / "singular-point.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--spec", str(path),
                                "--suites", "ambient,contact",
                                "--format", "structured")
        assert (code, err) == (1, "")
        suites = json.loads(out)["suites"]
        checks = {c["check"]: c for suite in ("ambient", "contact")
                  for c in suites[suite]["checks"]}
        for name in ("statistical", "sasakian", "sasakian-statistical"):
            [rec] = checks[name]["records"]
            assert rec["name"] == "engine-precondition"
            assert rec["note"] == ("SingularMetricError: metric is singular "
                                   f"near point {pts[at].tolist()}")
        # the two checks that do not read the batch keep their records
        for name in ("almost-contact", "contact-metric"):
            assert "engine-precondition" not in [
                r["name"] for r in checks[name]["records"]]

    def test_no_batch_outlives_its_set(self, monkeypatch):
        # the ambient set's batch is freed once its checks are done, before
        # the first domain check runs, and no reference cycle holds it
        from contactstat.geometry import StatTriple

        batches, alive = [], []
        connections = StatTriple.connections
        gauss_weingarten = cli.check_gauss_weingarten

        def kept(st, samples):
            batch = connections(st, samples)
            batches.extend(weakref.ref(a) for a in batch)
            return batch

        def first_domain_check(mg, samples, tol):
            alive.extend(ref() is not None for ref in batches)
            return gauss_weingarten(mg, samples, tol)

        monkeypatch.setattr(StatTriple, "connections", kept)
        monkeypatch.setattr(cli, "check_gauss_weingarten", first_domain_check)
        gc.disable()
        try:
            run(load_spec("sasaki-r7-cr"), ["ambient", "contact",
                                            "submanifold"], count=16)
        finally:
            gc.enable()
        # statistical and sasakian-statistical read the batch
        assert len(batches) == 6
        assert alive == [False] * 6

    def test_no_block_outlives_a_failed_build(self, monkeypatch):
        # a block whose connection build fails keeps the input error in its
        # memo, and the error's traceback holds the block; the block must
        # still go when its checks are done, with the collector off
        from contactstat.geometry import (ConnField, MetricField,
                                          StatTriple, check_statistical)
        from contactstat.sampling import Samples

        g = MetricField(3, {(0, 0): "x1^2", (1, 1): "1", (2, 2): "1"})
        st = StatTriple(g, ConnField.flat(3))
        pts = np.random.default_rng(5).uniform(0.1, 1.0,
                                               size=(cli.BLOCK + 1, 3))
        pts[7, 0] = 0.0  # singular in the first block
        samples = Samples(pts)
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        gc.collect()
        gc.disable()
        try:
            before = [o for o in gc.get_objects() if isinstance(o, Samples)]
            [rep] = cli._check_set(
                [("statistical", lambda s: check_statistical(st, s))],
                samples)
            blocks = [o for o in gc.get_objects() if isinstance(o, Samples)
                      and not any(o is b for b in before)]
        finally:
            gc.enable()
        assert rep.records[0].note.startswith("SingularMetricError")
        assert blocks == []


class TestCheckLookup:
    def test_run_calls_the_checks_bound_in_cli(self, monkeypatch):
        # the benchmark's tracer times each check by rebinding its name in
        # the cli module, so run() must look the checks up there
        import contactstat.cli as cli

        calls = []

        def counting(name, check):
            def counted(*args, **kwargs):
                calls.append(name)
                return check(*args, **kwargs)
            return counted

        names = ("check_gauss_weingarten",
                 "check_mixed_geodesic_consequences", "check_cr_product")
        for name in names:
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        spec = from_doc(fixture_doc("fix-cr5"))
        run(spec, "auto", count=4)
        assert calls == list(names)


class TestDeterminism:
    def test_structured_reports_byte_identical(self, capsys):
        args = ("check", "--spec", "fix-cr5", "--suites", "ambient,contact",
                "--seed", "7", "--format", "structured")
        code1, out1, _ = invoke(capsys, *args)
        code2, out2, _ = invoke(capsys, *args)
        assert code1 == code2
        assert out1 == out2

    def test_text_reports_byte_identical(self, capsys):
        args = ("check", "--spec", "paper-r7-euclidean", "--suites",
                "ambient", "--format", "text")
        _, out1, _ = invoke(capsys, *args)
        _, out2, _ = invoke(capsys, *args)
        assert out1 == out2

    def test_seed_changes_witnesses_not_verdicts(self, capsys):
        a = invoke(capsys, "check", "--spec", "fix-s3", "--suites", "ambient",
                   "--seed", "1", "--format", "structured")
        b = invoke(capsys, "check", "--spec", "fix-s3", "--suites", "ambient",
                   "--seed", "2", "--format", "structured")
        assert a[0] == b[0] == 0
        da, db = json.loads(a[1]), json.loads(b[1])
        assert da["overall"] == db["overall"] == "PASS"
        assert da["sampling"]["seed"] == 1
        assert db["sampling"]["seed"] == 2


class TestStructuredOutput:
    def test_document_shape(self, capsys):
        code, out, _ = invoke(capsys, "check", "--spec", "fix-cr5",
                              "--format", "structured")
        doc = json.loads(out)
        assert doc["tool"]["name"] == "contactstat"
        assert set(doc["suites"]) == {"ambient", "contact", "submanifold",
                                      "cr", "product"}
        assert len(doc["input"]["digest"]) == 64
        for suite in doc["suites"].values():
            for check in suite["checks"]:
                for rec in check["records"]:
                    assert rec["status"] in ("PASS", "FAIL", "INFO")
                    assert "identity" in rec

    def test_every_record_names_its_identity(self, capsys):
        code, out, _ = invoke(capsys, "check", "--spec",
                              "paper-r7-euclidean", "--format", "structured")
        doc = json.loads(out)
        for suite in doc["suites"].values():
            for check in suite["checks"]:
                for rec in check["records"]:
                    assert rec["identity"].strip()


class TestFixturesSubcommands:
    def test_list(self, capsys):
        code, out, _ = invoke(capsys, "fixtures", "list")
        assert code == 0
        assert "paper-r7-euclidean" in out
        assert "fix-cr5" in out

    def test_dump_round_trips_through_check(self, tmp_path, capsys):
        code, out, _ = invoke(capsys, "fixtures", "dump", "fix-s3")
        assert code == 0
        path = tmp_path / "dumped.json"
        path.write_text(out)
        code, out2, _ = invoke(capsys, "check", "--spec", str(path),
                               "--suites", "ambient")
        assert code == 0


class TestRunApi:
    def test_auto_suites_follow_spec_shape(self):
        spec = from_doc(fixture_doc("fix-s3"))
        doc, reports, code = run(spec, "auto")
        assert set(doc["suites"]) == {"ambient", "contact"}

    def test_overrides(self):
        spec = from_doc(fixture_doc("fix-s3"))
        doc, reports, code = run(spec, ["ambient"], seed=9, count=16)
        assert doc["sampling"] == {"seed": 9, "count": 16,
                                   "mode": "seeded-random"}
        assert code == 0

    def test_explicit_points_mode(self):
        doc = fixture_doc("fix-s3")
        doc["sampling"] = {"mode": "points",
                           "ambient": [[0.1, 0.2, 0.3], [0.0, -0.5, 0.4]]}
        spec = from_doc(doc)
        out, reports, code = run(spec, ["ambient"])
        assert code == 0
        assert out["suites"]["ambient"]["checks"][0]["census"]["samples"] == 2

    def test_points_mode_reports_neither_seed_nor_count(self, tmp_path,
                                                        capsys):
        # the checks run on the listed points, so neither the defaults nor
        # --seed/--samples may show up in the sampling block or header
        doc = fixture_doc("fix-s3")
        doc["sampling"] = {"mode": "points",
                           "ambient": [[0.1, 0.2, 0.3], [0.0, -0.5, 0.4]]}
        path = tmp_path / "points.json"
        path.write_text(json.dumps(doc))
        for extra in ((), ("--samples", "16", "--seed", "3")):
            argv = ("check", "--spec", str(path), "--suites", "ambient",
                    *extra)
            code, out, _ = invoke(capsys, *argv, "--format", "structured")
            rep = json.loads(out)
            assert code == 0
            assert rep["sampling"] == {"mode": "points"}
            census = rep["suites"]["ambient"]["checks"][0]["census"]
            assert census["samples"] == 2
            code, out, _ = invoke(capsys, *argv)
            assert code == 0
            assert out.splitlines()[1] == "sampling: mode=points"
