import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from metricert.bounds import BoundQuery, bound_value
from metricert import cli
from metricert.cli import main
from metricert.core import FAMILIES, Dataset, KernelSpec, MetricModel, rbf_fH
from metricert.cover import CoverConfig
from metricert.harness import ExperimentConfig, SyntheticSpec, gen_synthetic
from metricert.io import (
    config_from_json_dict,
    config_to_json_dict,
    dataset_from_csv,
    dataset_hash,
    dataset_to_csv,
    dumps,
    load_model,
    model_from_json_dict,
    model_to_json_dict,
    save_model,
    write_json,
)
from metricert.solver import SolverConfig


class TestDatasetCsv:
    def test_exact_round_trip(self, tmp_path):
        ds = gen_synthetic(SyntheticSpec(n=30, cov_scale=0.3, seed=1))
        path = tmp_path / "d.csv"
        dataset_to_csv(ds, path)
        back = dataset_from_csv(path, R=ds.R)
        assert np.array_equal(ds.X, back.X)
        assert ds.y == back.y
        assert dataset_hash(ds) == dataset_hash(back)

    def test_default_radius_is_max_norm(self, tmp_path):
        X = np.array([[0.3, 0.4], [0.0, 0.0]])
        ds = Dataset(X, ["a", "b"], R=1.0)
        path = tmp_path / "d.csv"
        dataset_to_csv(ds, path)
        assert dataset_from_csv(path).R == pytest.approx(0.5)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1\n0.0,1.0\n")
        with pytest.raises(ValueError):
            dataset_from_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n0.0,a\n0.0,1.0,b\n1.0\n")
        with pytest.raises(ValueError, match="^row has 3 fields, expected 2$"):
            dataset_from_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f0,f1,label\n")
        with pytest.raises(ValueError):
            dataset_from_csv(path)
        with pytest.raises(ValueError, match="X must be a 2-D array"):
            dataset_from_csv(path, R=1.0)

    def test_every_field_goes_through_float(self, tmp_path):
        # Python's float() syntax: spaces, underscores, exponents, a signed zero
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n 0.25 ,1_0e-1,a\n-0,5E-1,b\n")
        ds = dataset_from_csv(path)
        assert ds.X.tolist() == [[0.25, 1.0], [-0.0, 0.5]] and ds.X.flags.c_contiguous
        assert ds.y == ["a", "b"]
        path.write_text("f0,label\n0.5,a\nx,b\n")
        with pytest.raises(ValueError, match="could not convert string to float: 'x'"):
            dataset_from_csv(path)


class TestModelJson:
    def test_mahalanobis_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 3))
        m = MetricModel("mahalanobis", M=A @ A.T, regularizer="fro")
        path = tmp_path / "m.json"
        save_model(m, path)
        back = load_model(path)
        assert np.array_equal(m.M, back.M)
        assert back.kind == "mahalanobis" and back.regularizer == "fro"

    def test_load_save_round_trip_keeps_c(self, tmp_path):
        # saving a loaded model wrote "c": null
        data, first, second = tmp_path / "d.csv", tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "--out", str(data), "--n", "20"]) == 0
        assert main(["train", "--data", str(data), "--out", str(first), "--c", "0.25",
                     "--iters", "5"]) == 0
        save_model(load_model(first), second)
        assert json.loads(first.read_text())["c"] == 0.25
        assert second.read_bytes() == first.read_bytes()

    def test_bilinear_round_trip(self):
        M = np.array([[1.0, -2.0], [0.5, 3.0]])
        m = MetricModel("bilinear", M=M, regularizer="fro")
        back = model_from_json_dict(model_to_json_dict(m))
        assert np.array_equal(back.M, M)

    def test_kernelized_needs_matching_anchors(self, tmp_path):
        anchors = gen_synthetic(SyntheticSpec(n=5, seed=3))
        m = MetricModel(
            "kernelized", M=np.eye(5), kernel=KernelSpec("rbf", 0.7), anchors=anchors,
            regularizer="fro",
        )
        path = tmp_path / "k.json"
        save_model(m, path)
        back = load_model(path, anchors=anchors)
        assert back.kernel.sigma == 0.7
        with pytest.raises(ValueError):
            load_model(path)
        wrong = gen_synthetic(SyntheticSpec(n=5, seed=4))
        with pytest.raises(ValueError):
            load_model(path, anchors=wrong)


DENSE_KERNEL = Path(__file__).parent / "data" / "dense_kernel_rbf"


class TestDenseKernelModelFile:
    """A format-1 kernel-rbf model with every anchor in its support, written
    before kernel-rbf trained on landmarks (commit 6985c96) by
    `gen --n 30 --seed 1` (train.csv), `gen --n 30 --seed 2` (probe.csv),
    `train --family kernel-rbf --c 0.1 --sigma 1.0` (model.json) and
    `audit --family kernel-rbf --gamma 0.5 --probe probe.csv` (report.json).
    Such files keep loading, and take the dense code path."""

    def test_audit_reproduces_the_report_bytes(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["audit", "--model", str(DENSE_KERNEL / "model.json"),
                     "--data", str(DENSE_KERNEL / "train.csv"),
                     "--probe", str(DENSE_KERNEL / "probe.csv"), "--out", str(report),
                     "--family", "kernel-rbf", "--gamma", "0.5"]) == 0
        assert report.read_bytes() == (DENSE_KERNEL / "report.json").read_bytes()
        assert capsys.readouterr().out == (
            "epsilon_empirical=1.09792 epsilon_theoretical=77.5639 bound_pair=515.514\n")

    def test_knn_and_the_dense_support(self, capsys):
        assert main(["knn", "--model", str(DENSE_KERNEL / "model.json"),
                     "--train", str(DENSE_KERNEL / "train.csv"),
                     "--test", str(DENSE_KERNEL / "probe.csv"), "--k", "3"]) == 0
        assert capsys.readouterr().out == "accuracy=0.9\n"
        anchors = dataset_from_csv(str(DENSE_KERNEL / "train.csv"))
        m = load_model(str(DENSE_KERNEL / "model.json"), anchors=anchors)
        assert np.array_equal(m.support, np.arange(30))
        X, M = m.kernel_form()
        assert X is anchors.X and M is m.M


class TestConfigJson:
    def test_round_trip(self):
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(d=3, n=40, classes=2, cov_scale=0.2, seed=5),
            solver=SolverConfig(c=0.25, max_iters=80),
            cover=CoverConfig(gamma=0.4),
            family="l21",
            delta=0.1,
            repetitions=2,
        )
        back = config_from_json_dict(config_to_json_dict(cfg))
        assert back == cfg

    def test_unknown_schema_rejected(self):
        obj = config_to_json_dict(ExperimentConfig())
        obj["schema_version"] = 99
        with pytest.raises(ValueError):
            config_from_json_dict(obj)

    def test_dumps_deterministic_bytes(self):
        obj = config_to_json_dict(ExperimentConfig())
        assert dumps(obj) == dumps(json.loads(dumps(obj)))

    def test_written_config_has_no_legacy_keys(self):
        obj = config_to_json_dict(ExperimentConfig())
        assert "pseudo_eps_scale" not in obj
        assert not {"seed", "tol", "step0"} & set(obj["solver"])
        assert "norm" not in obj["cover"]


# a config as save_config wrote it while SolverConfig had a seed, a tol and a
# step0, CoverConfig a norm and ExperimentConfig a pseudo_eps_scale
LEGACY_CONFIG = (
    '{"cover":{"gamma":0.5,"norm":"l2"},"delta":0.05,"family":"fro","mc_size":200,'
    '"probe_size":10,"pseudo_eps_scale":0.5,"repetitions":1,"schema_version":1,'
    '"solver":{"c":0.5,"max_iters":20,"seed":0,"step0":1.0,"tol":0.0},'
    '"synthetic":{"R":1.0,"classes":2,"cov_scale":0.3,"d":2,'
    '"means":[[0.5,0.0],[0.0,0.5]],"n":20,"seed":1}}\n'
)


def run_curve(tmp_path, text):
    cpath = tmp_path / "cfg.json"
    cpath.write_text(text)
    return main(["curve", "--config", str(cpath), "--n-ladder", "20,40",
                 "--out", str(tmp_path / "curve.csv")])


class TestLegacyConfig:

    def test_legacy_config_loads_and_runs_curve(self, tmp_path):
        # every value the file holds besides the dropped keys reaches the
        # experiment; its "l2" cover is the only cover
        cfg = config_from_json_dict(json.loads(LEGACY_CONFIG))
        assert cfg.solver == SolverConfig(c=0.5, max_iters=20)
        assert cfg == ExperimentConfig(
            synthetic=SyntheticSpec(d=2, n=20, classes=2, cov_scale=0.3, R=1.0, seed=1,
                                    means=((0.5, 0.0), (0.0, 0.5))),
            solver=SolverConfig(c=0.5, max_iters=20),
            cover=CoverConfig(gamma=0.5),
            family="fro", delta=0.05, probe_size=10, mc_size=200, repetitions=1,
        )
        assert run_curve(tmp_path, LEGACY_CONFIG) == 0
        assert len((tmp_path / "curve.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize("norm", ["l1", 2, None], ids=["l1", "number", "null"])
    def test_other_cover_norm_refused(self, tmp_path, capsys, norm):
        # only the l2 cover every saved config names loads
        obj = json.loads(LEGACY_CONFIG)
        obj["cover"]["norm"] = norm
        with pytest.raises(ValueError, match=r"cover\.norm"):
            config_from_json_dict(obj)
        assert run_curve(tmp_path, json.dumps(obj)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cover.norm" in err

    @pytest.mark.parametrize("step0", [0.5, "1.0", True], ids=["other", "string", "bool"])
    def test_other_solver_step0_refused(self, tmp_path, capsys, step0):
        # the step is 1/sqrt(t), the schedule every saved step0 of 1.0 gave
        obj = json.loads(LEGACY_CONFIG)
        obj["solver"]["step0"] = step0
        with pytest.raises(ValueError, match=r"solver\.step0"):
            config_from_json_dict(obj)
        assert run_curve(tmp_path, json.dumps(obj)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "solver.step0" in err

    def test_other_pseudo_eps_scale_refused(self, tmp_path, capsys):
        obj = json.loads(LEGACY_CONFIG)
        obj["pseudo_eps_scale"] = 0.3
        assert run_curve(tmp_path, json.dumps(obj)) == 1
        assert "pseudo_eps_scale" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", [0.001, "0.0"], ids=["nonzero", "string"])
    def test_nonzero_solver_tol_refused(self, tmp_path, capsys, tol):
        # the solver has no early stop, so only the tol of 0 it ran with loads
        obj = json.loads(LEGACY_CONFIG)
        obj["solver"]["tol"] = tol
        assert run_curve(tmp_path, json.dumps(obj)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "solver.tol" in err

    @pytest.mark.parametrize("section", ["synthetic", "solver", "cover", None])
    def test_unknown_key_refused_by_name(self, tmp_path, capsys, section):
        obj = json.loads(LEGACY_CONFIG)
        (obj if section is None else obj[section])["bogus"] = 1
        assert run_curve(tmp_path, json.dumps(obj)) == 1
        name = "bogus" if section is None else f"{section}.bogus"
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "Traceback" not in err


class TestConfigValueTypes:
    # each config replaces one value of LEGACY_CONFIG; the key named in the
    # error is the one whose value has the wrong JSON type
    @pytest.mark.parametrize(
        "section, key, value, name",
        [
            ("synthetic", "n", "abc", "synthetic.n"),
            (None, "solver", 5, "solver"),
            ("cover", "gamma", "x", "cover.gamma"),
            (None, "delta", "0.05", "delta"),
            (None, "repetitions", 1.5, "repetitions"),
            (None, "family", ["fro"], "family"),
            ("synthetic", "n", True, "synthetic.n"),
            ("synthetic", "means", [0.5, 0.0], "synthetic.means"),
        ],
    )
    def test_wrong_type_exits_1_by_name(self, tmp_path, capsys, section, key, value, name):
        obj = json.loads(LEGACY_CONFIG)
        (obj if section is None else obj[section])[key] = value
        with pytest.raises(ValueError, match=re.escape(name)):
            config_from_json_dict(obj)
        assert run_curve(tmp_path, json.dumps(obj)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "Traceback" not in err

    def test_float_field_takes_an_int(self):
        obj = json.loads(LEGACY_CONFIG)
        obj["solver"]["c"] = 1
        assert config_from_json_dict(obj).solver.c == 1

    def test_missing_key_without_default_refused(self):
        obj = json.loads(LEGACY_CONFIG)
        del obj["cover"]["gamma"]
        with pytest.raises(ValueError, match="cover.gamma"):
            config_from_json_dict(obj)

    def test_non_object_file_refused(self):
        with pytest.raises(ValueError, match="object"):
            config_from_json_dict([1, 2])

class TestCli:
    def _gen(self, tmp_path, name="data.csv", n=30, seed=0):
        out = tmp_path / name
        assert main(["gen", "--out", str(out), "--n", str(n), "--seed", str(seed)]) == 0
        return out

    def test_gen_deterministic(self, tmp_path):
        a = self._gen(tmp_path, "a.csv", seed=7)
        b = self._gen(tmp_path, "b.csv", seed=7)
        assert a.read_bytes() == b.read_bytes()

    def test_train_then_audit(self, tmp_path, capsys):
        data = self._gen(tmp_path)
        model = tmp_path / "model.json"
        assert main(
            ["train", "--data", str(data), "--out", str(model), "--c", "0.5",
             "--iters", "50"]
        ) == 0
        report = tmp_path / "report.json"
        assert main(
            ["audit", "--model", str(model), "--data", str(data), "--out", str(report),
             "--c", "0.5", "--gamma", "0.5", "--radius", "1.0"]
        ) == 0
        obj = json.loads(report.read_text())
        assert obj["epsilon_empirical"] <= obj["epsilon_theoretical"] + 1e-12
        assert obj["bound_pair"] > 0

    def test_one_parser_per_process(self, tmp_path, capsys):
        # train, audit, a usage error and --help through the one cached
        # parser give the exit codes and outputs of fresh-parser runs
        data = self._gen(tmp_path)
        model, report = tmp_path / "model.json", tmp_path / "report.json"
        calls = [
            ["train", "--data", str(data), "--out", str(model), "--c", "0.5", "--iters", "20"],
            ["audit", "--model", str(model), "--data", str(data), "--out", str(report),
             "--gamma", "0.5"],
            ["train", "--data", str(data), "--out", str(model), "--step0", "1"],
            ["--help"],
        ]

        def run(argv, fresh):
            if fresh:
                cli.build_parser.cache_clear()
            code = main(argv)
            out = capsys.readouterr()
            return code, out.out, out.err

        cli.build_parser.cache_clear()
        cached = [run(argv, fresh=False) for argv in calls]
        assert cli.build_parser.cache_info().misses == 1
        assert [code for code, _, _ in cached] == [0, 0, 1, 0]
        assert cached == [run(argv, fresh=True) for argv in calls]

    def test_audit_reads_each_csv_once(self, tmp_path, monkeypatch):
        # the probe has the larger radius, so both datasets take its R
        from metricert import io
        from metricert.harness import certify

        data = self._gen(tmp_path, n=30, seed=1)
        probe = tmp_path / "probe.csv"
        ds_probe = Dataset(
            np.array([[1.2, 0.0], [0.0, -0.4], [0.3, 0.3]]), ["c0", "c1", "c0"], R=1.2
        )
        dataset_to_csv(ds_probe, probe)
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(data), "--out", str(model), "--c", "0.5",
                     "--iters", "30"]) == 0
        reads = []
        real = io.dataset_from_csv
        monkeypatch.setattr(io, "dataset_from_csv", lambda p, R=None: reads.append(p) or real(p, R))
        report = tmp_path / "report.json"
        assert main(["audit", "--model", str(model), "--data", str(data), "--probe", str(probe),
                     "--out", str(report), "--c", "0.5", "--gamma", "0.5"]) == 0
        assert reads == [str(data), str(probe)]
        R = max(real(data).R, 1.2)
        expected = certify(
            load_model(model), real(data, R=R), real(probe, R=R), "fro",
            CoverConfig(gamma=0.5), c=0.5, delta=0.05,
        )
        assert report.read_text() == dumps(expected.to_json_dict())

    def _train_audit(self, tmp_path, train_args, audit_args):
        data = self._gen(tmp_path)
        model, report = tmp_path / "model.json", tmp_path / "report.json"
        assert main(["train", "--data", str(data), "--out", str(model), "--iters", "20"]
                    + train_args) == 0
        code = main(["audit", "--model", str(model), "--data", str(data), "--out", str(report),
                     "--gamma", "0.5", "--radius", "1.0"] + audit_args)
        return code, report.exists()

    def test_audit_refuses_another_c(self, tmp_path, capsys):
        # at --c 50 the certified epsilon would fall below the empirical one
        code, written = self._train_audit(tmp_path, ["--c", "0.05"], ["--c", "50"])
        assert (code, written) == (1, False)
        assert "trained at c=0.05" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "trained,audited",
        [("bilinear", "fro"), ("l1", "fro"), ("fro", "kernel-rbf"), ("fro", "bilinear"),
         ("kernel-rbf", "fro")],
    )
    def test_audit_refuses_another_family(self, tmp_path, capsys, trained, audited):
        code, written = self._train_audit(
            tmp_path, ["--family", trained, "--c", "0.5"], ["--family", audited, "--c", "0.5"]
        )
        assert (code, written) == (1, False)
        assert f"not a {audited} model" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma,code", [("0.5", 0), ("1.0", 1), ("100", 1)])
    def test_audit_refuses_another_sigma(self, tmp_path, capsys, sigma, code):
        # at --sigma 100 the certified epsilon would fall below the empirical one
        result = self._train_audit(
            tmp_path, ["--family", "kernel-rbf", "--c", "0.5", "--sigma", "0.5"],
            ["--family", "kernel-rbf", "--c", "0.5", "--sigma", sigma],
        )
        assert result == (code, code == 0)
        if code:
            assert "trained at sigma=0.5" in capsys.readouterr().err

    def test_audit_ignores_sigma_of_other_families(self, tmp_path):
        code, written = self._train_audit(tmp_path, ["--c", "0.5"], ["--c", "0.5", "--sigma", "7"])
        assert (code, written) == (0, True)

    def test_audit_report_has_no_gap_verdict(self, tmp_path):
        # no gap is measured, so the report cannot say the bound holds
        code, _ = self._train_audit(tmp_path, ["--c", "0.5"], ["--c", "0.5"])
        obj = json.loads((tmp_path / "report.json").read_text())
        assert code == 0
        assert obj["holds"] is None
        assert obj["sound"] is (obj["epsilon_empirical"] <= obj["epsilon_theoretical"])
        assert obj["sound"] is True

    def test_audit_report_states_no_unmeasured_gap(self, tmp_path):
        code, _ = self._train_audit(tmp_path, ["--c", "0.5"], ["--c", "0.5"])
        obj = json.loads((tmp_path / "report.json").read_text())
        assert code == 0
        assert obj["empirical_gap"] is None

    def test_audit_accepts_a_model_without_c(self, tmp_path):
        # model files written by the library without c cannot be checked
        data = self._gen(tmp_path)
        model, report = tmp_path / "model.json", tmp_path / "report.json"
        save_model(MetricModel("mahalanobis", M=np.eye(2)), model)
        assert main(["audit", "--model", str(model), "--data", str(data), "--out", str(report),
                     "--c", "1.0", "--gamma", "0.5", "--radius", "1.0"]) == 0
        assert json.loads(report.read_text())["c"] == 1.0

    def test_audit_without_c_needs_a_model_with_c(self, tmp_path, capsys):
        data = self._gen(tmp_path)
        model, report = tmp_path / "model.json", tmp_path / "report.json"
        save_model(MetricModel("mahalanobis", M=np.eye(2)), model)
        assert main(["audit", "--model", str(model), "--data", str(data),
                     "--out", str(report)]) == 1
        assert not report.exists()
        assert "records no training c" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["fro", "kernel-rbf"])
    def test_audit_defaults_to_the_model_c_and_sigma(self, tmp_path, family):
        data = self._gen(tmp_path)
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(data), "--out", str(model), "--family", family,
                     "--c", "0.5", "--sigma", "0.5", "--iters", "20"]) == 0
        reports = []
        for given in ([], ["--c", "0.5", "--sigma", "0.5"]):
            report = tmp_path / f"report{len(reports)}.json"
            assert main(["audit", "--model", str(model), "--data", str(data),
                         "--out", str(report), "--family", family] + given) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["c"] == 0.5

    @pytest.mark.parametrize(
        "text", ["true", '"0.5"', "NaN", "Infinity", "-Infinity", "0", "-1", "[0.5]"]
    )
    def test_audit_refuses_a_bad_c_in_the_model_file(self, tmp_path, capsys, text):
        # the c enters the certificate; audit runs without --c, so only the
        # file's c is read
        data = self._gen(tmp_path)
        model, report = tmp_path / "model.json", tmp_path / "report.json"
        save_model(MetricModel("mahalanobis", M=np.eye(2), info={"c": 0.5}), model)
        model.write_text(model.read_text().replace('"c":0.5', f'"c":{text}'))
        assert main(["audit", "--model", str(model), "--data", str(data),
                     "--out", str(report)]) == 1
        assert not report.exists()
        assert "model c must be null or positive and finite" in capsys.readouterr().err

    def test_audit_refuses_a_model_over_capacity(self, tmp_path, capsys):
        # c*||M||_F = 30 > g0 = 2; the report would claim a certificate whose
        # empirical epsilon is three times the certified one
        data = self._gen(tmp_path)
        model, report = tmp_path / "model.json", tmp_path / "report.json"
        save_model(MetricModel("mahalanobis", M=np.diag([300.0, 0.0]), info={"c": 0.1}), model)
        assert main(["audit", "--model", str(model), "--data", str(data), "--out", str(report),
                     "--c", "0.1", "--gamma", "0.5", "--radius", "1.0"]) == 1
        assert not report.exists()
        assert "over capacity" in capsys.readouterr().err

    def test_train_triplet_family(self, tmp_path):
        data = self._gen(tmp_path, n=12)
        model = tmp_path / "t.json"
        assert main(
            ["train", "--data", str(data), "--out", str(model),
             "--family", "triplet-fro", "--c", "0.5", "--iters", "30"]
        ) == 0
        assert json.loads(model.read_text())["kind"] == "mahalanobis"

    def test_bound_prints_value(self, capsys):
        assert main(
            ["bound", "--epsilon", "0.1", "--B", "3.0", "--K", "4",
             "--n", "100", "--delta", "0.05"]
        ) == 0
        printed = float(capsys.readouterr().out.strip())
        from metricert.bounds import BoundQuery, bound_value

        assert printed == bound_value(
            BoundQuery(epsilon=0.1, B=3.0, K=4, n=100, delta=0.05, mode="pair")
        )

    @pytest.mark.parametrize("mode", ["pair", "triplet"])
    def test_bound_p_hat_outside_pseudo_mode_exits_1(self, capsys, mode):
        # the value was ignored, and the pair or triplet bound printed
        argv = ["bound", "--mode", mode, "--epsilon", "0.1", "--B", "3", "--K", "4",
                "--n", "100", "--delta", "0.05", "--p-hat", "7"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: p_hat is a pseudo-mode input")
        assert main(argv[:-2] + ["--p-hat", "0"]) == 0

    def test_bhc_runs(self, capsys):
        assert main(
            ["bhc", "--K", "2", "--mu", "0.5,0.5", "--n", "50", "--lam", "0.3",
             "--trials", "2000"]
        ) == 0
        assert "violated=False" in capsys.readouterr().out

    def test_curve_writes_csv(self, tmp_path):
        from metricert.io import save_config

        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(n=20, seed=1),
            solver=SolverConfig(c=0.5, max_iters=20),
            cover=CoverConfig(gamma=0.5),
            repetitions=1,
            mc_size=200,
            probe_size=10,
        )
        cpath = tmp_path / "cfg.json"
        save_config(cfg, cpath)
        out = tmp_path / "curve.csv"
        assert main(
            ["curve", "--config", str(cpath), "--n-ladder", "20,40", "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,gap,bound,sqrt_term"
        assert len(lines) == 3

    def test_knn_accuracy(self, tmp_path, capsys):
        data = self._gen(tmp_path, n=40)
        model = tmp_path / "model.json"
        main(["train", "--data", str(data), "--out", str(model), "--c", "0.2",
              "--iters", "50"])
        capsys.readouterr()
        assert main(
            ["knn", "--model", str(model), "--train", str(data), "--test", str(data),
             "--k", "1"]
        ) == 0
        assert "accuracy=1" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_data_exit_1(self, tmp_path, capsys, value):
        # a validation error, not a numerical failure inside the solver
        data = tmp_path / "bad.csv"
        data.write_text(f"f0,f1,label\n0.1,0.2,a\n{value},0.0,b\n0.0,0.3,b\n")
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                     "--iters", "5"])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err

    def test_train_kernel_prints_rank(self, tmp_path, capsys):
        data = self._gen(tmp_path, n=20)
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "k.json"),
                     "--family", "kernel-rbf", "--c", "0.5", "--iters", "20"]) == 0
        out = capsys.readouterr().out
        assert re.fullmatch(r"objective=\S+ iterations=\d+ gap=\S+ rank=\d+ -> \S+\n", out)

    def test_train_rbf_sigma_square_beyond_float_range(self, tmp_path):
        # sigma^2 overflowed a Python float: exit 2 with "(34, 'Numerical
        # result out of range')"; the Gram is now all ones
        data = self._gen(tmp_path, n=20)
        model = tmp_path / "k.json"
        assert main(["train", "--data", str(data), "--out", str(model),
                     "--family", "kernel-rbf", "--sigma", "1e300", "--iters", "20"]) == 0
        assert json.loads(model.read_text())["kernel"]["sigma"] == 1e300

    def test_train_rbf_sigma_square_below_float_range(self, tmp_path, capsys):
        # sigma^2 rounded to 0: exit 1 with "kernel Gram matrix has
        # non-finite entries"; its off-diagonal entries now tend to 0
        data = self._gen(tmp_path, n=20)
        model = tmp_path / "k.json"
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(model),
                     "--family", "kernel-rbf", "--sigma", "1e-200", "--iters", "20"]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(model.read_text())["kernel"]["sigma"] == 1e-200

    def test_gen_radius_whose_square_overflows_exit_1(self, tmp_path, capsys):
        # the means at 0.5 R were refused as outside the R-ball, because
        # their norm overflowed; R itself is now refused by name
        out = tmp_path / "g.csv"
        capsys.readouterr()
        assert main(["gen", "--out", str(out), "--radius", "1e300"]) == 1
        assert capsys.readouterr().err.startswith("error: R=1e+300 is too large")
        assert not out.exists()

    def test_audit_rbf_gamma_square_beyond_float_range(self, tmp_path):
        # gamma^2 overflowed a Python float in rbf_fH: exit 2; f_H now
        # saturates at 2, so epsilon = 8 * 1 * sqrt(2) * g0 / c
        data = self._gen(tmp_path, n=20)
        model, report = tmp_path / "k.json", tmp_path / "r.json"
        assert main(["train", "--data", str(data), "--out", str(model),
                     "--family", "kernel-rbf", "--c", "0.5", "--iters", "20"]) == 0
        code = main(["audit", "--model", str(model), "--data", str(data), "--out", str(report),
                     "--family", "kernel-rbf", "--c", "0.5", "--gamma", "1e300"])
        assert code == 0
        rep = json.loads(report.read_text())
        assert rep["epsilon_theoretical"] == pytest.approx(8.0 * math.sqrt(2.0) * 2.0 / 0.5)
        assert math.isfinite(rep["bound_pair"])

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "no.csv"),
                     "--out", str(tmp_path / "m.json")]) == 1

    def test_bhc_cap_beyond_float_range(self, capsys):
        # 2^1100 overflows a float: the cap is infinite, not a failure
        mu = ",".join([repr(1.0 / 1024)] * 1024 + ["0.0"] * 76)
        assert main(["bhc", "--K", "1100", "--mu", mu, "--n", "200", "--lam", "0.5",
                     "--trials", "1000"]) == 0
        out = capsys.readouterr().out
        assert "cap=inf" in out and "violated=False" in out

    def test_invalid_mu_exit_1(self, capsys):
        assert main(
            ["bhc", "--K", "2", "--mu", "0.9,0.9", "--n", "10", "--lam", "0.1"]
        ) == 1

    @pytest.mark.parametrize(
        "flag, value",
        [("--trials", "0"), ("--trials", "-3"), ("--n", "0"), ("--lam", "nan"),
         ("--lam", "inf"), ("--mu", "0.5,nan")],
    )
    def test_bad_bhc_input_exit_1(self, capsys, flag, value):
        args = {"--K": "2", "--mu": "0.5,0.5", "--n": "10", "--lam": "0.1", "--trials": "100"}
        args[flag] = value
        assert main(["bhc", *(tok for item in args.items() for tok in item)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_covering_count_above_1e18_exit_0(self, tmp_path, capsys):
        # K = 2 * (1 + 4e9)^2 = 3.2e19 is above 1e18 but finite, so it is used
        data = self._gen(tmp_path)
        model = tmp_path / "model.json"
        main(["train", "--data", str(data), "--out", str(model), "--iters", "20"])
        capsys.readouterr()
        report = tmp_path / "r.json"
        code = main(
            ["audit", "--model", str(model), "--data", str(data), "--out", str(report),
             "--gamma", "1e-9", "--radius", "1.0"]
        )
        assert code == 0
        obj = json.loads(report.read_text())
        assert obj["K_theoretical"] > 1e18
        assert math.isfinite(obj["bound_pair"])
        # a count beyond the float range is a usage error naming its inputs
        code = main(
            ["audit", "--model", str(model), "--data", str(data), "--out", str(report),
             "--gamma", "1e-300", "--radius", "1.0"]
        )
        assert code == 1
        assert "R=1.0, gamma'=5e-301, d=2" in capsys.readouterr().err

    def test_linalg_failure_exit_2(self, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError, yet it is a numerical failure
        data = self._gen(tmp_path)

        def failing_eigh(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                     "--iters", "5"])
        assert code == 2
        assert capsys.readouterr().err.startswith("numerical failure: ")


# one hyper-parameter each; NaN used to pass range checks written as x <= 0
NON_FINITE_FIELDS = [
    pytest.param(lambda v: SolverConfig(c=v), "c", id="SolverConfig.c"),
    pytest.param(lambda v: CoverConfig(gamma=v), "gamma", id="CoverConfig.gamma"),
    pytest.param(lambda v: SyntheticSpec(cov_scale=v), "cov_scale", id="SyntheticSpec.cov_scale"),
    pytest.param(lambda v: SyntheticSpec(R=v), "R", id="SyntheticSpec.R"),
    pytest.param(lambda v: SyntheticSpec(means=((v, 0.0), (0.0, 0.5))), "means",
                 id="SyntheticSpec.means"),
    pytest.param(lambda v: KernelSpec("rbf", v), "sigma", id="KernelSpec.sigma"),
    pytest.param(lambda v: rbf_fH(v, 1.0), "gamma", id="rbf_fH.gamma"),
    pytest.param(lambda v: rbf_fH(0.5, v), "sigma", id="rbf_fH.sigma"),
    pytest.param(lambda v: FAMILIES["fro"].epsilon(1.0, 0.5, v), "c", id="epsilon.c"),
    pytest.param(lambda v: FAMILIES["fro"].epsilon(1.0, v, 0.1), "gamma", id="epsilon.gamma"),
    pytest.param(lambda v: FAMILIES["kernel-rbf"].epsilon(1.0, 0.5, 0.1, v), "sigma",
                 id="epsilon.sigma"),
    pytest.param(lambda v: FAMILIES["fro"].loss_bound(1.0, v), "c", id="loss_bound.c"),
    pytest.param(lambda v: FAMILIES["fro"].loss_bound(v, 0.1), "R", id="loss_bound.R"),
    pytest.param(lambda v: BoundQuery(v, 1.0, 4, 100, 0.05), "epsilon", id="BoundQuery.epsilon"),
    pytest.param(lambda v: BoundQuery(0.1, v, 4, 100, 0.05), "B", id="BoundQuery.B"),
]


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make, name", NON_FINITE_FIELDS)
    def test_refused_by_name(self, make, name, value):
        with pytest.raises(ValueError, match=rf"\b{name} must "):
            make(value)

    def _argv(self, tmp_path, command):
        data, model = tmp_path / "d.csv", tmp_path / "m.json"
        assert main(["gen", "--out", str(data), "--n", "20"]) == 0
        assert main(["train", "--data", str(data), "--out", str(model), "--iters", "5"]) == 0
        return {
            "gen": ["gen", "--out", str(tmp_path / "g.csv")],
            "train": ["train", "--data", str(data), "--out", str(tmp_path / "t.json")],
            "audit": ["audit", "--model", str(model), "--data", str(data),
                      "--out", str(tmp_path / "r.json")],
            "bound": ["bound", "--epsilon", "0.1", "--B", "3", "--K", "4", "--n", "100",
                      "--delta", "0.05"],
        }[command]

    @pytest.mark.parametrize(
        "command, flag, value, name",
        [
            ("train", "--c", "nan", "c"),
            ("train", "--c", "inf", "c"),
            ("gen", "--radius", "nan", "R"),
            ("audit", "--gamma", "nan", "gamma"),
            ("bound", "--epsilon", "nan", "epsilon"),
            ("bound", "--B", "inf", "B"),
        ],
    )
    def test_command_exits_1_by_name(self, tmp_path, capsys, command, flag, value, name):
        argv = self._argv(tmp_path, command) + [flag, value]
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} must ")
        assert not (tmp_path / "t.json").exists() and not (tmp_path / "g.csv").exists()

    def test_curve_config_with_nan_c(self, tmp_path, capsys):
        obj = json.loads(LEGACY_CONFIG)
        obj["solver"]["c"] = math.nan
        assert run_curve(tmp_path, json.dumps(obj)) == 1
        assert capsys.readouterr().err.startswith("error: c must ")


class TestNonFiniteOutput:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_write_json_refuses_before_opening(self, tmp_path, value):
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        old.write_text("kept\n")
        for path in (new, old):
            with pytest.raises(ValueError):
                write_json({"a": 1.0, "b": [value]}, str(path))
        assert not new.exists()
        assert old.read_text() == "kept\n"

    def test_finite_output_keeps_its_bytes(self, tmp_path):
        obj = {"b": [0.1, 1e300, -0.0, 5e-324], "a": None, "c": {"d": 3}}
        write_json(obj, str(tmp_path / "r.json"))
        assert (tmp_path / "r.json").read_text() == (
            json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        )

    def test_audit_with_a_nan_report_exits_1(self, tmp_path, capsys, monkeypatch):
        data, model, report = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "r.json"
        assert main(["gen", "--out", str(data), "--n", "20"]) == 0
        assert main(["train", "--data", str(data), "--out", str(model), "--iters", "5"]) == 0
        nan_report = type("NanReport", (), {"to_json_dict": lambda self: {"x": math.nan}})
        monkeypatch.setattr(cli, "certify", lambda *args, **kwargs: nan_report())
        capsys.readouterr()
        argv = ["audit", "--model", str(model), "--data", str(data), "--out", str(report)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not report.exists()


class TestOversizedIntegers:
    @pytest.mark.parametrize("name", ["K", "n"])
    def test_bound_query_refuses_by_name(self, name):
        args = {"epsilon": 0.1, "B": 3.0, "K": 4, "n": 100, "delta": 0.05, name: 10**400}
        with pytest.raises(ValueError, match=rf"^{name} must be at most"):
            BoundQuery(**args)

    def test_largest_float_integer_accepted(self):
        BoundQuery(0.1, 3.0, int(sys.float_info.max), 100, 0.05)

    def test_bound_with_400_digit_K_exits_1(self, capsys):
        # the concentration root turned K into a float: "int too large to
        # convert to float", exit 2
        argv = ["bound", "--epsilon", "0.1", "--B", "3", "--K", "1" + "0" * 400,
                "--n", "100", "--delta", "0.05"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: K must be at most")

    def test_overflowing_concentration_term_refused_by_name(self):
        # 2.0 * K overflows to inf above half the largest float: the bound was inf
        assert math.isfinite(bound_value(BoundQuery(0.1, 3.0, 10**307, 100, 0.05)))
        with pytest.raises(ValueError, match=r"^K = 1\.7e\+308 is too large"):
            bound_value(BoundQuery(0.1, 3.0, int(1.7e308), 100, 0.05))

    def test_bound_with_overflowing_K_exits_1(self, capsys):
        # printed inf and exited 0
        argv = ["bound", "--epsilon", "0.1", "--B", "3", "--K", str(int(1.7e308)),
                "--n", "100", "--delta", "0.05"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: K = 1.7e+308 is too large")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bound", "--epsilon", "0.1"],
            ["gen", "--out", "unused.csv", "--bogus", "1"],
            ["bound", "--epsilon", "0.1", "--B", "3", "--K", "4", "--n", "100",
             "--delta", "-inf"],
            # the cover has one metric, so audit has no --norm to choose it
            ["audit", "--model", "m.json", "--data", "d.csv", "--out", "r.json",
             "--norm", "l2"],
            # the step is 1/sqrt(t), so train has no --step0 to scale it
            ["train", "--data", "d.csv", "--out", "m.json", "--step0", "1"],
            # certify draws nothing, so audit has no --seed to echo
            ["audit", "--model", "m.json", "--data", "d.csv", "--out", "r.json",
             "--seed", "7"],
        ],
    )
    def test_exit_1(self, capsys, argv):
        # argparse's own code is 2, which the CLI keeps for numerical failure
        assert main(argv) == 1
        assert "usage: metricert" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: metricert")
