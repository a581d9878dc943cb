"""End-to-end command-line workflow."""

import ast
import csv
import importlib.util
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import mamsim
from mamsim import config, montecarlo
from mamsim.cli import main
from mamsim.config import DataGenError, FitError, SpecError
from mamsim.rules import RuleError

from trial_designs import (
    count_dose_design, covariate_design, gaussian_two_stage_design, read_shard_sections,
)


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(gaussian_two_stage_design(replicates=6, extended=1)))
    return path


def test_run_summary_plot_roundtrip(spec_path, tmp_path, capsys):
    shard = tmp_path / "out.shard"
    assert main(["run", str(spec_path), "--workers", "1", "--out", str(shard)]) == 0
    assert shard.exists()

    assert main(["summary", str(shard)]) == 0
    text = capsys.readouterr().out
    assert "probability of declaring efficacy" in text
    assert main(["summary", str(shard), "--full"]) == 0
    assert "sample sizes" in capsys.readouterr().out

    csv_path = tmp_path / "size.csv"
    assert main(["plot-data", str(shard), "--kind", "size", "--out", str(csv_path)]) == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["seed", "arm", "size"]
    assert len(rows) > 6

    est_path = tmp_path / "est.csv"
    assert main(["plot-data", str(shard), "--kind", "estimates", "--out", str(est_path)]) == 0
    with open(est_path, newline="") as fh:
        est_rows = list(csv.reader(fh))
    assert est_rows[0] == ["seed", "arm", "estimate", "arm_size", "decision", "timing"]
    assert len(est_rows) == 1 + 6 * 2  # 6 replicates x 2 interventions


def test_run_with_seed_range_and_combine(spec_path, tmp_path, capsys):
    a, b, out = (tmp_path / n for n in ("a.shard", "b.shard", "ab.shard"))
    assert main(["run", str(spec_path), "--seeds", "1..3", "--workers", "1", "--out", str(a)]) == 0
    assert main(["run", str(spec_path), "--seeds", "4..6", "--workers", "1", "--out", str(b)]) == 0
    assert main(["combine", str(a), str(b), "--out", str(out)]) == 0
    assert "6 replicates" in capsys.readouterr().out

    # overlapping shards are refused with a nonzero exit
    assert main(["combine", str(a), str(a), "--out", str(tmp_path / "bad.shard")]) == 2
    assert "overlapping" in capsys.readouterr().err


def test_replicates_flag_overrides_document(spec_path, tmp_path, capsys):
    shard = tmp_path / "r.shard"
    assert main(["run", str(spec_path), "--replicates", "2", "--workers", "1", "--out", str(shard)]) == 0
    assert "2 replicates" in capsys.readouterr().out


def test_extended_flag_overrides_document(spec_path, tmp_path, capsys):
    shard = tmp_path / "e0.shard"
    assert main([
        "run", str(spec_path), "--seeds", "1..2", "--workers", "1",
        "--extended", "0", "--out", str(shard),
    ]) == 0
    capsys.readouterr()
    est = tmp_path / "no.csv"
    assert main(["plot-data", str(shard), "--kind", "estimates", "--out", str(est)]) == 2
    assert "extended" in capsys.readouterr().err


def test_extended_flag_replaces_an_invalid_document_depth(tmp_path, capsys):
    # the flag replaces the field before the one validation, so the
    # document's own depth is never checked
    design = tmp_path / "deep.json"
    design.write_text(json.dumps(gaussian_two_stage_design(replicates=2, extended=7)))
    shard = tmp_path / "e1.shard"
    assert main([
        "run", str(design), "--workers", "1", "--extended", "1", "--out", str(shard),
    ]) == 0
    assert "2 replicates" in capsys.readouterr().out
    assert montecarlo.load_shard(shard).extended == 1


def test_run_default_output_path(spec_path, capsys):
    assert main(["run", str(spec_path), "--seeds", "1..2", "--workers", "1"]) == 0
    capsys.readouterr()
    default_shard = spec_path.with_suffix(".shard")
    assert default_shard.exists()
    assert main(["summary", str(default_shard)]) == 0
    assert "2" in capsys.readouterr().out


def test_invalid_spec_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", str(bad)]) == 2
    assert "syntax error" in capsys.readouterr().err


def test_negative_seed_flag_reports_error(spec_path, tmp_path, capsys):
    out = tmp_path / "neg.shard"
    assert main(["run", str(spec_path), "--seeds=-3,1", "--workers", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: seeds must be non-negative: -3\n"
    assert not out.exists()


def test_negative_document_seeds_report_error(tmp_path, capsys):
    doc = gaussian_two_stage_design()
    del doc["replicates"]
    doc["seeds"] = [-1, 2]
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "neg.shard")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seeds must be non-negative, got -1" in err


def test_bad_worker_cap_reports_error(spec_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(montecarlo.WORKER_CAP_ENV, "abc")
    assert main(["run", str(spec_path), "--out", str(tmp_path / "cap.shard")]) == 2
    assert capsys.readouterr().err == "error: MAMSIM_MAX_WORKERS must be an integer, got 'abc'\n"


def test_missing_shard_reports_error(tmp_path, capsys):
    assert main(["summary", str(tmp_path / "absent.shard")]) == 2
    assert "error" in capsys.readouterr().err


def test_combine_onto_an_input_matches_monolithic_run(spec_path, tmp_path, capsys):
    a, b, whole = (tmp_path / n for n in ("a.shard", "b.shard", "whole.shard"))
    for seeds, out in (("1..3", a), ("4..6", b), ("1..6", whole)):
        assert main(["run", str(spec_path), "--seeds", seeds, "--workers", "1", "--out", str(out)]) == 0
    assert main(["combine", str(a), str(b), "--out", str(a)]) == 0
    assert "6 replicates" in capsys.readouterr().out
    assert read_shard_sections(a)[1] == read_shard_sections(whole)[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.shard", "b.shard", "design.json", "whole.shard"
    ]


def _shard_with_record(path, source, *raws, **header_changes):
    """Copy ``source``'s header onto a shard holding the records ``raws``."""
    header = read_shard_sections(source)[0]
    header["n_records"] = len(raws)
    header.update(header_changes)
    _write_shard(path, header, raws)


def _write_shard(path, header, raws):
    """A binary shard holding ``header`` and the records ``raws``, unchecked."""
    blob = json.dumps(header).encode()
    path.write_bytes(
        montecarlo.MAGIC + struct.pack("<I", len(blob)) + blob + struct.pack("<Q", len(raws))
        + b"".join(struct.pack("<I", len(raw)) + raw for raw in raws)
    )


def _set(path, value):
    """Edit of a record document: set the key path ``path`` to ``value``."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


def _relabelled(doc, seed):
    """A record document with its seed and its result's seed set to ``seed``."""
    return dict(doc, seed=seed, result=dict(doc["result"], seed=seed))


def _delete(path):
    """Edit of a record document: delete the key path ``path``."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


def _without_arm(doc, arm):
    """A record document whose result leaves out the intervention ``arm``
    from its arms and decisions, so that the two still agree."""
    result = dict(doc["result"], arms=[a for a in doc["result"]["arms"] if a != arm])
    result["decisions"] = {a: d for a, d in result["decisions"].items() if a != arm}
    return dict(doc, result=result)


def _null_result(edit):
    """Edit of a record document: add a null result, the record's result
    changed by ``edit``."""
    def add(doc):
        null = json.loads(json.dumps(doc))
        edit(null)
        doc["null_result"] = null["result"]
    return add


# Records that the codec accepts but that do not fit the shard header's
# design (arms control, T1, T2); the report verbs index them by its arms.
RECORDS_OFF_THE_DESIGN = {
    "sizes-missing-arm": (
        _delete(("result", "sample_sizes", "T1")),
        "record 5: sample_sizes are not keyed by exactly the design's arms",
    ),
    "arms-not-interventions": (
        lambda doc: [doc, _without_arm(_relabelled(doc, 6), "T2")],
        "record 6: arms are not the design's interventions",
    ),
    "size-str": (
        _set(("result", "sample_sizes", "control"), "x"),
        "record 5: sample sizes must be integers",
    ),
    "size-bool": (
        _set(("result", "sample_sizes", "T2"), True),
        "record 5: sample sizes must be integers",
    ),
}
# Records of the design at ``extended`` 2 whose dataset does not fit it.
DATASETS_OFF_THE_DESIGN = {
    "dataset-foreign-arm": (
        _set(("result", "dataset", "arm", 0), "zzz"),
        "record 5: dataset arms are not all the design's arms",
    ),
    "dataset-extra-key": (
        _set(("result", "dataset", "extra"), []),
        "record 5: dataset with unexpected extra",
    ),
}


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"{not json", "bad record"),
        (b'{"result": {}}', "without an integer seed"),
        (b'{"seed": 1}', "record 1 without a result"),
        pytest.param(b'{"seed": true, "result": {}}', "without an integer seed", id="seed-bool"),
        pytest.param(
            _delete(("result", "total_size")), "TrialResult without total_size",
            id="no-total-size",
        ),
        pytest.param(_set(("result",), 5), "TrialResult is not a JSON object", id="result-5"),
        pytest.param(
            _set(("result", "decisions", "T1"), {"efficacy_met": True}),
            "ArmDecision without futility_met, look_index, timing",
            id="partial-decision",
        ),
        pytest.param(
            _delete(("result", "decisions", "T2")),
            "decisions are not keyed by exactly the arms",
            id="decision-missing-arm",
        ),
        pytest.param(
            _set(("result", "history", 0, "extra"), 1),
            "LookRecord with unexpected extra",
            id="history-extra-key",
        ),
        pytest.param(
            lambda doc: [doc, _relabelled(doc, 4)],
            "record 4 out of seed order",
            id="out-of-seed-order",
        ),
        pytest.param(
            _set(("result", "seed"), 6),
            "record 5 holds a result of seed 6",
            id="result-of-another-seed",
        ),
        pytest.param(
            _set(("result", "sample_sizes"), 5),
            "TrialResult sample_sizes of the wrong type (int)",
            id="sample-sizes-int",
        ),
        pytest.param(
            _set(("result", "total_size"), "x"),
            "TrialResult total_size of the wrong type (str)",
            id="total-size-str",
        ),
        pytest.param(
            _set(("result", "total_size"), True),
            "TrialResult total_size of the wrong type (bool)",
            id="total-size-bool",
        ),
        pytest.param(_set(("junk",), 1), "record 5 with unexpected junk", id="envelope-extra-key"),
        pytest.param(
            lambda doc: [dict(doc, null_result=doc["result"])],
            "record 5 with unexpected null_result",
            id="null-result-without-has-null",
        ),
        pytest.param(
            _delete(("result", "history")), "TrialResult without history", id="no-history"
        ),
        pytest.param(
            _delete(("result", "history", -1)),
            "TrialResult history of 2 looks, not 3",
            id="history-short",
        ),
        pytest.param(
            _set(("result", "history", 0, "n_per_arm"), {"zzz": 1}),
            "n_per_arm are not keyed by exactly the design's arms",
            id="history-sizes-foreign-arm",
        ),
        *(
            pytest.param(edit, message, id=name)
            for name, (edit, message) in RECORDS_OFF_THE_DESIGN.items()
        ),
    ],
)
def test_corrupt_record_reported_by_every_verb(spec_path, tmp_path, capsys, raw, message):
    """``raw`` is a record's bytes, or an edit of seed 5's good record, made
    in place or returning the record documents to write instead."""
    good, bad = tmp_path / "good.shard", tmp_path / "bad.shard"
    assert main(["run", str(spec_path), "--seeds", "1..2", "--workers", "1", "--out", str(good)]) == 0
    raws = [raw]
    if callable(raw):
        assert main(["run", str(spec_path), "--seeds", "5", "--workers", "1", "--out", str(bad)]) == 0
        doc = json.loads(montecarlo._record_bytes(montecarlo.load_shard(bad), 0))
        raws = [json.dumps(d).encode() for d in raw(doc) or [doc]]
    _shard_with_record(bad, good, *raws)
    capsys.readouterr()
    out = tmp_path / "out.shard"
    for argv in (["summary", str(bad)], ["combine", str(good), str(bad), "--out", str(out)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt shard")
        assert message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, message, extended",
    [
        *(pytest.param(e, m, 1, id=name) for name, (e, m) in RECORDS_OFF_THE_DESIGN.items()),
        pytest.param(
            _null_result(_delete(("result", "sample_sizes", "control"))),
            "record 5: sample_sizes are not keyed by exactly the design's arms",
            1,
            id="null-sizes-missing-arm",
        ),
        *(pytest.param(e, m, 2, id=name) for name, (e, m) in DATASETS_OFF_THE_DESIGN.items()),
    ],
)
def test_record_off_the_design_is_corrupt_in_every_container(
    spec_path, tmp_path, capsys, edit, message, extended
):
    """A binary shard and a JSON export holding the records ``edit`` makes of
    seed 5's good record, run at ``extended``, are corrupt to ``load_shard``,
    to ``combine_shard_files`` and to ``summary``."""
    good, bad, out = (tmp_path / n for n in ("good.shard", "bad.shard", "out.shard"))
    export = tmp_path / "bad.json"
    run = ["run", str(spec_path), "--workers", "1", "--extended", str(extended)]
    assert main([*run, "--seeds", "1..2", "--out", str(good)]) == 0
    assert main([*run, "--seeds", "5", "--out", str(bad)]) == 0
    batch = montecarlo.load_shard(bad)
    montecarlo.save_shard_json(batch, export)
    doc = json.loads(montecarlo._record_bytes(batch, 0))
    docs = edit(doc) or [doc]
    has_null = "null_result" in docs[0]
    _shard_with_record(bad, good, *(json.dumps(d).encode() for d in docs), has_null=has_null)
    exported = json.loads(export.read_text())
    exported["header"].update(has_null=has_null, n_records=len(docs))
    exported["records"] = docs
    export.write_text(json.dumps(exported))

    for read in (
        lambda: montecarlo.load_shard(bad),
        lambda: montecarlo.load_shard(export),
        lambda: montecarlo.combine_shard_files([good, bad], out),
    ):
        with pytest.raises(montecarlo.ShardError, match=re.escape(message)):
            read()
    assert not out.exists()
    capsys.readouterr()
    for shard in (bad, export):
        assert main(["summary", str(shard)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt shard") and message in err


def test_combine_refuses_out_of_order_input(spec_path, tmp_path, capsys):
    good, pair, bad = (tmp_path / n for n in ("good.shard", "pair.shard", "bad.shard"))
    assert main(["run", str(spec_path), "--seeds", "1..2", "--workers", "1", "--out", str(good)]) == 0
    assert main(["run", str(spec_path), "--seeds", "3..4", "--workers", "1", "--out", str(pair)]) == 0
    batch = montecarlo.load_shard(pair)
    _shard_with_record(
        bad, pair, montecarlo._record_bytes(batch, 1), montecarlo._record_bytes(batch, 0)
    )
    capsys.readouterr()
    out = tmp_path / "out.shard"
    assert main(["combine", str(good), str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: corrupt shard") and "record 3 out of seed order" in err
    assert not out.exists()


def test_combine_refuses_json_export(spec_path, tmp_path, capsys):
    shard, export = tmp_path / "s.shard", tmp_path / "s.json"
    assert main(["run", str(spec_path), "--seeds", "1..2", "--workers", "1", "--out", str(shard)]) == 0
    montecarlo.save_shard_json(montecarlo.load_shard(shard), export)
    capsys.readouterr()
    assert main(["summary", str(export)]) == 0
    assert main(["combine", str(export), "--out", str(tmp_path / "c.shard")]) == 2
    assert "bad magic bytes" in capsys.readouterr().err


def test_record_without_null_result_is_corrupt(spec_path, tmp_path, capsys):
    good, bad = tmp_path / "good.shard", tmp_path / "bad.shard"
    assert main(["run", str(spec_path), "--seeds", "1..2", "--workers", "1", "--out", str(good)]) == 0
    raw = montecarlo._record_bytes(montecarlo.load_shard(good), 0)
    _shard_with_record(bad, good, raw, has_null=True)
    capsys.readouterr()
    out = tmp_path / "out.shard"
    for argv in (["summary", str(bad)], ["combine", str(good), str(bad), "--out", str(out)]):
        assert main(argv) == 2
        assert "record 1 without a result" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (None, "not JSON"),
        (_delete(("header",)), "header is not a JSON object"),
        (_delete(("records",)), "without header and records"),
        (_delete(("header", "fingerprint")), "header without fingerprint"),
        (_delete(("records", 0, "result")), "record 1 without a result"),
        (
            _delete(("header", "spec_document", "model", "arms")),
            "header design: model: missing required key(s): arms",
        ),
        (
            _delete(("header", "spec_document", "n_max")),
            "header design: missing required key(s): n_max",
        ),
        (_set(("header", "extended"), "x"), "header extended of the wrong type (str)"),
        (_set(("header", "seed_min"), "a"), "header seed_min of the wrong type (str)"),
        (
            _set(("header", "spec_document", "n_max"), "x"),
            "header design: n_max must be an integer, got 'x'",
        ),
        (_set(("header", "fingerprint"), "0" * 64), "header fingerprint is not its design's"),
        (_set(("header", "seed_min"), True), "header seed_min of the wrong type (bool)"),
        (
            _set(("header", "format_version"), True),
            "header format_version of the wrong type (bool)",
        ),
    ],
    ids=[
        "not-json", "no-header", "no-records", "no-fingerprint", "no-result", "no-arms",
        "no-n-max", "extended-str", "seed-min-str", "n-max-str", "foreign-fingerprint",
        "seed-min-bool", "format-version-bool",
    ],
)
def test_corrupt_json_export_reported(spec_path, tmp_path, capsys, edit, message):
    """``edit`` changes a good export's document in place; None writes text
    that is not JSON.  Where the edited document still holds a header and
    records, a binary shard of them is as corrupt as the export."""
    shard, export, bad = tmp_path / "s.shard", tmp_path / "s.json", tmp_path / "bad.shard"
    assert main(["run", str(spec_path), "--seeds", "1..2", "--workers", "1", "--out", str(shard)]) == 0
    montecarlo.save_shard_json(montecarlo.load_shard(shard), export)
    corrupt = [export]
    if edit is None:
        export.write_text("{broken")
    else:
        doc = json.loads(export.read_text())
        edit(doc)
        export.write_text(json.dumps(doc))
        if isinstance(doc.get("header"), dict) and "records" in doc:
            _write_shard(bad, doc["header"], [json.dumps(r).encode() for r in doc["records"]])
            corrupt.append(bad)
    out = tmp_path / "out.shard"
    for path in corrupt:
        # combine takes binary shards only: an export's magic bytes are wrong
        combined = message if path == bad else "bad magic bytes"
        with pytest.raises(montecarlo.ShardError, match=re.escape(message)):
            montecarlo.load_shard(path)
        with pytest.raises(montecarlo.ShardError, match=re.escape(combined)):
            montecarlo.combine_shard_files([shard, path], out)
        capsys.readouterr()
        for argv, expected in (
            (["summary", str(path)], message),
            (["combine", str(shard), str(path), "--out", str(out)], combined),
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: corrupt shard") and expected in err
    assert not out.exists()


def test_out_of_range_rule_parameter_reported(tmp_path, capsys):
    doc = count_dose_design(
        eff_arm_rule={"family": "infofract", "params": {"b": 1.5, "p": 1.5}}
    )
    path, out = tmp_path / "range.json", tmp_path / "range.shard"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--workers", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "eff_arm_rule: parameter b must lie in (0, 1), got 1.5" in err
    assert not out.exists()


def test_datagen_error_reported(tmp_path, capsys):
    doc = count_dose_design()
    doc["beta_true"] = [800.0] + doc["beta_true"][1:]
    path, out = tmp_path / "overflow.json", tmp_path / "overflow.shard"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--workers", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: response mean is not finite; check beta_true and link\n"
    assert not out.exists()


def test_rule_error_reported(spec_path, tmp_path, capsys, monkeypatch):
    def degenerate(*args, **kwargs):
        raise RuleError("all RAR posteriors are zero; weights are degenerate")

    monkeypatch.setattr(montecarlo, "run_batch", degenerate)
    assert main(["run", str(spec_path), "--out", str(tmp_path / "r.shard")]) == 2
    assert capsys.readouterr().err == (
        "error: all RAR posteriors are zero; weights are degenerate\n"
    )


def _fresh_interpreter(code: str) -> str:
    """The last line ``code`` prints when run in a new interpreter that
    imports this ``mamsim``."""
    src = str(Path(mamsim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()[-1] if out.stdout.strip() else ""


DESIGNS_DIR = Path(mamsim.__file__).resolve().parents[2] / "designs"
SHIPPED_DESIGNS = sorted(str(p) for p in DESIGNS_DIR.glob("*.json"))
NUMERIC_LOADED = (
    "print(' '.join(m for m in sys.modules if m.partition('.')[0] in ('numpy', 'scipy')))"
)


def test_import_loads_no_test_reference():
    # every ``mamsim run`` of a cluster job pays for the import: it must not
    # load the per-replicate reference fit, the scipy modules only it and the
    # tests use, or orjson, which only shard reads and writes load; nor numpy
    # and the process pool, which the report verbs never use
    probe = (
        "import sys, mamsim; print(' '.join(m for m in ('mamsim.reference', "
        "'scipy.stats', 'scipy.optimize', 'scipy.integrate', 'scipy.linalg', 'orjson', "
        "'numpy', 'concurrent.futures.process') if m in sys.modules))"
    )
    assert _fresh_interpreter(probe).split() == []


def test_runs_load_no_reference():
    # rules, datagen and glm forward some names to mamsim.reference for the
    # benchmark's tracer; a run on the RAR and the count design reaches none
    names = ("orr_six_arm_alternative", "count_dose_finding")
    designs = [str(DESIGNS_DIR / f"{name}.json") for name in names]
    probe = (
        "import sys, pathlib, mamsim\n"
        f"for path in {designs!r}:\n"
        "    spec = mamsim.validate_spec(mamsim.parse_spec(pathlib.Path(path).read_text()))\n"
        "    mamsim.run_batch(spec, seeds=range(1, 9), workers=1)\n"
        "print('mamsim.reference' in sys.modules)"
    )
    assert _fresh_interpreter(probe) == "False"


def test_package_imports_no_test_apparatus():
    # the quadrature oracle, and the scipy modules only it used, live in the
    # tests: no package module imports them
    banned = ("scipy.optimize", "scipy.stats", "scipy.integrate")
    package = Path(mamsim.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names = [base] + [f"{base}.{alias.name}".lstrip(".") for alias in node.names]
            else:
                continue
            found += [
                f"{path.name}: {name}"
                for name in names
                if name.startswith(banned) or "oracle" in name
            ]
    assert found == []
    assert importlib.util.find_spec("mamsim.oracle") is None


def test_montecarlo_binds_neither_the_fit_nor_orjson():
    # glm owns scipy.special and comes with the engine; records owns orjson
    tree = ast.parse(Path(montecarlo.__file__).read_text())
    names = [
        name
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or ""] + [a.name for a in node.names]
    ]
    assert [n for n in names if n.split(".")[0] in ("glm", "scipy", "orjson")] == []


def _six_arm_rar_eta(eta):
    doc = json.loads((DESIGNS_DIR / "orr_six_arm_alternative.json").read_text())
    doc["rar_rule"]["params"]["eta"] = eta
    return doc


def _count_dose_intercept(b0):
    doc = count_dose_design()
    doc["beta_true"][0] = b0
    return doc


def _nuisance(design, **nuisance):
    doc = design()
    doc["model"]["nuisance"] = nuisance
    return doc


def _uniform_covariate(low, high):
    doc = gaussian_two_stage_design(beta_true=[0.0, 1.0, 0.0, 0.0])
    doc["model"]["covariates"] = [
        {"name": "u", "generator": "uniform", "params": {"low": low, "high": high}}
    ]
    return doc


# valid-looking designs whose values once overflowed Python or numpy into an
# uncaught exception: each must end in a named error, which the CLI reports;
# only the gaussian sd and the uniform range are refused at validation
EXTREME_DESIGNS = [
    pytest.param(_six_arm_rar_eta(-600.0), None, RuleError, "gamma 3.0, eta -600.0", id="rar-eta"),
    pytest.param(_count_dose_intercept(45.0), None, DataGenError, "lam value too large", id="lam"),
    pytest.param(
        _nuisance(count_dose_design, dispersion=1e300), None, FitError, "infs or NaNs",
        id="dispersion",
        # the fit's arithmetic overflows on the way to the non-finite Hessian
        marks=pytest.mark.filterwarnings(
            "ignore:overflow encountered:RuntimeWarning",
            "ignore:invalid value encountered:RuntimeWarning",
        ),
    ),
    pytest.param(
        _nuisance(gaussian_two_stage_design, sd=1.35e154), SpecError, FitError,
        "sd whose square is finite, got 1.35e+154", id="gaussian-sd",
    ),
    pytest.param(
        _uniform_covariate(-1e308, 1e308), SpecError, DataGenError,
        "needs a finite high - low, got low -1e+308 and high 1e+308", id="uniform-range",
    ),
]


@pytest.mark.parametrize("doc, refused, error, message", EXTREME_DESIGNS)
def test_extreme_design_ends_in_named_error(doc, refused, error, message, tmp_path, capsys):
    spec = config.parse_spec(json.dumps(doc))
    if refused is None:
        validated = config.validate_spec(spec)
    else:
        with pytest.raises(refused, match=re.escape(message)):
            config.validate_spec(spec)
        validated = config.ValidatedSpec(spec, "0" * 64)  # the run's own checks
    with pytest.raises(error, match=re.escape(message)):
        montecarlo.run_batch(validated, seeds=range(1, 5))

    path, out = tmp_path / "extreme.json", tmp_path / "extreme.shard"
    path.write_text(json.dumps(doc))
    argv = ["run", str(path), "--replicates", "4", "--workers", "1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def _report_verbs(shards, tmp_path) -> list[list[str]]:
    """A cluster job's report verbs: ``combine`` of ``shards``, then
    ``summary --full`` and both ``plot-data`` kinds of the result."""
    ab, est, size = (str(tmp_path / n) for n in ("ab.shard", "est.csv", "size.csv"))
    return [
        ["combine", *map(str, shards), "--out", ab],
        ["summary", ab, "--full"],
        ["plot-data", ab, "--kind", "estimates", "--out", est],
        ["plot-data", ab, "--kind", "size", "--out", size],
    ]


def _run_parts(design, tmp_path, *options) -> list[Path]:
    """Two shards of ``design``, seeds 1..3 and 4..6, run with ``options``."""
    parts = [tmp_path / "a.shard", tmp_path / "b.shard"]
    for seeds, out in zip(("1..3", "4..6"), parts):
        argv = ["run", str(design), "--seeds", seeds, "--workers", "1", *options]
        assert main([*argv, "--out", str(out)]) == 0
    return parts


def test_report_verbs_load_no_scipy(spec_path, tmp_path):
    # the cluster flow's combine, summary and plot-data processes fit nothing,
    # and neither do parsing and validating a design: they load no scipy and
    # no numpy module
    verbs = _report_verbs(_run_parts(spec_path, tmp_path), tmp_path)
    assert len(SHIPPED_DESIGNS) == 5
    probe = (
        "import sys, pathlib, mamsim\n"
        "from mamsim.cli import main\n"
        f"for path in {SHIPPED_DESIGNS!r}:\n"
        "    mamsim.validate_spec(mamsim.parse_spec(pathlib.Path(path).read_text()))\n"
        f"assert [main(argv) for argv in {verbs!r}] == [0, 0, 0, 0]\n"
        + NUMERIC_LOADED
    )
    assert _fresh_interpreter(probe).split() == []


def test_covariate_validation_and_report_verbs_load_no_fit(tmp_path):
    # validating a covariate design draws a subject with numpy, through
    # datagen, and so does reading its shards; neither loads the fit or scipy
    design = tmp_path / "covariates.json"
    design.write_text(json.dumps(covariate_design()))
    verbs = _report_verbs(_run_parts(design, tmp_path, "--extended", "2"), tmp_path)
    probe = (
        "import sys, pathlib, mamsim\n"
        "from mamsim.cli import main\n"
        f"mamsim.validate_spec(mamsim.parse_spec(pathlib.Path({str(design)!r}).read_text()))\n"
        f"assert [main(argv) for argv in {verbs!r}] == [0, 0, 0, 0]\n"
        "assert 'mamsim.datagen' in sys.modules\n"
        "print(' '.join(m for m in sys.modules if m == 'mamsim.glm' or m.split('.')[0] == 'scipy'))"
    )
    assert _fresh_interpreter(probe).split() == []


def test_validation_and_report_verbs_run_with_numpy_blocked(tmp_path):
    # a process that cannot import numpy (None in sys.modules makes every
    # import of it an ImportError) still validates every shipped design and
    # runs the report verbs, here on a six-arm RAR design with its history
    # and dataset columns
    parts = _run_parts(DESIGNS_DIR / "orr_six_arm_null.json", tmp_path, "--extended", "2")
    verbs = _report_verbs(parts, tmp_path)
    probe = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import pathlib, mamsim\n"
        "from mamsim import cli\n"
        f"for path in {SHIPPED_DESIGNS!r}:\n"
        "    mamsim.validate_spec(mamsim.parse_spec(pathlib.Path(path).read_text()))\n"
        f"print([cli.main(argv) for argv in {verbs!r}])"
    )
    assert _fresh_interpreter(probe) == "[0, 0, 0, 0]"


def test_pool_starts_after_scipy_special_loads():
    # the pool's processes fork from the caller and inherit the module, so
    # none of them imports it at its first fit
    design = DESIGNS_DIR / "count_dose_finding.json"
    probe = (
        "import concurrent.futures, sys, pathlib, mamsim\n"
        "from mamsim import montecarlo\n"
        "seen = []\n"
        "class Pool(concurrent.futures.ProcessPoolExecutor):\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        seen.append('scipy.special' in sys.modules)\n"
        "        super().__init__(*args, **kwargs)\n"
        "concurrent.futures.ProcessPoolExecutor = Pool\n"
        f"spec = mamsim.validate_spec(mamsim.parse_spec(pathlib.Path({str(design)!r}).read_text()))\n"
        "montecarlo.run_batch(spec, seeds=range(1, 5), workers=2)\n"
        "print(seen)"
    )
    assert _fresh_interpreter(probe) == "[True]"


def test_malformed_design_number_reported(tmp_path, capsys):
    doc = count_dose_design()
    doc["beta_true"][3] = float("inf")  # written as the JSON extension Infinity
    path, out = tmp_path / "inf.json", tmp_path / "inf.shard"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--workers", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: beta_true[3] must be a finite number, got inf\n"
    assert not out.exists()


def test_covariate_generator_parameter_reported(tmp_path, capsys):
    doc = gaussian_two_stage_design(beta_true=[0.0, 0.8, 0.0, 0.5])
    doc["model"] = {**doc["model"], "covariates": [{"name": "z", "generator": "bernoulli"}]}
    path, out = tmp_path / "cov.json", tmp_path / "cov.shard"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--workers", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: bernoulli covariate needs parameter 'p'\n"
    assert not out.exists()


def test_repeated_covariate_column_reported(tmp_path, capsys):
    # a repeated name would put one column in both covariate positions
    doc = gaussian_two_stage_design(beta_true=[0.0, 0.8, 0.0, 0.5, 0.0])
    age = {"name": "age", "generator": "normal", "params": {"mean": 0, "sd": 1}}
    uniform = {"name": "age", "generator": "uniform", "params": {"low": 5, "high": 6}}
    doc["model"] = {**doc["model"], "covariates": [age, uniform]}
    path, out = tmp_path / "cov.json", tmp_path / "cov.shard"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--workers", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: covariate column names must be unique; repeated: age\n"
    assert not out.exists()


def test_covariate_generator_parameter_type_reported(tmp_path, capsys):
    doc = gaussian_two_stage_design(beta_true=[0.0, 0.8, 0.0, 0.5])
    covariate = {"name": "z", "generator": "normal", "params": {"sd": "x"}}
    doc["model"] = {**doc["model"], "covariates": [covariate]}
    path, out = tmp_path / "cov.json", tmp_path / "cov.shard"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--workers", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: normal covariate parameter 'sd' must be a number, got 'x'\n"
    assert not out.exists()
