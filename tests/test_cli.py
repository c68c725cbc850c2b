"""Command-line behavior: exit codes, outputs, file artifacts."""

import json
from pathlib import Path

import pytest

from bichain.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProve:
    def test_proved_exits_zero(self, capsys, fixture_paths):
        code, out, _ = run(capsys, "prove", fixture_paths[1], "--engine", "bi")
        assert code == 0
        assert out.startswith("Proved calls=")

    def test_unknown_exits_two(self, capsys, tmp_path):
        path = tmp_path / "unknown.pw"
        path.write_text("fact: The cow is blue.\nhypothesis: The cow is red.\n",
                        encoding="utf-8")
        code, out, _ = run(capsys, "prove", str(path))
        assert code == 2 and out.startswith("Unknown")

    def test_disproved_exits_one(self, capsys, tmp_path):
        path = tmp_path / "disproved.pw"
        path.write_text(
            "fact: The cow is blue.\n"
            "rule: If someone is blue then they do not chase the bear.\n"
            "hypothesis: The cow chases the bear.\n", encoding="utf-8")
        for engine in ("bi", "forward", "backward"):
            code, out, _ = run(capsys, "prove", str(path), "--engine", engine)
            assert code == 1 and out.startswith("Disproved")

    def test_trace_file_written(self, capsys, fixture_paths, tmp_path):
        trace = tmp_path / "trace.json"
        code, _, _ = run(capsys, "prove", fixture_paths[0], "--trace", str(trace))
        assert code == 0
        doc = json.loads(trace.read_text(encoding="utf-8"))
        assert doc["label"] == "Proved" and doc["calls"] == len(doc["steps"])

    def test_max_steps_flag(self, capsys, tmp_path):
        from bichain.generate import InstanceSpec, PROFILES, generate_instance
        from bichain.language import Label, problem_record
        deep = generate_instance(InstanceSpec(Label.PROVED, 5, seed=90001,
                                              **PROFILES["deep"]))
        path = tmp_path / "deep.jsonl"
        path.write_text(json.dumps(problem_record(deep)) + "\n", encoding="utf-8")
        code, _, _ = run(capsys, "prove", str(path), "--max-steps", "1")
        assert code == 2

    def test_options_problem_prints_choice(self, capsys, tmp_path):
        path = tmp_path / "opts.jsonl"
        path.write_text(json.dumps({
            "facts": ["The cow is blue."],
            "options": ["The cow is red.", "The cow is blue."]}) + "\n",
            encoding="utf-8")
        code, out, _ = run(capsys, "prove", str(path))
        assert code == 0
        assert "option 2: Proved" in out
        assert "chosen: 2" in out

    def test_options_print_each_verdicts_warnings(self, capsys, tmp_path):
        path = tmp_path / "opts.jsonl"
        path.write_text(json.dumps({
            "facts": ["The cow is blue.", "The cow is not blue."],
            "rules": ["If someone is blue then they are big."],
            "options": ["The cow is big.", "The cow is red."]}) + "\n",
            encoding="utf-8")
        _, _, err = run(capsys, "prove", str(path))
        for i in (1, 2):
            assert f"warning: option {i}: InconsistentKB: " in err

    def test_options_trace_is_the_bench_trace(self, capsys, tmp_path):
        path = tmp_path / "opts.jsonl"
        path.write_text(json.dumps({
            "id": "opts", "facts": ["The cow is blue."],
            "options": ["The cow is red.", "The cow is blue."]}) + "\n",
            encoding="utf-8")
        trace = tmp_path / "trace.json"
        run(capsys, "prove", str(path), "--engine", "forward", "--trace", str(trace))
        doc = json.loads(trace.read_text(encoding="utf-8"))
        assert doc["engine"] == "forward"
        run(capsys, "bench", "--corpus", str(path), "--engines", "forward",
            "--report", str(tmp_path / "report.json"), "--trace-dir", str(tmp_path / "traces"))
        bench_doc = json.loads((tmp_path / "traces" / "opts__forward.json").read_text(
            encoding="utf-8"))
        assert doc == bench_doc

    def test_missing_file_is_an_error_code(self, capsys):
        code, _, err = run(capsys, "prove", "no-such-file.pw")
        assert code == 4 and "error" in err


class TestOracle:
    def test_prints_label_and_premises(self, capsys, fixture_paths):
        code, out, _ = run(capsys, "oracle", fixture_paths[1])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "Proved"
        assert lines[1] == "premises: fact 4, fact 10, rule 2, rule 6, rule 7, rule 9"

    def test_options_print_one_label_each(self, capsys, tmp_path):
        path = tmp_path / "opts.jsonl"
        path.write_text(json.dumps({
            "facts": ["The cow is blue."],
            "rules": ["If someone is blue then they are not red."],
            "options": ["The cow is red.", "The cow is blue.", "The cow is big."]}) + "\n",
            encoding="utf-8")
        code, out, _ = run(capsys, "oracle", str(path))
        assert code == 0
        assert out.splitlines() == ["option 1: Disproved", "option 2: Proved",
                                    "option 3: Unknown"]


class TestGen:
    def test_writes_deterministic_corpus(self, capsys, tmp_path):
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        for out in (out1, out2):
            code, _, _ = run(capsys, "gen", "--count", "4", "--depth", "1",
                             "--label", "Proved", "--seed", "321",
                             "--out", str(out), "--profile", "deep")
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 4
        assert all(json.loads(line)["label"] == "Proved" for line in lines)

    def test_exhaustion_reports_an_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--count", "1", "--depth", "5",
                           "--label", "Proved", "--seed", "1",
                           "--out", str(tmp_path / "x.jsonl"))
        # default knobs at depth five may or may not make it within the budget;
        # both outcomes are legal, only a crash is not
        assert code in (0, 4)


class TestBench:
    def test_report_and_summary(self, capsys, fixture_paths, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, "bench", "--corpus", *fixture_paths,
                           "--engines", "bi,forward", "--backend", "symbolic",
                           "--report", str(report))
        assert code == 0
        assert "bi: accuracy=1.0" in out
        assert "calls(forward) / calls(bi)" in out
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert doc["engines"]["bi"]["accuracy"] == 1.0


class TestValidate:
    def test_valid_and_tampered(self, capsys, fixture_paths, tmp_path):
        trace = tmp_path / "trace.json"
        run(capsys, "prove", fixture_paths[0], "--trace", str(trace))
        code, out, _ = run(capsys, "validate", "--trace", str(trace),
                           "--problem", fixture_paths[0])
        assert code == 0 and out.strip() == "valid"
        doc = json.loads(trace.read_text(encoding="utf-8"))
        doc["label"] = "Disproved"
        trace.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "validate", "--trace", str(trace),
                           "--problem", fixture_paths[0])
        assert code == 1 and out.startswith("invalid")

    def test_tampered_steps_are_reported_where_they_diverge(self, capsys, fixture_paths,
                                                              tmp_path):
        cowbear = fixture_paths[1]
        trace = tmp_path / "trace.json"
        run(capsys, "prove", cowbear, "--engine", "bi", "--trace", str(trace))
        original = trace.read_text(encoding="utf-8")
        flipped, emptied, deleted = (json.loads(original) for _ in range(3))
        assert flipped["steps"][5]["module"] == "confusion_check"
        flipped["steps"][5]["confusion"] = not flipped["steps"][5]["confusion"]
        emptied["steps"][0]["facts"] = []
        del deleted["steps"][7]
        for doc, step in ((flipped, 7), (emptied, 3), (deleted, 9)):
            trace.write_text(json.dumps(doc), encoding="utf-8")
            code, out, _ = run(capsys, "validate", "--trace", str(trace), "--problem", cowbear)
            assert code == 1 and out.startswith(f"invalid at step {step}:"), out


class TestUsageErrors:
    def test_bad_usage_exits_three(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["prove"])  # missing file argument
        assert err.value.code == 3

    def test_unknown_engine_exits_three(self, capsys, fixture_paths):
        with pytest.raises(SystemExit) as err:
            main(["prove", fixture_paths[0], "--engine", "diagonal"])
        assert err.value.code == 3
