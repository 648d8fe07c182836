"""Command-line front end, driven through main(argv)."""

import inspect
import json
import re

import pytest

from hamgame import cli
from hamgame.board import GameConfig
from hamgame.cli import build_parser, load_config_file, main
from hamgame.runner import run_game


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def saved(tmp_path):
    """A maxdanger game at n = 60, as `run --out` saves it."""
    out = tmp_path / "game.jsonl"
    run_cli("run", "--n", "60", "--seed", "11", "--breaker",
            "maxdanger", "--out", str(out))
    return out


class TestRun:
    def test_plays_and_writes_log(self, tmp_path, capsys):
        out = tmp_path / "game.jsonl"
        rc = run_cli("run", "--n", "60", "--seed", "11",
                     "--out", str(out))
        assert rc == 0
        text = capsys.readouterr().out
        assert "MakerWin" in text and "b=3" in text
        assert out.exists()
        # Second line is the stats block.
        stats = json.loads(text.strip().splitlines()[-1])
        assert stats["maker_turns"] > 0

    def test_explicit_bias_overrides_beta(self, capsys):
        rc = run_cli("run", "--n", "60", "--seed", "11", "--b", "5")
        assert rc == 0
        assert "b=5" in capsys.readouterr().out


class TestFlagsFollowScaled:
    def test_every_scaled_keyword_is_a_flag(self):
        params = inspect.signature(GameConfig.scaled).parameters.values()
        keywords = {p.name for p in params
                    if p.kind is p.KEYWORD_ONLY and p.name != "seed"}
        for command in ("run", "sweep"):
            parser = build_parser().subcommand_parsers[command]
            assert keywords <= {a.dest for a in parser._actions}, command

    def test_unset_flags_take_scaleds_defaults(self, tmp_path):
        out = tmp_path / "game.jsonl"
        assert run_cli("run", "--n", "60", "--seed", "11",
                       "--out", str(out)) == 0
        assert out.read_bytes() == \
            run_game(GameConfig.scaled(60, seed=11)).log.dumps().encode()


class TestBadValues:
    @pytest.mark.parametrize("argv, error", [
        (["run", "--n", "2"], "run: error: n must be >= 3, got 2"),
        (["run", "--n", "1"], "run: error: n must be >= 3, got 1"),
        (["run", "--b", "0"], "run: error: b must be in [1, n-2], got 0"),
        (["run", "--quota", "0"], "run: error: quota must be >= 1, got 0"),
        (["run", "--closure-budget", "-1"],
         "run: error: closure_budget must be >= 0, got -1"),
        (["run", "--beta", "nan"],
         "run: error: cannot convert float NaN to integer"),
        (["run", "--s0-coeff", "inf"],
         "run: error: cannot convert float infinity to integer"),
        (["sweep", "--n", "40,2"], "sweep: error: n must be >= 3, got 2"),
        (["sweep", "--n", "40", "--max-turns", "39"],
         "sweep: error: max_turns must be >= n, got 39"),
    ])
    def test_value_gameconfig_rejects_is_one_line(self, capsys, argv, error):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"hamgame {error}\n"

    @pytest.mark.parametrize("flag, value, reason", [
        ("n", "40,x", "expected comma-separated ints, got '40,x'"),
        ("n", "40,,60", "expected comma-separated ints, got '40,,60'"),
        ("seeds", "-1", "expected an int >= 1, got '-1'"),
        ("seeds", "0", "expected an int >= 1, got '0'"),
        ("seeds", "two", "expected an int >= 1, got 'two'"),
    ])
    def test_sweep_flag_is_checked_when_parsed(self, tmp_path, capsys, flag,
                                               value, reason):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", f"--{flag}", value)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --{flag}: {reason}" in captured.err
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"{flag} = {value}\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--config", str(cfg))
        assert exc.value.code == 2
        assert f"{cfg}:1: {flag}: {reason}" in capsys.readouterr().err


def rewrite(path, edit, newline="\n"):
    """Apply `edit` to the lines of a saved log and write it back."""
    lines = edit(path.read_text().splitlines())
    path.write_bytes((newline.join(lines) + newline).encode())


def edit_record(index, change):
    """An edit that applies `change` in place to the JSON object on line
    index + 1."""
    def edit(lines):
        rec = json.loads(lines[index])
        change(rec)
        lines[index] = json.dumps(rec, separators=(",", ":"))
        return lines
    return edit


def truncate(lines):
    lines[1] = lines[1][:40]
    return lines


# Each malformed log, with the start of what replay and audit print.
MALFORMED = {
    "truncated-json": (truncate, "INVALID log: line 2: not JSON"),
    "record-without-edges": (edit_record(1, lambda r: r.pop("edges")),
                             "INVALID log: line 2: record lacks"),
    "unknown-record-key": (edit_record(1, lambda r: r.update(x=1)),
                           "INVALID log: line 2: unknown record key"),
    "vertex-minus-one": (edit_record(1, lambda r: r.update(edges=[[-1, 5]])),
                         "INVALID log: line 2: edge [-1, 5] is not two"),
    "vertex-n": (edit_record(1, lambda r: r.update(edges=[[0, 60]])),
                 "INVALID log: line 2: edge [0, 60] is not two"),
    "promoted-out-of-range": (edit_record(1, lambda r: r.update(promoted=[60])),
                              "INVALID log: line 2: promoted [60]"),
    "header-key-missing": (edit_record(0, lambda r: r["meta"].pop("quota")),
                           "INVALID log: line 1: header has no 'quota'"),
}

# Logs that parse and rebuild the same position, but are not the bytes
# the engine writes: the rerun comparison must catch them.
ALTERED = {
    "extra-record-key": edit_record(1, lambda r: r.update(promoted=[])),
    "reordered-keys": edit_record(1, lambda r: r.update(
        turn=r.pop("turn"), player=r.pop("player"))),
    "case-null": edit_record(1, lambda r: r.update(case=None)),
}


class TestScriptFlag:
    def test_script_alone_replays_the_saved_breaker(self, saved, tmp_path,
                                                    capsys):
        again = tmp_path / "again.jsonl"
        assert run_cli("run", "--n", "60", "--seed", "11", "--script",
                       str(saved), "--out", str(again)) == 0
        assert again.read_bytes() == saved.read_bytes()

    def test_malformed_script_is_a_clear_error(self, saved, capsys):
        rewrite(saved, truncate)
        capsys.readouterr()
        assert run_cli("run", "--n", "60", "--script", str(saved)) == 1
        assert capsys.readouterr().out.startswith(
            f"script {saved}: line 2: not JSON")

    def test_script_for_another_bias_is_a_clear_error(self, saved, capsys):
        capsys.readouterr()
        assert run_cli("run", "--n", "60", "--seed", "11", "--b", "5",
                       "--script", str(saved)) == 1
        assert capsys.readouterr().out == (
            f"script {saved}: turn 1: scripted turn has 3 edges, "
            "expected 5\n")

    @pytest.mark.parametrize("argv, config", [
        (["run", "--breaker", "scripted"], None),
        (["sweep", "--breaker", "scripted"], None),
        (["run", "--script", "{script}", "--breaker", "random"], None),
        (["run", "--script", "{script}"], "breaker = isolator\n"),
        (["run", "--breaker", "isolator"], "script = {script}\n"),
    ])
    def test_usage_errors(self, saved, tmp_path, capsys, argv, config):
        argv = [a.format(script=saved) for a in argv]
        if config is not None:
            cfg = tmp_path / "game.cfg"
            cfg.write_text("n = 60\n" + config.format(script=saved))
            argv += ["--config", str(cfg)]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestReplayCommand:
    def test_clean_log_replays(self, saved, capsys):
        capsys.readouterr()
        assert run_cli("replay", str(saved)) == 0
        assert capsys.readouterr().out.startswith("OK fingerprint=")

    def test_tampered_fingerprint_caught(self, saved, capsys):
        lines = saved.read_text().splitlines()
        wrapped = json.loads(lines[-1])
        fp = wrapped["end"]["fingerprint"]
        wrapped["end"]["fingerprint"] = "0" * len(fp)
        lines[-1] = json.dumps(wrapped)
        saved.write_text("\n".join(lines) + "\n")
        assert run_cli("replay", str(saved)) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_duplicate_breaker_edge_is_a_clear_error(self, saved, capsys):
        lines = saved.read_text().splitlines()
        rec = json.loads(lines[1])
        assert rec["player"] == "B" and rec["turn"] == 1
        rec["edges"].append(rec["edges"][0][::-1])
        lines[1] = json.dumps(rec)
        saved.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("replay", str(saved)) == 1
        out = capsys.readouterr().out
        assert out.startswith("INVALID log: turn 1: Breaker edge")
        assert "already claimed by Breaker" in out

    @pytest.mark.parametrize("command", ["replay", "audit"])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_log_is_invalid(self, saved, capsys, command, case):
        edit, verdict = MALFORMED[case]
        rewrite(saved, edit)
        capsys.readouterr()
        assert run_cli(command, str(saved)) == 1
        assert capsys.readouterr().out.startswith(verdict)

    @pytest.mark.parametrize("command", ["replay", "audit"])
    @pytest.mark.parametrize("key, value, reason", [
        ("stats", 5, "end stats 5 is not an object"),
        ("certificate", 5, "end certificate is not null"),
        ("outcome", 5, "end outcome 5 is not a string"),
    ])
    def test_malformed_end_record_is_invalid(self, saved, capsys, command,
                                             key, value, reason):
        rewrite(saved, edit_record(-1, lambda r: r["end"].update(
            {key: value})))
        lines = len(saved.read_text().splitlines())
        capsys.readouterr()
        assert run_cli(command, str(saved)) == 1
        assert capsys.readouterr().out.startswith(
            f"INVALID log: line {lines}: {reason}")

    def test_header_bias_above_the_records_is_invalid(self, saved, capsys):
        rewrite(saved, edit_record(0, lambda r: r["meta"].update(b=5)))
        capsys.readouterr()
        assert run_cli("replay", str(saved)) == 1
        assert capsys.readouterr().out == \
            "INVALID log: turn 1: Breaker claimed 3 edges, expected 5\n"

    @pytest.mark.parametrize("command", ["replay", "audit"])
    def test_missing_file_is_invalid(self, tmp_path, capsys, command):
        path = tmp_path / "absent.jsonl"
        assert run_cli(command, str(path)) == 1
        assert capsys.readouterr().out == \
            f"INVALID log: cannot read {path}: No such file or directory\n"

    @pytest.mark.parametrize("case", sorted(ALTERED) + ["crlf-line-ends"])
    def test_altered_bytes_are_a_mismatch(self, saved, capsys, case):
        if case == "crlf-line-ends":
            rewrite(saved, lambda lines: lines, newline="\r\n")
        else:
            rewrite(saved, ALTERED[case])
        capsys.readouterr()
        assert run_cli("replay", str(saved)) == 1
        assert capsys.readouterr().out == \
            "MISMATCH: engine rerun diverged from saved log\n"

    @pytest.mark.parametrize("seed", [3, 5, 7])
    def test_diverging_rerun_is_a_mismatch(self, tmp_path, capsys, seed):
        out = tmp_path / "game.jsonl"
        run_cli("run", "--n", "200", "--seed", str(seed), "--out", str(out))
        rewrite(out, edit_record(
            0, lambda r: r["meta"].update(seed=seed + 100)))
        capsys.readouterr()
        assert run_cli("replay", str(out)) == 1
        assert re.match(r"MISMATCH: engine rerun diverged: turn \d+: scripted "
                        r"edge \(\d+, \d+\) already claimed by Maker\n$",
                        capsys.readouterr().out)

    @pytest.mark.parametrize("policy", ["random", "isolator", "maxdanger",
                                        "pairkiller"])
    def test_every_policy_replays(self, tmp_path, capsys, policy):
        out = tmp_path / "game.jsonl"
        run_cli("run", "--n", "200", "--seed", "2", "--breaker", policy,
                "--out", str(out))
        capsys.readouterr()
        assert run_cli("replay", str(out)) == 0
        assert capsys.readouterr().out.startswith("OK fingerprint=")


def blank_line_in_the_middle(data):
    lines = data.split(b"\n")
    mid = len(lines) // 2
    return b"\n".join(lines[:mid] + [b""] + lines[mid:])


class TestReplayVerdicts:
    """replay compares the rerun with the file a chunk at a time; each
    edited copy of one log still gets the verdict the whole-text
    comparison gave."""

    MISMATCH = "MISMATCH: engine rerun diverged from saved log\n"

    @pytest.mark.parametrize("edit, verdict", [
        (lambda data: data + b"\n", MISMATCH),
        (lambda data: data[:-1], MISMATCH),
        (lambda data: data.replace(b"\n", b"\r\n"), MISMATCH),
        (blank_line_in_the_middle, MISMATCH),
        (lambda data: data[:len(data) // 2],
         "INVALID log: line 111: not JSON: Expecting ':' delimiter at "
         "column 20\n"),
        (lambda data: data[:-3] + b"@" + data[-2:],
         "INVALID log: line 210: not JSON: Expecting ',' delimiter at "
         "column 718\n"),
    ], ids=["extra-final-newline", "no-final-newline", "crlf",
            "blank-line", "truncated", "end-line-byte"])
    def test_edited_log(self, tmp_path, capsys, edit, verdict):
        path = tmp_path / "game.jsonl"
        run_cli("run", "--n", "60", "--seed", "11", "--out", str(path))
        capsys.readouterr()
        assert run_cli("replay", str(path)) == 0
        assert capsys.readouterr().out == "OK fingerprint=fce968e75ba23db9" \
            "1b27bc35c927bacdcbed03023b4e7e1dc00aa10d09ae3ac4\n"
        path.write_bytes(edit(path.read_bytes()))
        assert run_cli("replay", str(path)) == 1
        assert capsys.readouterr().out == verdict


class TestAuditCommand:
    def test_winning_log_passes(self, tmp_path, capsys):
        out = tmp_path / "game.jsonl"
        run_cli("run", "--n", "60", "--seed", "11", "--out", str(out))
        capsys.readouterr()
        report = tmp_path / "report.json"
        rc = run_cli("audit", str(out), "--out", str(report))
        text = capsys.readouterr().out
        assert rc == 0
        assert "hamilton-cycle: PASS" in text
        assert "trouble_ok: PASS" in text
        body = json.loads(report.read_text())
        assert body["potential_failures"] == 0
        assert body["accounting"]["case_sum_ok"] is True


    @pytest.mark.parametrize("edit, verdict", [
        # Vertex 3 settles at turn 1, so a later join cannot use it.
        (edit_record(1, lambda r: r.update(promoted=[3, 3])),
         "turn 51: join(33, 3): not endpoints of two paths"),
        (edit_record(2, lambda r: r.update(case="P1.C1.2a")),
         "turn 1: join(48, 51): not endpoints of two paths"),
    ], ids=["breaker-promotes-twice", "join-of-non-endpoints"])
    def test_records_that_contradict_each_other_are_invalid(
            self, saved, capsys, edit, verdict):
        rewrite(saved, edit)
        capsys.readouterr()
        assert run_cli("audit", str(saved)) == 1
        assert capsys.readouterr().out == f"INVALID log: {verdict}\n"


class TestOutPath:
    @pytest.mark.parametrize("command", ["run", "audit"])
    def test_unwritable_path_is_one_line(self, saved, tmp_path, capsys,
                                         monkeypatch, command):
        out = tmp_path / "missing" / "x.json"
        # Nothing may run before the path is found unwritable.
        for name in ("run_game", "potential_audit", "GameLog"):
            monkeypatch.setattr(cli, name, None)
        argv = ["run", "--n", "60", "--seed", "11"] if command == "run" \
            else ["audit", str(saved)]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", str(out))
        assert exc.value.code == 1
        assert capsys.readouterr().out == \
            f"cannot write {out}: No such file or directory\n"
        assert not out.parent.exists()


class TestSweepCommand:
    def test_grid_artifacts(self, tmp_path, capsys):
        out = tmp_path / "grid"
        rc = run_cli("sweep", "--n", "40,60", "--seeds", "2",
                     "--seed", "4", "--audit-samples", "200",
                     "--out", str(out))
        assert rc == 0
        assert "4 games" in capsys.readouterr().out
        assert (out / "sweep.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_values"] == [40, 60]


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "game.cfg"
        cfg.write_text("n = 60          # desk scale\nseed = 11\nb = 5\n")
        run_cli("run", "--config", str(cfg))
        from_file = capsys.readouterr().out.splitlines()[0]
        assert "n=60" in from_file and "b=5" in from_file
        run_cli("run", "--config", str(cfg), "--b", "4")
        assert "b=4" in capsys.readouterr().out.splitlines()[0]

    def test_rejects_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n 60\n")
        with pytest.raises(ValueError, match="expected key=value"):
            load_config_file(str(cfg))

    def test_coercion_types(self, tmp_path):
        cfg = tmp_path / "types.cfg"
        cfg.write_text("n=40\nbeta=0.3\nlimited_only=no\nbreaker=isolator\n")
        values = load_config_file(str(cfg))
        assert values == {"n": 40, "beta": 0.3, "limited_only": False,
                          "breaker": "isolator"}

    def test_unknown_key_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("n = 60\ntau-coef = 0.3\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--config", str(cfg))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"{cfg}:2: tau-coef: not a flag of hamgame run" in captured.err
        assert captured.out == ""

    def test_bad_boolean_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "bool.cfg"
        cfg.write_text("limited-only = flase\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--config", str(cfg))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"{cfg}:1: limited-only: expected one of" in captured.err
        assert captured.out == ""

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--config", str(tmp_path / "absent.cfg"))
        assert exc.value.code == 2
        assert "absent.cfg" in capsys.readouterr().err

    def test_sweep_takes_an_n_list(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("n = 40,60\nseeds = 1\naudit-samples = 200\n")
        out = tmp_path / "grid"
        rc = run_cli("sweep", "--config", str(cfg), "--out", str(out))
        assert rc == 0
        assert "2 games" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_values"] == [40, 60]
