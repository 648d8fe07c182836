"""Command-line front end, driven through main(argv)."""

import json

import pytest

from hamgame.cli import load_config_file, main


def run_cli(*argv):
    return main(list(argv))


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


class TestReplayCommand:
    @pytest.fixture()
    def saved(self, tmp_path):
        out = tmp_path / "game.jsonl"
        run_cli("run", "--n", "60", "--seed", "11", "--breaker",
                "maxdanger", "--out", str(out))
        return out

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
