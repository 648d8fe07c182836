"""Command-line front end.

Four subcommands: `run` plays one seeded game, `sweep` runs an
(n, seed) grid and writes CSV + manifest, `replay` re-derives a saved
game from its log and checks byte identity, `audit` re-verifies a saved
log offline.  A key=value config file can hold any flag's value; flags
given on the command line win.  An unreadable file, or a key or value
the subcommand's flags would not accept, stops the command before any
game runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .audit import potential_audit, turn_accounting, verify_hamilton
from .board import AuditLevel, GameConfig, scaled_defaults
from .breakers import POLICIES, ReplayError, ScriptedBreaker
from .gamelog import GameLog, LogFormatError, LogReplayError, config_from_meta
from .runner import SweepSpec, run_game, run_sweep

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _coerce(action: argparse.Action, raw: str):
    """Type a file value as the flag types its command-line value."""
    if action.nargs == 0:
        if raw.lower() not in _TRUE + _FALSE:
            raise ValueError(f"expected one of {', '.join(_TRUE + _FALSE)}")
        return raw.lower() in _TRUE
    value = action.type(raw) if action.type else raw
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"expected one of {', '.join(action.choices)}")
    return value


def load_config_file(path: str,
                     parser: argparse.ArgumentParser | None = None) -> dict:
    """key=value lines; '#' starts a comment; keys use flag spelling.

    Each key must be a flag of `parser` (by default `hamgame run`), and
    its value is typed and checked as that flag's would be; anything else
    is a ValueError naming the file, line and key.
    """
    if parser is None:
        parser = build_parser().subcommand_parsers["run"]
    flags = {a.dest: a for a in parser._actions
             if a.option_strings and a.dest not in ("help", "config")}
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            name, raw = (part.strip() for part in line.split("=", 1))
            key = name.replace("-", "_")
            where = f"{path}:{lineno}: {name}"
            if key not in flags:
                raise ValueError(f"{where}: not a flag of {parser.prog}")
            try:
                values[key] = _coerce(flags[key], raw)
            except (ValueError, argparse.ArgumentTypeError) as err:
                raise ValueError(f"{where}: {err}") from None
    return values


def _n_list(raw: str) -> list[int]:
    try:
        return [int(x) for x in raw.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated ints, got {raw!r}") from None


def _positive_int(raw: str) -> int:
    if not raw.isdecimal() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"expected an int >= 1, got {raw!r}")
    return int(raw)


def _add_game_flags(p: argparse.ArgumentParser, n_is_list: bool = False) -> None:
    p.add_argument("--config", help="key=value file; flags override it")
    if n_is_list:
        p.add_argument("--n", type=_n_list, default=[100],
                       help="comma-separated list of n values")
    else:
        p.add_argument("--n", type=int, default=100)
    # The flags other than --breaker are GameConfig.scaled's keyword
    # arguments: one not given is not passed on, so it takes scaled's
    # default.
    p.add_argument("--b", type=int,
                   help="absolute Breaker bias; default uses --beta")
    p.add_argument("--beta", type=float,
                   help="bias rule b = floor(beta*n/ln n)")
    p.add_argument("--breaker", default=None, choices=list(POLICIES),
                   help="Breaker policy (default: random)")
    p.add_argument("--seed", type=int)
    p.add_argument("--quota", type=int)
    p.add_argument("--tau-coeff", type=float)
    p.add_argument("--s0-coeff", type=float)
    p.add_argument("--audit-level", choices=[lvl.value for lvl in AuditLevel])
    p.add_argument("--max-turns", type=int)
    p.add_argument("--limited-only", action=argparse.BooleanOptionalAction)
    p.add_argument("--closure-budget", type=int)
    p.add_argument("--audit-samples", type=int)


def _apply_config_file(parser: argparse.ArgumentParser,
                       argv: list[str]) -> argparse.Namespace:
    # Two-pass parse so file values act as defaults under real flags.
    # Defaults must land on the chosen subcommand's parser: subparsers
    # fill a fresh namespace, so root-level set_defaults never survives.
    probe, _ = parser.parse_known_args(argv)
    if getattr(probe, "config", None):
        chosen = parser.subcommand_parsers[probe.command]
        try:
            values = load_config_file(probe.config, chosen)
        except (OSError, ValueError) as err:
            chosen.error(str(err))
        chosen.set_defaults(**values)
    return parser.parse_args(argv)


def _scaled_kwargs(args: argparse.Namespace) -> dict:
    """The GameConfig.scaled keyword arguments the flags (or the config
    file) set; the rest keep scaled's defaults."""
    return {name: getattr(args, name) for name in scaled_defaults()
            if getattr(args, name) is not None}


def _game_config(args: argparse.Namespace, n: int) -> GameConfig:
    """The config for `n` and the flags; a value GameConfig rejects, or a
    nan or inf coefficient that cannot be floored to a size, ends the
    command as a usage error."""
    try:
        return GameConfig.scaled(n, **_scaled_kwargs(args))
    except (ValueError, OverflowError) as err:
        print(f"hamgame {args.command}: error: {err}", file=sys.stderr)
        raise SystemExit(2) from None


def _open_out(path: str | None):
    """`path` opened for writing (a null context for no path).  An
    unwritable path ends the command with exit 1 before any work."""
    if path is None:
        return contextlib.nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as err:
        print(f"cannot write {path}: {err.strerror or err}")
        raise SystemExit(1) from None


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _game_config(args, args.n)
    with _open_out(args.out) as out:
        try:
            policy = ScriptedBreaker.from_file(args.script) if args.script \
                else args.breaker or "random"
            result = run_game(cfg, policy)
        except (LogFormatError, ReplayError) as err:
            print(f"script {args.script}: {err}")
            return 1
        if out is not None:
            out.writelines(result.log.chunks())
    line = f"{result.outcome} n={cfg.n} b={cfg.b} turns={result.maker_turns}"
    if result.reason:
        line += f" reason={result.reason!r}"
    print(line)
    print(json.dumps(result.stats, default=str, sort_keys=True))
    return 0 if result.outcome != "Aborted" else 2


def cmd_sweep(args: argparse.Namespace) -> int:
    for n in args.n:                # a bad value stops before any game
        _game_config(args, n)
    params = _scaled_kwargs(args)
    spec = SweepSpec(n_values=args.n, seeds=args.seeds,
                     breaker=args.breaker or "random",
                     master_seed=params.pop("seed", 0), params=params)
    rows, _ = run_sweep(spec, out_dir=args.out, keep_logs=args.keep_logs,
                        workers=args.workers)
    wins = sum(1 for r in rows if r["outcome"] == "MakerWin")
    print(f"{len(rows)} games, {wins} MakerWin"
          + (f", wrote {args.out}" if args.out else ""))
    return 0


def same_bytes(chunks, data: bytes) -> bool:
    """Whether the text `chunks` give, UTF-8 encoded, is `data`: each
    chunk is compared where the last one ended, up to the first that
    differs, and the two must end together."""
    offset = 0
    with memoryview(data) as view:
        for chunk in chunks:
            piece = chunk.encode()
            if view[offset:offset + len(piece)] != piece:
                return False
            offset += len(piece)
    return offset == len(data)


def cmd_replay(args: argparse.Namespace) -> int:
    """Check a saved log: parse it, rebuild its final position and match
    the logged fingerprint, then rerun the engine against its Breaker
    moves and compare the rerun's log with the file's bytes a chunk at a
    time.  Prints one verdict line (see the README)."""
    from .gamelog import apply_log, board_fingerprint

    try:
        # Binary, so the rerun is compared with the file's bytes as they are.
        with open(args.log, "rb") as fh:
            data = fh.read()
        log = GameLog.parse(data)
        fp = board_fingerprint(apply_log(log))
    except OSError as err:
        print(f"INVALID log: cannot read {args.log}: {err.strerror or err}")
        return 1
    except (LogFormatError, LogReplayError) as err:
        print(f"INVALID log: {err}")
        return 1
    want = (log.end or {}).get("fingerprint")
    if want is None:
        print("log has no final fingerprint")
        return 2
    if fp != want:
        print(f"MISMATCH replayed={fp} logged={want}")
        return 1
    # Re-run the full engine against the logged Breaker moves and
    # demand the saved file's bytes.
    try:
        result = run_game(config_from_meta(log.meta),
                          ScriptedBreaker.from_log(log))
    except ReplayError as err:
        print(f"MISMATCH: engine rerun diverged: {err}")
        return 1
    if not same_bytes(result.log.chunks(), data):
        print("MISMATCH: engine rerun diverged from saved log")
        return 1
    print(f"OK fingerprint={fp}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    with _open_out(args.out) as out:
        try:
            log = GameLog.load(args.log)
            config_from_meta(log.meta)
            runs = potential_audit(log)
            acct = turn_accounting(log)
        except OSError as err:
            print(f"INVALID log: cannot read {args.log}: "
                  f"{err.strerror or err}")
            return 1
        except (LogFormatError, LogReplayError) as err:
            print(f"INVALID log: {err}")
            return 1
        failures = 0
        outcome = (log.end or {}).get("outcome")
        print(f"outcome: {outcome}")
        if outcome == "MakerWin":
            ok = verify_hamilton(log)
            print(f"hamilton-cycle: {'PASS' if ok else 'FAIL'}")
            failures += 0 if ok else 1
        bad = [r for r in runs if not r.ok]
        print(f"potential: {len(runs)} runs, "
              f"{'PASS' if not bad else f'{len(bad)} FAIL'}")
        failures += len(bad)
        for key in ("trouble_ok", "booster_ok", "case_sum_ok", "growth_ok"):
            if key in acct:
                print(f"{key}: {'PASS' if acct[key] else 'FAIL'}")
                failures += 0 if acct[key] else 1
        if out is not None:
            json.dump({"accounting": acct,
                       "potential_runs": len(runs),
                       "potential_failures": len(bad)},
                      out, indent=2, sort_keys=True, default=str)
            out.write("\n")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamgame",
        description="Biased Maker-Breaker Hamilton cycle game simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="play one seeded game")
    _add_game_flags(p_run)
    p_run.add_argument("--script", default=None, metavar="LOG",
                       help="replay the Breaker moves of a saved log "
                            "instead of a --breaker policy")
    p_run.add_argument("--out", default=None, help="write the game log here")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run an (n, seed) grid")
    _add_game_flags(p_sweep, n_is_list=True)
    p_sweep.add_argument("--seeds", type=_positive_int, default=10,
                         help="games per n value")
    p_sweep.add_argument("--out", default=None, help="output directory")
    p_sweep.add_argument("--keep-logs", action="store_true")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_replay = sub.add_parser("replay", help="verify a saved log replays")
    p_replay.add_argument("log")
    p_replay.set_defaults(func=cmd_replay)

    p_audit = sub.add_parser("audit", help="offline checks on a saved log")
    p_audit.add_argument("log")
    p_audit.add_argument("--out", default=None, help="write a JSON report")
    p_audit.set_defaults(func=cmd_audit)
    parser.subcommand_parsers = {"run": p_run, "sweep": p_sweep,
                                 "replay": p_replay, "audit": p_audit}
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = _apply_config_file(parser, list(sys.argv[1:] if argv is None
                                           else argv))
    if getattr(args, "script", None) and args.breaker is not None:
        parser.subcommand_parsers["run"].error(
            "--script replays a saved Breaker; it takes no --breaker")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
