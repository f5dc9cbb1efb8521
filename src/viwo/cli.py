"""Command-line front-end: simulate, run, eval, jacobian-check.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.  simulate and run also read a `key = value` file passed via
--config.  Its keys are the dests of the command's optional flags
(`measurement_mode` for --mode, `inject_bias_dps` for --inject-bias), and
for run also `noise.<field>` of NoiseConfig; any other key is a data error:
one of the other command's, or `out_dir` and `dataset`, which only the
required flags --out and --dataset set.  Explicit flags override file
entries.
"""

import argparse
import sys
from dataclasses import fields

from . import dataio
from .filter import NoiseConfig
from .pipeline import RunConfig, cmd_eval, cmd_run, cmd_simulate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--feature-slots", type=int, dest="feature_slots")
    p.add_argument("--mode", choices=["bearing", "image"], dest="measurement_mode",
                   help="camera measurement mode")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="viwo",
        description="visual-inertial-wheel localization with online "
                    "gyroscope calibration")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="synthesize a dataset directory")
    _add_common(ps)
    ps.add_argument("--seed", type=int, help="deterministic seed")
    ps.add_argument("--out", required=True, dest="out_dir")
    ps.add_argument("--scenario", choices=["urban_loop", "highway", "mini_loop"])
    ps.add_argument("--laps", type=int)
    ps.add_argument("--rho-sg", type=float, dest="rho_sg")
    ps.add_argument("--zero-noise", action="store_true", dest="zero_noise",
                    default=None)
    ps.add_argument("--inject-bias", nargs=3, type=float, metavar=("BX", "BY", "BZ"),
                    dest="inject_bias_dps", help="gyro offsets to inject [deg/s]")
    ps.add_argument("--inject-yaw-scale", type=float, dest="inject_yaw_scale")
    ps.add_argument("--inject-misalign", nargs=2, type=float, metavar=("YX", "XY"),
                    dest="inject_misalign_deg", help="misalignments [deg]")

    pr = sub.add_parser("run", help="run the filter over a dataset")
    _add_common(pr)
    pr.add_argument("--dataset", required=True)
    pr.add_argument("--out", required=True, dest="out_dir")
    pr.add_argument("--disable-gyro-calibration", action="store_true",
                    dest="disable_gyro_calibration", default=None)
    pr.add_argument("--disable-lateral-model", action="store_true",
                    dest="disable_lateral_model", default=None)
    pr.add_argument("--wheel-imu-only", action="store_true",
                    dest="wheel_imu_only", default=None)
    pr.add_argument("--init-params", dest="init_params",
                    help="gyro-parameter file used as the initial estimate")
    pr.add_argument("--check-psd", action="store_true", dest="check_psd",
                    default=None)

    pe = sub.add_parser("eval", help="evaluate an estimate against ground truth")
    pe.add_argument("--estimate", required=True)
    pe.add_argument("--ground-truth", required=True)
    pe.add_argument("--segment-m", type=float, default=100.0)

    pj = sub.add_parser("jacobian-check",
                        help="finite-difference audit of all analytic Jacobians")
    pj.add_argument("--configs", type=int, default=1000)
    pj.add_argument("--seed", type=int, default=0)
    return ap


_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def apply_config_overrides(cfg: RunConfig, kv: dict[str, list[str]], command: str,
                           keys: set[str]) -> RunConfig:
    """Apply 'key = value' entries; 'noise.<field>' reaches the NoiseConfig.
    A key not in keys, those a config file of command may set, is a
    DataError.  A key takes as many values as its field holds (3 for
    inject_bias_dps, 2 for inject_misalign_deg, 1 otherwise), and a bool key
    one of true/false/yes/no/1/0 in any case; another count, or a value that
    does not parse, is a ValueError naming the key."""
    for key, tokens in kv.items():
        if key not in keys:
            raise dataio.DataError(f"config key '{key}': not a key of a {command} "
                                   f"config file")
        target, name = (cfg.noise, key[6:]) if key.startswith("noise.") else (cfg, key)
        current = getattr(target, name)
        count = len(current) if isinstance(current, tuple) else 1
        if len(tokens) != count:
            raise ValueError(f"config key '{key}' takes {count} value(s), "
                             f"found {len(tokens)}")
        try:
            if isinstance(current, tuple):
                value = tuple(float(t) for t in tokens)
            elif isinstance(current, bool):
                value = _BOOL_WORDS[tokens[0].lower()]
            elif isinstance(current, (int, float)):
                value = type(current)(tokens[0])
            else:
                value = tokens[0]
        except (KeyError, ValueError):
            raise ValueError(f"config key '{key}': cannot read '{' '.join(tokens)}' "
                             f"as {type(current).__name__}") from None
        setattr(target, name, value)
    return cfg


def _config_from_args(args, parser: argparse.ArgumentParser) -> RunConfig:
    # the command's flags are the settings it reads, each stored under the
    # name of its RunConfig field; a file may set those of its optional flags
    settings = vars(args).keys() - {"command", "config"}
    cfg = RunConfig()
    if args.config:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        required = {a.dest for a in sub.choices[args.command]._actions if a.required}
        noise = {f"noise.{f.name}" for f in fields(NoiseConfig) if args.command == "run"}
        cfg = apply_config_overrides(cfg, dataio.load_kv(args.config), args.command,
                                     (settings - required) | noise)
    for name in settings:
        val = getattr(args, name)
        if val is not None:
            setattr(cfg, name, tuple(val) if isinstance(getattr(cfg, name), tuple) else val)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            cfg = _config_from_args(args, parser)
            out = cmd_simulate(cfg)
            print(f"dataset written to {out}")
            return EXIT_OK
        if args.command == "run":
            cfg = _config_from_args(args, parser)
            out = cmd_run(cfg)
            print((out / "report.txt").read_text(), end="")
            return EXIT_OK
        if args.command == "eval":
            print(cmd_eval(args.estimate, args.ground_truth, args.segment_m))
            return EXIT_OK
        if args.command == "jacobian-check":
            from .jacobian_check import format_report, run_audit
            if args.configs < 1:
                raise ValueError(f"--configs {args.configs}: must be at least 1")
            worst = run_audit(args.configs, args.seed)
            text, ok = format_report(worst)
            print(text)
            return EXIT_OK if ok else EXIT_NUMERIC
    except (ValueError, dataio.DataError) as exc:
        if isinstance(exc, dataio.DataError):
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
