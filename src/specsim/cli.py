"""Command-line entry point.

Subcommands: run, attack, matrix, check, bench, calibrate, dump-policy.
Every subcommand writes machine-readable output (CSV or line format) plus a
short human summary; identical invocations produce identical bytes.

Exit codes: 0 success / property Holds; 1 property Violated or matrix
mismatch; 2 usage or configuration errors; 3 infeasible or
non-constructible attack configurations.
"""

from __future__ import annotations

import argparse
import configparser
import random
import sys
from collections.abc import Callable
from dataclasses import fields, replace
from pathlib import Path

from .attacks import (
    MATRIX_SCHEMES,
    AttackPlan,
    RunMemo,
    plan_attack,
    sweep_csv,
    sweep_error_vs_rate,
    transmit,
    vulnerability_matrix,
)
from .machine import MachineConfig
from .memhier import CacheGeometry, CacheImage, CacheSet, format_set, qlru_touch
from .microprog import (
    AttackParams,
    ConstructionError,
    Gadget,
    MicroProgram,
    Ordering,
    parse_program,
)
from .pipeline import NEVER, SimulationDeadlock, run
from .schemes import SchemeId
from .seccheck import (
    bench_overhead,
    calibrate,
    calibrate_for_matrix,
    check_ideal,
    check_ideal_differential,
    matrix_calibrations,
    synth_suite,
    victim_timing,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


class ConfigError(ValueError):
    pass


# [machine] keys: every integer field of the config and of its cache
# geometry under its own name, plus four keys that set EU-table entries.
_GEOMETRY_KEYS = {f.name for f in fields(CacheGeometry)}
_EU_KEYS = {"npeu_latency", "npeu_count", "alu_count", "lsu_count"}
_MACHINE_KEYS = {f.name for f in fields(MachineConfig)} - {"eu", "geometry"} | _GEOMETRY_KEYS | _EU_KEYS
_SCHEME_KEYS = {"id"}
_ATTACK_KEYS = {f.name for f in fields(AttackParams)}


def load_config(path: str | None) -> tuple[MachineConfig, SchemeId | None, AttackParams | None]:
    """Flat sectioned key=value file with strict unknown-key rejection. An
    error in a section or a value names its line in the file."""
    cfg = MachineConfig()
    scheme: SchemeId | None = None
    params: AttackParams | None = None
    if path is None:
        return cfg, scheme, params
    # Values are plain integers and names, so no interpolation.
    parser = configparser.ConfigParser(interpolation=None)
    try:
        text = Path(path).read_text()
        parser.read_string(text, source=path)
    except OSError:
        raise ConfigError(f"cannot read config file {path!r}") from None
    except configparser.Error as e:
        # configparser's message names the file and the line; fold it onto one line.
        raise ConfigError(" ".join(str(e).split())) from e
    where = _config_lines(text, parser)
    for section in parser.sections():
        if section not in ("machine", "scheme", "attack"):
            raise ConfigError(f"unknown config section [{section}]{where(section)}")
    if parser.has_section("machine"):
        # One key at a time: the config checks itself, so a bad value raises at its key.
        for key, value in _int_items(parser, "machine", _MACHINE_KEYS, where).items():
            klass, _, attr = key.partition("_")  # npeu_latency -> eu["npeu"].latency
            try:
                if key in _GEOMETRY_KEYS:
                    cfg = replace(cfg, geometry=replace(cfg.geometry, **{key: value}))
                elif key in _EU_KEYS:
                    cfg = replace(cfg, eu={**cfg.eu, klass: replace(cfg.eu[klass], **{attr: value})})
                else:
                    cfg = replace(cfg, **{key: value})
            except ValueError as e:
                raise ConfigError(f"{e}{where('machine', key)}") from None
    if parser.has_section("scheme"):
        items = dict(parser.items("scheme"))
        unknown = [key for key in items if key not in _SCHEME_KEYS]
        if unknown:
            raise ConfigError(f"unknown [scheme] keys: {sorted(unknown)}{where('scheme', unknown[0])}")
        if "id" in items:
            try:
                scheme = SchemeId(items["id"])
            except ValueError:
                known = ", ".join(s.value for s in SchemeId)
                raise ConfigError(
                    f"[scheme] id: unknown scheme {items['id']!r} (known: {known}){where('scheme', 'id')}"
                ) from None
    if parser.has_section("attack"):
        params = AttackParams(**_int_items(parser, "attack", _ATTACK_KEYS, where))
    return cfg, scheme, params


def _config_lines(text: str, parser: configparser.ConfigParser) -> Callable[..., str]:
    """The suffix " (config line N)" for a section header, or for a key as
    the parser names it (lowercased) under its section or [DEFAULT].
    configparser keeps no line numbers: the text is scanned with its patterns."""
    found: dict[tuple[str | None, str | None], int] = {}
    section = None
    for n, line in enumerate(text.split("\n"), 1):  # as configparser counts lines
        if header := parser.SECTCRE.match(line.strip()):
            section = header.group("header")
            found.setdefault((section, None), n)
        elif option := parser.OPTCRE.match(line.strip()):
            found.setdefault((section, parser.optionxform(option.group("option").rstrip())), n)

    def where(section: str, key: str | None = None) -> str:
        return f" (config line {found.get((section, key)) or found[parser.default_section, key]})"

    return where


def _int_items(parser: configparser.ConfigParser, section: str, keys: set[str], where: Callable) -> dict[str, int]:
    """A section's integer values, keyed by name; an unknown key or a value
    that is not an integer names the section, the key and its line."""
    items = dict(parser.items(section))
    unknown = [key for key in items if key not in keys]
    if unknown:
        raise ConfigError(f"unknown [{section}] keys: {sorted(unknown)}{where(section, unknown[0])}")
    out = {}
    for key, value in items.items():
        try:
            out[key] = int(value)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: expected an integer, got {value!r}{where(section, key)}") from None
    return out


def parse_secrets(text: str | None, program) -> dict[str, int] | None:
    """A bit string assigned to the program's secret slots in name order."""
    if text is None:
        return None
    names = sorted(program.secret_slots)
    if len(text) != len(names) or any(c not in "01" for c in text):
        raise ConfigError(f"secrets must be a {len(names)}-bit string for slots {names}")
    return {name: int(bit) for name, bit in zip(names, text)}


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def count_list(text: str) -> list[int]:
    """argparse type for comma-separated counts, each at least 1."""
    try:
        return [positive_int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def scheme_list(text: str) -> tuple[SchemeId, ...]:
    """argparse type for comma-separated scheme ids, each named once."""
    schemes = []
    for name in text.split(","):
        try:
            scheme = SchemeId(name)
        except ValueError:
            known = ", ".join(s.value for s in SchemeId)
            raise argparse.ArgumentTypeError(f"unknown scheme {name!r} (known: {known})") from None
        if scheme in schemes:
            raise argparse.ArgumentTypeError(f"scheme {name!r} is named twice")
        schemes.append(scheme)
    return tuple(schemes)


def probability(text: str) -> float:
    """argparse type for a probability: a float in [0, 1]."""
    p = float(text)
    if not 0.0 <= p <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return p


def _write(path: str, text: str) -> None:
    Path(path).write_text(text)


def _program_inputs(args) -> tuple[MachineConfig, SchemeId, MicroProgram, CacheImage | None]:
    """What run and check read: the config, the scheme (--scheme, else the
    config's [scheme] id, else unsafe), the program and the optional image."""
    cfg, scheme, _ = load_config(args.config)
    scheme = SchemeId(args.scheme) if args.scheme else (scheme or SchemeId.UNSAFE)
    program = parse_program(Path(args.program).read_text())
    image = CacheImage.parse(Path(args.image).read_text(), cfg.geometry) if args.image else None
    return cfg, scheme, program, image


def cmd_run(args) -> int:
    cfg, scheme, program, image = _program_inputs(args)
    secrets = parse_secrets(args.secrets, program)
    trace = run(program, cfg, scheme, secrets=secrets, image=image,
                force_correct_predictions=args.force_correct)
    if args.trace:
        _write(args.trace, trace.serialize())
    if args.occupancy:
        _write(args.occupancy, trace.occupancy_csv())
    retired = sum(1 for r in trace.ops if r.retire != NEVER)
    squashed = sum(1 for r in trace.ops if r.squash != NEVER)
    print(f"scheme={scheme.value} total_cycles={trace.total_cycles} "
          f"retired={retired} squashed={squashed} visible_accesses={len(trace.pattern)}")
    return EXIT_OK


def _attack_plan(args, cfg, gadget, ordering, scheme, file_params) -> AttackPlan:
    """The sender to transmit over: the config's [attack] parameters or
    the builder defaults (--no-calibrate) as given, else the calibrated
    sender, which carries its calibration's runs."""
    if file_params is not None or args.no_calibrate:
        return plan_attack(gadget, ordering, scheme, cfg, file_params)
    return calibrate_for_matrix(gadget, ordering, [scheme], cfg)[scheme]


def cmd_attack(args) -> int:
    cfg, _, file_params = load_config(args.config)
    gadget = Gadget(args.gadget)
    ordering = Ordering(args.ordering)
    scheme = SchemeId(args.scheme)
    plan = _attack_plan(args, cfg, gadget, ordering, scheme, file_params)
    if args.sweep_trials:
        # Plot-ready channel-quality curve: error rate vs throughput for
        # increasing trials-per-bit at the given noise level.
        points = sweep_error_vs_rate(plan, args.noise, args.sweep_trials, args.bits, seed=args.seed)
        text = sweep_csv(points)
        if args.out:
            _write(args.out, text)
        print(text, end="")
        return EXIT_OK
    rng = random.Random(f"bits:{args.seed}")
    bits = [rng.randrange(2) for _ in range(args.bits)]
    res = transmit(plan, bits, trials_per_bit=args.trials, noise=args.noise, seed=args.seed)
    header = "gadget,ordering,scheme,bits,trials,noise,error_rate,discard_rate,cycles_per_bit"
    row = (
        f"{gadget.value},{ordering.value},{scheme.value},{args.bits},{args.trials},"
        f"{args.noise},{res.error_rate:.4f},{res.discard_rate:.4f},{res.cycles_per_bit:.1f}"
    )
    if args.out:
        _write(args.out, header + "\n" + row + "\n")
    print(header)
    print(row)
    return EXIT_OK


def cmd_matrix(args) -> int:
    cfg, _, _ = load_config(args.config)
    schemes = args.schemes or MATRIX_SCHEMES
    cals = matrix_calibrations(cfg, schemes)
    res = vulnerability_matrix(
        cfg, seed=args.seed, bits=args.bits, schemes=schemes,
        calibrations=cals,
    )
    csv_text = "\n".join(res.csv_lines()) + "\n"
    if args.out:
        _write(args.out, csv_text)
    for line in res.table_lines():
        print(line)
    print()
    for line in res.diff_lines():
        print(line)
    ok = res.matches_reference()
    print(f"\nreference match: {'yes' if ok else 'NO'}")
    return EXIT_OK if ok else EXIT_VIOLATED


def cmd_check(args) -> int:
    cfg, scheme, program, image = _program_inputs(args)
    if args.differential:
        result = check_ideal_differential(program, cfg, scheme, image=image)
    else:
        secrets = parse_secrets(args.secrets, program)
        result = check_ideal(program, cfg, scheme, secrets=secrets, image=image)
    if result.holds:
        print(f"Holds: visible pattern invariant under {scheme.value}")
        return EXIT_OK
    print(f"Violated at index {result.witness_index} ({result.label_a} vs {result.label_b})")
    for label, pattern in ((result.label_a, result.pattern_a), (result.label_b, result.pattern_b)):
        window = pattern[max(0, result.witness_index - 2) : result.witness_index + 3]
        print(f"  {label}: ...{window}...")
    return EXIT_VIOLATED


def cmd_bench(args) -> int:
    cfg, _, _ = load_config(args.config)
    report = bench_overhead(synth_suite(args.seed), cfg, list(args.schemes))
    text = "\n".join(report.csv_lines()) + "\n"
    if args.out:
        _write(args.out, text)
    print(text, end="")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    cfg, _, base = load_config(args.config)
    gadget = Gadget(args.gadget)
    ordering = Ordering(args.ordering)
    scheme = SchemeId(args.scheme)
    if args.timing_csv and gadget is Gadget.RS:
        raise ConfigError("--timing-csv needs a victim op to time: the rs sender has none")
    memo = RunMemo(gadget, ordering, cfg)
    cal = calibrate(memo, scheme, base)
    for line in cal.trace:
        print(f"# {line}")
    if args.timing_csv:
        # Plot-ready interference-target timing: victim issue/complete with
        # the gadget executing, inert, and physically removed.
        plan = memo.plan(scheme, cal.params or base or AttackParams())
        rows = ["label,victim_issue,victim_complete"]
        for label, (issue, complete) in victim_timing(plan).items():
            rows.append(f"{label},{issue},{complete}")
        _write(args.timing_csv, "\n".join(rows) + "\n")
    if not cal.feasible:
        print("infeasible: no stable secret differential in the searched range")
        return EXIT_INFEASIBLE
    text = "[attack]\n" + "".join(
        f"{f.name} = {v}\n" for f in fields(AttackParams) if (v := getattr(cal.params, f.name)) is not None
    )
    if args.out:
        _write(args.out, text)
    print(text, end="")
    return EXIT_OK


def cmd_dump_policy(args) -> int:
    names = args.accesses.split()
    if not names:
        raise ConfigError("empty access sequence")
    line_of: dict[str, int] = {}
    for name in names:
        if name not in line_of:
            line_of[name] = len(line_of)  # one set: consecutive synthetic tags
    display = {line: name for name, line in line_of.items()}
    cset = CacheSet(args.ways)
    print(f"# {args.ways}-way set, {len(line_of)} distinct lines")
    for name in names:
        evicted = qlru_touch(cset, line_of[name])
        note = f"  (evicted {display[evicted]})" if evicted is not None else ""
        print(f"{name:>4s} -> {format_set(cset, display)}{note}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="specsim", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="machine/scheme/attack config file")

    def input_flags(p):  # the flags _program_inputs reads, plus --secrets
        common(p)
        p.add_argument("--program", required=True)
        p.add_argument("--scheme", choices=[s.value for s in SchemeId])
        p.add_argument("--secrets", help="bit string for the program's secret slots")
        p.add_argument("--image", help="initial cache image file")

    p = sub.add_parser("run", help="simulate one program")
    input_flags(p)
    p.add_argument("--trace", help="write the event trace here")
    p.add_argument("--occupancy", help="write per-cycle occupancy CSV here")
    p.add_argument("--force-correct", action="store_true", help="no-misspeculation oracle run")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("attack", help="run a covert-channel attack end to end")
    common(p)
    p.add_argument("--gadget", required=True, choices=[g.value for g in Gadget])
    p.add_argument("--ordering", required=True, choices=[o.value for o in Ordering])
    p.add_argument("--scheme", required=True, choices=[s.value for s in SchemeId])
    p.add_argument("--bits", type=positive_int, default=64)
    p.add_argument("--trials", type=positive_int, default=3)
    p.add_argument("--noise", type=probability, default=0.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--no-calibrate", action="store_true", help="use builder defaults")
    p.add_argument("--sweep-trials", type=count_list,
                   help="comma-separated trial counts: emit the error-vs-rate curve")
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("matrix", help="reproduce the scheme vulnerability matrix")
    common(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--bits", type=positive_int, default=32)
    p.add_argument("--out")
    p.add_argument("--schemes", type=scheme_list, help="comma-separated scheme subset")
    p.set_defaults(fn=cmd_matrix)

    p = sub.add_parser("check", help="non-interference check of the visible pattern")
    input_flags(p)
    p.add_argument("--differential", action="store_true",
                   help="compare across secret assignments instead of against the oracle")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("bench", help="defense overhead on the synthetic suite")
    common(p)
    p.add_argument("--schemes", type=scheme_list, default="fence-spectre,fence-futuristic")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("calibrate", help="search sender parameters for a working channel")
    common(p)
    p.add_argument("--gadget", required=True, choices=[g.value for g in Gadget])
    p.add_argument("--ordering", required=True, choices=[o.value for o in Ordering])
    p.add_argument("--scheme", required=True, choices=[s.value for s in SchemeId])
    p.add_argument("--out")
    p.add_argument("--timing-csv",
                   help="write interference-target timing rows (npeu and mshr senders)")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("dump-policy", help="replacement-state transcript for one set")
    p.add_argument("--ways", type=positive_int, default=4)
    p.add_argument("--accesses", required=True, help="space-separated line names, e.g. 'L L A B'")
    p.set_defaults(fn=cmd_dump_policy)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ConstructionError as e:
        print(f"not constructible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SimulationDeadlock as e:
        print(f"simulation deadlock: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
