"""CLI surface: subcommands, exit codes, config handling, reproducibility."""

import contextlib
import io
import os
import random
import re
from dataclasses import fields
from pathlib import Path

import pytest

from specsim import attacks, seccheck
from specsim.attacks import RunMemo, plan_attack, run_attack
from specsim.cli import _ATTACK_KEYS, EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, EXIT_VIOLATED, load_config, main
from specsim.machine import MachineConfig
from specsim.memhier import CacheGeometry
from specsim.microprog import AttackParams, Gadget, Ordering, build_attack_program, format_program
from specsim.schemes import SchemeId
from specsim.seccheck import calibrate, interference_gap, victim_timing

MATRIX_GOLDEN = Path(__file__).parent / "golden" / "matrix_seed1.csv"


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def program_file(tmp_path):
    prog, _ = build_attack_program(Ordering.VDVD, Gadget.NPEU, MachineConfig())
    path = tmp_path / "attack.mprog"
    path.write_text(format_program(prog))
    return str(path)


@pytest.fixture()
def image_file(tmp_path):
    from specsim.attacks import attack_image

    image = attack_image(Gadget.NPEU, MachineConfig())
    path = tmp_path / "attack.image"
    path.write_text(image.dump())
    return str(path)


@pytest.fixture()
def run_inputs(monkeypatch):
    """The inputs of every run() the harness makes, in call order."""
    inputs = []
    for module in (attacks, seccheck):
        def counting(program, cfg, scheme, *args, real=module.run, **kw):
            inputs.append((program, cfg, scheme, args, kw))
            return real(program, cfg, scheme, *args, **kw)

        monkeypatch.setattr(module, "run", counting)
    return inputs


def distinct(inputs: list) -> list:
    out = []
    for key in inputs:
        if key not in out:
            out.append(key)
    return out


@pytest.fixture()
def empty_program_file(tmp_path):
    path = tmp_path / "empty.mprog"
    path.write_text("")
    return str(path)


class TestRun:
    def test_empty_program_zero_cycles(self, empty_program_file):
        code, out, _ = call(["run", "--program", empty_program_file])
        assert code == EXIT_OK
        assert "total_cycles=0" in out

    def test_run_writes_trace_and_occupancy(self, program_file, tmp_path):
        trace = tmp_path / "t.trace"
        occ = tmp_path / "o.csv"
        code, out, _ = call(
            ["run", "--program", program_file, "--scheme", "dom-nontso", "--secrets", "1",
             "--trace", str(trace), "--occupancy", str(occ)]
        )
        assert code == EXIT_OK
        body = trace.read_text()
        assert body.splitlines()[0].startswith("cycle=0 event=fetch op=0")
        assert occ.read_text().splitlines()[0] == "cycle,rs_fill,mshr_fill,eu_busy"

    def test_summary_counts_each_op_by_its_final_state(self, tmp_path):
        # The branch is predicted taken and falls through: its body (ops
        # 2-4) and the post-join ops 5-7 are fetched while the resolver
        # misses. The squash kills all six; only 5-7 are refetched. So six
        # ops log a squash, but an op counts as squashed only if it never
        # came back: squashed=3, retired=5 (0, 1 and the refetched 5-7).
        prog = tmp_path / "branchy.mprog"
        prog.write_text(
            "0 LOAD deps=[] addr=100001\n1 BRANCH deps=[] branch=T,N,res:0,join:5\n"
            + "".join(f"{i} ALU deps=[]\n" for i in range(2, 8))
        )
        image = tmp_path / "branchy.image"
        image.write_text("script line=100001 level=memmiss\n")
        trace = tmp_path / "branchy.trace"
        code, out, _ = call(["run", "--program", str(prog), "--image", str(image), "--trace", str(trace)])
        assert code == EXIT_OK
        assert out == "scheme=unsafe total_cycles=205 retired=5 squashed=3 visible_accesses=1\n"
        events = [line.split()[1:3] for line in trace.read_text().splitlines()]
        assert sorted(int(op[3:]) for name, op in events if name == "event=squash") == [2, 3, 4, 5, 6, 7]
        assert sorted(int(op[3:]) for name, op in events if name == "event=retire") == [0, 1, 5, 6, 7]

    def test_comment_and_blank_lines_are_skipped(self, program_file, tmp_path):
        text = Path(program_file).read_text()
        commented = tmp_path / "commented.mprog"
        commented.write_text("# an npeu sender\n\n" + text.replace("\n", "\n  \n# next op\n", 3))
        argv = ["--scheme", "dom-nontso", "--secrets", "1"]
        code, out, _ = call(["run", "--program", str(commented), *argv])
        assert code == EXIT_OK
        assert out == call(["run", "--program", program_file, *argv])[1]

    def test_bad_secrets_usage_error(self, program_file):
        code, _, err = call(["run", "--program", program_file, "--secrets", "01"])
        assert code == EXIT_USAGE and "secrets" in err

    def test_branch_typo_is_a_usage_error(self, program_file, tmp_path):
        text = Path(program_file).read_text()
        lineno = next(i for i, line in enumerate(text.splitlines(), 1) if "branch=T," in line)
        bad = tmp_path / "typo.mprog"
        bad.write_text(text.replace("branch=T,", "branch=t,", 1))
        code, out, err = call(["run", "--program", str(bad)])
        assert code == EXIT_USAGE and out == ""
        assert f"program line {lineno}: branch=t," in err

    def test_repeated_op_field_is_a_usage_error(self, tmp_path):
        bad = tmp_path / "repeat.mprog"
        bad.write_text("0 LOAD deps=[] addr=5 addr=7\n")
        code, out, err = call(["run", "--program", str(bad)])
        assert code == EXIT_USAGE and out == ""
        assert "program line 1: repeated field 'addr'" in err

    @pytest.mark.parametrize("text, error", [
        ("!secretx s0 1\n0 ALU deps=[]\n", "program line 1: unknown directive '!secretx'"),
        ("0 ALU deps=[]\n1 ALU deps=[]\n!role victim 0,,1\n", "program line 3: empty item in list '0,,1'"),
        ("0 ALU deps=[]\n1 ALU deps=[0,,0]\n", "program line 2: empty item in list '0,,0'"),
        ("0 ALU deps=[] lat=\n", "program line 1: lat= needs an EU class name"),
    ], ids=["directive-prefix", "role-empty-item", "deps-empty-item", "lat-empty"])
    def test_malformed_program_text_is_a_usage_error(self, tmp_path, text, error):
        bad = tmp_path / "bad.mprog"
        bad.write_text(text)
        code, out, err = call(["run", "--program", str(bad)])
        assert code == EXIT_USAGE and out == ""
        assert error in err

    def test_a_use_of_a_skipped_op_names_its_line(self, tmp_path):
        # Op 2 sits in the body that op 1 skips; op 3, on the path, reads it.
        bad = tmp_path / "skipped.mprog"
        bad.write_text(
            "0 ALU deps=[]\n"
            "1 BRANCH deps=[] branch=N,N,res:0,join:3\n"
            "# op 2 never retires\n"
            "2 ALU deps=[]\n"
            "3 ALU deps=[2]\n"
        )
        code, out, err = call(["run", "--program", str(bad)])
        assert code == EXIT_USAGE and out == ""
        assert err == "error: program line 5: op 3 uses op 2, which the actual path skips\n"

    def test_repeated_image_record_is_a_usage_error(self, program_file, image_file, tmp_path):
        text = Path(image_file).read_text()
        first = text.splitlines()[0]
        bad = tmp_path / "repeat.image"
        bad.write_text(text + first + "\n")
        code, out, err = call(["run", "--program", program_file, "--image", str(bad)])
        assert code == EXIT_USAGE and out == ""
        assert f"cache image line {len(text.splitlines()) + 1}: second " in err

    @pytest.mark.parametrize("record", ["llc set=5 ways=[[5:1]]", "l1d set=5 ways=5:1", "llc set=5 ways=[5:1"])
    def test_malformed_ways_list_is_a_usage_error(self, program_file, tmp_path, record):
        bad = tmp_path / "ways.image"
        bad.write_text(f"# one set\n{record}\n")
        code, out, err = call(["run", "--program", program_file, "--image", str(bad)])
        assert code == EXIT_USAGE and out == ""
        assert "cache image line 2: ways must be one [...] list" in err

    @pytest.mark.parametrize("machine, record, message", [
        ("", "llc set=3 ways=[5:1]", "llc line 5 does not map to set 3"),
        ("llc_sets = 64", "llc set=100 ways=[100:1]", "llc set 100 out of range"),
        ("l1_ways = 2", "l1d set=2 ways=[2:1,66:1,130:1]", "l1d set 2 lists 3 ways > 2"),
    ], ids=["tag-in-another-set", "set-out-of-range", "too-many-ways"])
    def test_image_that_does_not_fit_the_config_names_its_line(self, program_file, tmp_path, machine, record, message):
        # The image's last record does not fit the config's geometry; the
        # second and third cases' would fit the default machine.
        cfg_file, bad = tmp_path / "m.cfg", tmp_path / "misfit.image"
        cfg_file.write_text(f"[machine]\n{machine}\n")
        bad.write_text(f"# a set that fits\nl1d set=1 ways=[1:1]\n{record}\n")
        code, out, err = call(["run", "--program", program_file, "--config", str(cfg_file), "--image", str(bad)])
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: cache image line 3: {message}\n"


class TestAttack:
    def test_noiseless_attack_csv(self, tmp_path):
        out_file = tmp_path / "r.csv"
        code, out, _ = call(
            ["attack", "--gadget", "npeu", "--ordering", "vdvd", "--scheme", "dom-nontso",
             "--bits", "16", "--trials", "1", "--noise", "0", "--seed", "7", "--out", str(out_file)]
        )
        assert code == EXIT_OK
        lines = out_file.read_text().splitlines()
        assert lines[0] == "gadget,ordering,scheme,bits,trials,noise,error_rate,discard_rate,cycles_per_bit"
        fields = lines[1].split(",")
        assert fields[:3] == ["npeu", "vdvd", "dom-nontso"]
        assert float(fields[6]) == 0.0

    def test_identical_invocations_identical_bytes(self, tmp_path):
        argv = ["attack", "--gadget", "rs", "--ordering", "viad", "--scheme", "invisispec-spectre",
                "--bits", "12", "--trials", "3", "--noise", "0.1", "--seed", "3"]
        a = call(argv)
        b = call(argv)
        assert a == b

    @pytest.mark.parametrize("flag", ["--bits", "--trials"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_count_below_one_is_a_usage_error(self, flag, value):
        argv = ["attack", "--gadget", "npeu", "--ordering", "vdvd", "--scheme", "unsafe",
                "--seed", "1", "--no-calibrate", flag, value]
        code, out, err = call(argv)
        assert code == EXIT_USAGE and out == ""
        assert f"argument {flag}: must be >= 1, got {value}" in err

    @pytest.mark.parametrize("value", ["2", "-0.5", "nan"])
    def test_noise_outside_unit_interval_is_a_usage_error(self, value):
        argv = ["attack", "--gadget", "npeu", "--ordering", "vdvd", "--scheme", "unsafe",
                "--bits", "2", "--seed", "1", "--no-calibrate", "--noise", value]
        code, out, err = call(argv)
        assert code == EXIT_USAGE and out == ""
        assert f"argument --noise: must be in [0, 1], got {value}" in err

    def test_sweep_trial_count_below_one_is_a_usage_error(self):
        code, out, err = call(
            ["attack", "--gadget", "npeu", "--ordering", "vdvd", "--scheme", "unsafe",
             "--bits", "4", "--seed", "1", "--no-calibrate", "--sweep-trials", "0,1"]
        )
        assert code == EXIT_USAGE and out == ""
        assert "--sweep-trials" in err

    def test_sweep_trial_count_not_an_integer_is_a_usage_error(self):
        code, out, err = call(
            ["attack", "--gadget", "npeu", "--ordering", "vdvd", "--scheme", "unsafe",
             "--bits", "4", "--seed", "1", "--no-calibrate", "--sweep-trials", "1,x"]
        )
        assert code == EXIT_USAGE and out == ""
        assert "argument --sweep-trials: expected comma-separated integers, got '1,x'" in err

    def test_sweep_runs_the_sender_once_per_bit_value(self, monkeypatch):
        runs = []
        real_run = attacks.run

        def counting(*args, **kw):
            runs.append(kw["secrets"])
            return real_run(*args, **kw)

        monkeypatch.setattr(attacks, "run", counting)
        code, out, _ = call(["attack", "--gadget", "npeu", "--ordering", "vdad", "--scheme", "dom-nontso",
                             "--seed", "1", "--sweep-trials", "1,3,5,7", "--no-calibrate", "--noise", "0.1"])
        assert code == EXIT_OK
        assert sorted(s["s0"] for s in runs) == [0, 1]
        # The same rows as one run_attack per count, each planning afresh.
        rng = random.Random("sweep:1")
        bits = [rng.randrange(2) for _ in range(64)]
        rows = ["trials,error_rate,discard_rate,cycles_per_bit,bits_per_mcycle"]
        for trials in (1, 3, 5, 7):
            res = run_attack(Gadget.NPEU, Ordering.VDAD, SchemeId.DOM_NONTSO, bits, trials, 0.1, 1,
                             cfg=MachineConfig(), params=AttackParams())
            rows.append(f"{trials},{res.error_rate:.4f},{res.discard_rate:.4f},"
                        f"{res.cycles_per_bit:.1f},{1e6 / res.cycles_per_bit:.3f}")
        assert out.splitlines() == rows

    @pytest.mark.parametrize(
        "sender, flags, made",
        [
            (["npeu", "vdvd", "dom-nontso"], ["--bits", "16"], 2),
            (["mshr", "vdad", "muontrap"], ["--sweep-trials", "1,3"], 4),
        ],
    )
    def test_a_calibrated_attack_runs_each_distinct_input_once(self, run_inputs, sender, flags, made):
        # The attack transmits over the calibrated sender, whose memo holds
        # the calibration's runs, so no run is made twice.
        gadget, ordering, scheme = sender
        code, _, _ = call(["attack", "--gadget", gadget, "--ordering", ordering, "--scheme", scheme,
                           "--seed", "1", *flags])
        assert code == EXIT_OK
        assert len(run_inputs) == len(distinct(run_inputs)) == made

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["--gadget", "npeu", "--ordering", "viad", "--bits", "16", "--seed", "1"],
                "npeu,viad,muontrap,16,3,0.0,0.0000,0.0000,6132.0\n",
            ),
            (
                ["--gadget", "npeu", "--ordering", "viad", "--bits", "16", "--seed", "1", "--no-calibrate"],
                "npeu,viad,muontrap,16,3,0.0,0.6250,0.0000,6132.0\n",
            ),
            (
                ["--gadget", "mshr", "--ordering", "vdad", "--bits", "32", "--seed", "3", "--noise", "0.1",
                 "--sweep-trials", "1,3,5"],
                "1,0.0455,0.3125,2132.1,469.029\n3,0.0000,0.0312,6396.2,156.343\n5,0.0000,0.0000,10660.3,93.806\n",
            ),
        ],
    )
    def test_attack_output_is_pinned(self, argv, expected):
        # Pinned rows: transmitting over the calibration's plan, rather than
        # over a fresh build of its parameters, must change no byte.
        code, out, _ = call(["attack", "--scheme", "muontrap", *argv])
        assert code == EXIT_OK
        assert out.split("\n", 1)[1] == expected

    def test_not_constructible_pair(self):
        code, _, err = call(
            ["attack", "--gadget", "rs", "--ordering", "vdvd", "--scheme", "unsafe",
             "--bits", "4", "--trials", "1", "--noise", "0", "--seed", "1"]
        )
        assert code == EXIT_INFEASIBLE
        assert "not constructible" in err

    @pytest.mark.parametrize("machine", ["llc_ways = 8", "llc_ways = 32", "llc_sets = 4"])
    @pytest.mark.parametrize("gadget, ordering", [("npeu", "vdad"), ("rs", "viad")])
    def test_attack_decodes_at_other_llc_geometries(self, tmp_path, machine, gadget, ordering):
        cfg_file = tmp_path / "m.cfg"
        cfg_file.write_text(f"[machine]\n{machine}\n")
        code, out, _ = call(
            ["attack", "--gadget", gadget, "--ordering", ordering, "--scheme", "unsafe",
             "--bits", "8", "--seed", "1", "--config", str(cfg_file)]
        )
        assert code == EXIT_OK
        assert out.splitlines()[-1].split(",")[6] == "0.0000"


def attack_row(gadget, ordering, scheme, n_bits, trials, noise, seed, params):
    """The row `specsim attack` prints for these arguments, computed with
    run_attack on the CLI's secret bits."""
    rng = random.Random(f"bits:{seed}")
    bits = [rng.randrange(2) for _ in range(n_bits)]
    res = run_attack(
        Gadget(gadget), Ordering(ordering), SchemeId(scheme), bits,
        trials_per_bit=trials, noise=float(noise), seed=seed, cfg=MachineConfig(), params=params,
    )
    return (
        f"{gadget},{ordering},{scheme},{n_bits},{trials},{noise},"
        f"{res.error_rate:.4f},{res.discard_rate:.4f},{res.cycles_per_bit:.1f}"
    )


class TestAttackParams:
    ARGV = ["attack", "--gadget", "npeu", "--ordering", "viad", "--scheme", "muontrap",
            "--bits", "16", "--trials", "1", "--noise", "0.1", "--seed", "5"]

    @staticmethod
    def row(params):
        return attack_row("npeu", "viad", "muontrap", 16, 1, "0.1", 5, params)

    def test_calibrated_by_default(self):
        code, out, _ = call(self.ARGV)
        assert code == EXIT_OK
        params = calibrate(RunMemo(Gadget.NPEU, Ordering.VIAD, MachineConfig()), SchemeId.MUONTRAP).params
        assert out.splitlines()[1] == self.row(params) != self.row(AttackParams())

    def test_no_calibrate_runs_builder_defaults(self):
        code, out, _ = call([*self.ARGV, "--no-calibrate"])
        assert code == EXIT_OK
        assert out.splitlines()[1] == self.row(AttackParams())

    def test_config_attack_section_overrides_calibration(self, tmp_path):
        cfg_file = tmp_path / "m.cfg"
        cfg_file.write_text("[attack]\nz_len = 16\nreference_offset = 120\n")
        code, out, _ = call([*self.ARGV, "--config", str(cfg_file)])
        assert code == EXIT_OK
        # A row of its own: neither the calibrated nor the default one.
        assert out.splitlines()[1] == self.row(AttackParams(z_len=16, reference_offset=120))

    def test_negative_reference_offset_is_a_usage_error(self, tmp_path):
        cfg_file = tmp_path / "m.cfg"
        cfg_file.write_text("[attack]\nreference_offset = -5\n")
        argv = ["attack", "--gadget", "npeu", "--ordering", "vdad", "--scheme", "unsafe", "--seed", "1"]
        code, out, err = call([*argv, "--config", str(cfg_file)])
        assert code == EXIT_USAGE and out == ""
        assert err == "error: reference_offset must be >= 0, got -5\n"

    def test_sweep_trials_one_row_per_count(self, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, out, _ = call([*self.ARGV, "--sweep-trials", "1,3", "--out", str(out_file)])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "trials,error_rate,discard_rate,cycles_per_bit,bits_per_mcycle"
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "3"]
        assert out_file.read_text() == out


class TestMatrix:
    def test_seed1_matches_the_reference(self, tmp_path):
        out_file = tmp_path / "m.csv"
        code, out, _ = call(["matrix", "--seed", "1", "--out", str(out_file)])
        assert code == EXIT_OK
        assert out_file.read_bytes() == MATRIX_GOLDEN.read_bytes()
        lines = out.splitlines()
        rows = lines[2 : 2 + len(Gadget)]
        assert [row.split("|")[0].strip() for row in rows] == [g.value for g in Gadget]
        assert lines[2 + len(Gadget)] == ""
        assert lines[-1] == "reference match: yes"

    def test_a_scheme_subset_is_compared_on_the_schemes_that_ran(self):
        # unsafe has no reference verdict; dom-nontso agrees with its own.
        code, out, _ = call(["matrix", "--seed", "1", "--schemes", "unsafe,dom-nontso"])
        assert code == EXIT_OK
        lines = out.splitlines()
        start = lines.index("") + 1
        assert lines[start:] == [
            "mshr  vdad       expected=- got=- [ok]",
            "mshr  vdvd+vivd  expected=- got=- [ok]",
            "mshr  viad       expected=- got=- [ok]",
            "npeu  vdad       expected=dom-nontso got=dom-nontso [ok]",
            "npeu  vdvd+vivd  expected=dom-nontso got=dom-nontso [ok]",
            "npeu  viad       expected=dom-nontso got=dom-nontso [ok]",
            "rs    vdad       expected=- got=- [ok]",
            "rs    vdvd+vivd  expected=- got=- [ok]",
            "rs    viad       expected=dom-nontso got=dom-nontso [ok]",
            "",
            "reference match: yes",
        ]

    @pytest.mark.parametrize("flag", ["--bits"])
    def test_zero_count_is_a_usage_error(self, flag):
        code, out, err = call(["matrix", "--seed", "1", flag, "0"])
        assert code == EXIT_USAGE and out == ""
        assert f"argument {flag}: must be >= 1, got 0" in err

    def test_trials_is_not_a_matrix_flag(self):
        # The matrix runs noiseless, where every trial of a bit reads the same.
        code, out, err = call(["matrix", "--seed", "1", "--trials", "3"])
        assert code == EXIT_USAGE and out == ""
        assert "unrecognized arguments: --trials" in err

    @pytest.mark.parametrize("command", ["matrix", "bench"])
    def test_a_repeated_scheme_is_a_usage_error(self, command):
        # A repeat would make the matrix write each of its rows twice and
        # be dropped silently by bench.
        code, out, err = call([command, "--seed", "1", "--schemes", "unsafe,dom-nontso,unsafe"])
        assert code == EXIT_USAGE and out == ""
        assert "argument --schemes: scheme 'unsafe' is named twice" in err

    def test_unknown_scheme_is_a_usage_error(self):
        code, out, err = call(["matrix", "--seed", "1", "--schemes", "unsafe,dom"])
        assert code == EXIT_USAGE and out == ""
        assert "argument --schemes: unknown scheme 'dom' (known: unsafe," in err


class TestCheck:
    def test_holds_exit_zero(self, program_file):
        code, out, _ = call(["check", "--program", program_file, "--scheme", "nointerference", "--differential"])
        assert code == EXIT_OK and "Holds" in out

    def test_violated_exit_one_with_witness(self, program_file, image_file):
        code, out, _ = call(
            ["check", "--program", program_file, "--image", image_file, "--scheme", "unsafe", "--differential"]
        )
        assert code == EXIT_VIOLATED
        assert "Violated at index" in out

    def test_oracle_check_violated_exit_one_with_witness_window(self, program_file, image_file):
        # With bit 1 the gadget delays the victim line (133) past the
        # reference line (261); the no-misspeculation oracle keeps it first.
        code, out, _ = call(["check", "--program", program_file, "--image", image_file,
                             "--scheme", "invisispec-spectre", "--secrets", "1"])
        assert code == EXIT_VIOLATED
        assert out.splitlines() == [
            "Violated at index 1 (run vs nospec)",
            "  run: ...[(100001, 'victim', 'fill'), (261, 'victim', 'fill'), (133, 'victim', 'fill')]...",
            "  nospec: ...[(100001, 'victim', 'fill'), (133, 'victim', 'fill'), (261, 'victim', 'fill')]...",
        ]

    def test_oracle_check_holds_under_fence_futuristic(self, program_file, image_file):
        for secrets in ("0", "1"):
            code, out, _ = call(["check", "--program", program_file, "--image", image_file,
                                 "--scheme", "fence-futuristic", "--secrets", secrets])
            assert code == EXIT_OK
            assert out == "Holds: visible pattern invariant under fence-futuristic\n"

    @pytest.mark.parametrize("secrets", ["2", "01", ""])
    def test_oracle_check_malformed_secrets_is_a_usage_error(self, program_file, secrets):
        code, out, err = call(["check", "--program", program_file, "--secrets", secrets])
        assert code == EXIT_USAGE and out == ""
        assert err == "error: secrets must be a 1-bit string for slots ['s0']\n"

    @pytest.mark.parametrize("scheme", ["fence-spectre", "fence-futuristic", "nointerference"])
    def test_a_secret_load_past_a_skipping_join_is_refused(self, tmp_path, scheme):
        # Op 1 lies in the body that op 0 skips, and its own body reaches
        # past op 0's join to op 2: the actual path reaches op 2, which
        # retires, so the secret read is not transient.
        prog = tmp_path / "join.mprog"
        prog.write_text(
            "!secret s0 0\n"
            "0 BRANCH deps=[] branch=N,N,res:-,join:2\n"
            "1 BRANCH deps=[] branch=T,N,res:-,join:3\n"
            "2 LOAD deps=[] addr=700000+s0*1*1\n"
        )
        image = tmp_path / "join.image"
        image.write_text("script line=700000 level=l1hit\nscript line=700001 level=memmiss\n")
        code, out, err = call(["check", "--program", str(prog), "--image", str(image),
                               "--scheme", scheme, "--differential"])
        assert code == EXIT_USAGE and out == ""
        assert err == "error: op 2 reads a secret on the bound-to-retire path; the property does not apply\n"

    def test_bare_program_without_image_holds(self, program_file):
        # Without the priming/scripting image the sender has no secret
        # differential: the resolver miss squashes the gadget first.
        code, out, _ = call(["check", "--program", program_file, "--scheme", "unsafe", "--differential"])
        assert code == EXIT_OK and "Holds" in out


class TestBenchAndCalibrate:
    def test_bench_csv(self, tmp_path):
        out_file = tmp_path / "overhead.csv"
        code, out, _ = call(
            ["bench", "--schemes", "fence-spectre,fence-futuristic",
             "--seed", "3", "--out", str(out_file)]
        )
        assert code == EXIT_OK
        assert out_file.read_text().startswith("benchmark,baseline_cycles,")
        assert "geomean" in out

    def test_bench_unknown_scheme_is_a_usage_error(self):
        code, out, err = call(["bench", "--schemes", "fence-spectre,dom", "--seed", "3"])
        assert code == EXIT_USAGE and out == ""
        assert "argument --schemes: unknown scheme 'dom' (known: unsafe," in err

    def test_calibrate_feasible_prints_params(self):
        code, out, _ = call(["calibrate", "--gadget", "npeu", "--ordering", "vdad", "--scheme", "dom-nontso"])
        assert code == EXIT_OK
        assert "[attack]" in out and "reference_offset" in out

    def test_calibrate_out_writes_the_printed_attack_section(self, tmp_path):
        out_file = tmp_path / "attack.cfg"
        code, out, _ = call(["calibrate", "--gadget", "npeu", "--ordering", "vdad", "--scheme", "dom-nontso",
                             "--out", str(out_file)])
        assert code == EXIT_OK
        text = out_file.read_text()
        assert out.endswith(text) and text.startswith("[attack]\n")
        _, _, params = load_config(str(out_file))
        assert params == calibrate(RunMemo(Gadget.NPEU, Ordering.VDAD, MachineConfig()), SchemeId.DOM_NONTSO).params

    def test_calibrate_out_writes_a_set_mshr_count_last(self, tmp_path):
        # The [attack] section lists AttackParams' fields in order, m last
        # when it is set, and load_config reads back the calibrated params.
        cfg_file, out_file = tmp_path / "m3.cfg", tmp_path / "attack.cfg"
        cfg_file.write_text("[attack]\nm = 3\n")
        code, out, _ = call(["calibrate", "--gadget", "mshr", "--ordering", "vdad", "--scheme", "unsafe",
                             "--config", str(cfg_file), "--out", str(out_file)])
        assert code == EXIT_OK
        text = out_file.read_text()
        assert out.endswith(text) and text.splitlines()[-1] == "m = 3"
        _, _, params = load_config(str(out_file))
        memo = RunMemo(Gadget.MSHR, Ordering.VDAD, MachineConfig())
        assert params == calibrate(memo, SchemeId.UNSAFE, AttackParams(m=3)).params

    @pytest.mark.parametrize("sender", [["npeu", "vdad", "dom-nontso"], ["mshr", "vdad", "invisispec-spectre"]])
    def test_calibrate_timing_csv_runs_each_distinct_input_once(self, run_inputs, sender, tmp_path):
        # The rows of bits 1 and 0 read the search's runs from its run memo:
        # the search's four runs and the oracle's one are all it makes.
        gadget, ordering, scheme = sender
        code, _, _ = call(["calibrate", "--gadget", gadget, "--ordering", ordering, "--scheme", scheme,
                           "--timing-csv", str(tmp_path / "timing.csv")])
        assert code == EXIT_OK
        assert len(run_inputs) == len(distinct(run_inputs)) == 5

    def test_calibrate_timing_csv_rows_match_interference_gap(self, tmp_path):
        out_file = tmp_path / "timing.csv"
        code, _, _ = call(
            ["calibrate", "--gadget", "npeu", "--ordering", "vdad", "--scheme", "dom-nontso",
             "--timing-csv", str(out_file)]
        )
        assert code == EXIT_OK
        header, *rows = out_file.read_text().splitlines()
        assert header == "label,victim_issue,victim_complete"
        assert [r.split(",")[0] for r in rows] == ["gadget_present", "gadget_inert", "gadget_removed"]
        complete = {r.split(",")[0]: int(r.split(",")[2]) for r in rows}
        gaps = (
            complete["gadget_present"] - complete["gadget_inert"],
            complete["gadget_present"] - complete["gadget_removed"],
        )
        assert gaps == interference_gap(MachineConfig(), SchemeId.DOM_NONTSO)

    def test_calibrate_timing_csv_mshr_rows(self, tmp_path):
        out_file = tmp_path / "timing.csv"
        code, _, _ = call(
            ["calibrate", "--gadget", "mshr", "--ordering", "vdad", "--scheme", "invisispec-spectre",
             "--timing-csv", str(out_file)]
        )
        assert code == EXIT_OK
        header, *rows = out_file.read_text().splitlines()
        assert header == "label,victim_issue,victim_complete"
        timing = {r.split(",")[0]: tuple(int(x) for x in r.split(",")[1:]) for r in rows}
        assert list(timing) == ["gadget_present", "gadget_inert", "gadget_removed"]
        # The executing gadget holds every MSHR, so the victim load issues late.
        assert timing["gadget_inert"] == timing["gadget_removed"]
        assert timing["gadget_present"][0] > timing["gadget_inert"][0]

    def test_calibrate_timing_csv_after_infeasible_search_times_the_configured_sender(self, tmp_path):
        # No flip under any searched candidate: the timing rows come from
        # the config's [attack] sender (m = 2), not the builder defaults.
        cfg_file = tmp_path / "m.cfg"
        cfg_file.write_text("[attack]\nm = 2\n")
        out_file = tmp_path / "timing.csv"
        code, _, _ = call(
            ["calibrate", "--gadget", "mshr", "--ordering", "vdvd", "--scheme", "unsafe",
             "--timing-csv", str(out_file), "--config", str(cfg_file)]
        )
        assert code == EXIT_INFEASIBLE
        cfg, _, params = load_config(str(cfg_file))
        plan = plan_attack(Gadget.MSHR, Ordering.VDVD, SchemeId.UNSAFE, cfg, params)
        present = victim_timing(plan)["gadget_present"]
        assert out_file.read_text().splitlines()[1] == f"gadget_present,{present[0]},{present[1]}"

    def test_calibrate_timing_csv_rs_is_a_usage_error(self, tmp_path):
        out_file = tmp_path / "timing.csv"
        code, out, err = call(
            ["calibrate", "--gadget", "rs", "--ordering", "viad", "--scheme", "dom-nontso",
             "--timing-csv", str(out_file)]
        )
        assert code == EXIT_USAGE
        assert "--timing-csv" in err and "rs" in err
        assert out == ""  # rejected before calibrating
        assert not out_file.exists()

    def test_calibrate_infeasible_exit_code(self):
        code, out, _ = call(["calibrate", "--gadget", "mshr", "--ordering", "vdad", "--scheme", "dom-nontso"])
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in out


class TestDumpPolicy:
    def test_insert_and_hit_transcript(self):
        code, out, _ = call(["dump-policy", "--ways", "4", "--accesses", "L L"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[1].endswith("ways=[L:1,-,-,-]")
        assert lines[2].endswith("ways=[L:0,-,-,-]")

    def test_eviction_after_aging(self):
        code, out, _ = call(["dump-policy", "--ways", "4", "--accesses", "A B C D E"])
        assert code == EXIT_OK
        assert "(evicted A)" in out  # leftmost age-3 way after uniform aging


    def test_zero_ways_is_a_usage_error(self):
        code, out, err = call(["dump-policy", "--ways", "0", "--accesses", "A"])
        assert code == EXIT_USAGE and out == ""
        assert "argument --ways: must be >= 1, got 0" in err


# Every [machine] key, each naming one config field, geometry field or
# EU class attribute.
MACHINE_KEYS = [
    "fetch_width", "dispatch_width", "issue_width", "retire_width", "rob_size", "rs_size", "cdb_width",
    "l1d_mshrs", "branch_resolve_extra", "writeback_delay",
    "l1_sets", "l1_ways", "llc_sets", "llc_ways", "lat_l1", "lat_llc", "lat_mem",
    "npeu_latency", "npeu_count", "alu_count", "lsu_count",
]
EU_KEYS = {"npeu_latency", "npeu_count", "alu_count", "lsu_count"}


def config_changes(cfg: MachineConfig) -> set[str]:
    """Where cfg differs from the default config: top-level and geometry
    fields by name, EU table entries as eu:<class>."""
    base = MachineConfig()
    out = {f.name for f in fields(MachineConfig) if f.name not in ("eu", "geometry")
           and getattr(cfg, f.name) != getattr(base, f.name)}
    out |= {f.name for f in fields(CacheGeometry) if getattr(cfg.geometry, f.name) != getattr(base.geometry, f.name)}
    out |= {f"eu:{k}" for k in base.eu.keys() | cfg.eu.keys() if cfg.eu.get(k) != base.eu.get(k)}
    return out


class TestConfig:
    def test_machine_overrides(self, tmp_path):
        cfg_file = tmp_path / "m.cfg"
        cfg_file.write_text("[machine]\nrs_size = 12\nnpeu_latency = 8\nlat_mem = 150\n")
        cfg, scheme, params = load_config(str(cfg_file))
        assert cfg.rs_size == 12
        assert cfg.eu["npeu"].latency == 8
        assert cfg.geometry.lat_mem == 150
        assert scheme is None and params is None

    @pytest.mark.parametrize("key", MACHINE_KEYS)
    def test_each_machine_key_sets_its_own_field(self, tmp_path, key):
        base = MachineConfig()
        if key in EU_KEYS:
            klass, _, attr = key.partition("_")
            where, value = f"eu:{klass}", getattr(base.eu[klass], attr) + 1
        else:
            where, value = key, getattr(base if hasattr(base, key) else base.geometry, key) + 1
        cfg_file = tmp_path / "m.cfg"
        cfg_file.write_text(f"[machine]\n{key} = {value}\n")
        cfg, _, _ = load_config(str(cfg_file))
        assert config_changes(cfg) == {where}
        if key in EU_KEYS:
            assert getattr(cfg.eu[klass], attr) == value
        else:
            assert getattr(cfg if hasattr(cfg, key) else cfg.geometry, key) == value

    @pytest.mark.parametrize("key", ["rob_szie", "llc_set", "eu", "geometry"])
    def test_misspelt_machine_key_is_a_usage_error(self, tmp_path, program_file, key):
        cfg_file = tmp_path / "m.cfg"
        cfg_file.write_text(f"[machine]\n{key} = 3\n")
        code, _, err = call(["run", "--program", program_file, "--config", str(cfg_file)])
        assert code == EXIT_USAGE
        assert f"unknown [machine] keys: ['{key}']" in err

    def test_readme_sample_loads(self, tmp_path):
        # README's --config sample, verbatim: it sets the default machine,
        # a scheme and two non-default sender knobs.
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        sample = re.search(r"\*\*Config file\*\*.*?\n```\n(.*?)```", readme, re.S).group(1)
        cfg_file = tmp_path / "m.cfg"
        cfg_file.write_text(sample)
        cfg, scheme, params = load_config(str(cfg_file))
        assert cfg == MachineConfig()
        assert scheme is SchemeId.DOM_NONTSO
        assert params == AttackParams(reference_offset=70, m=4)

    def test_scheme_and_attack_sections(self, tmp_path):
        cfg_file = tmp_path / "m.cfg"
        cfg_file.write_text("[scheme]\nid = dom-nontso\n\n[attack]\nz_len = 9\ng_len = 30\n")
        _, scheme, params = load_config(str(cfg_file))
        assert scheme is not None and scheme.value == "dom-nontso"
        assert params.z_len == 9 and params.g_len == 30

    def test_attack_keys_are_the_fields_of_attack_params(self):
        assert _ATTACK_KEYS == {f.name for f in fields(AttackParams)}

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "m.cfg"
        cfg_file.write_text("[machine]\nbogus_knob = 3\n")
        with pytest.raises(ValueError):
            load_config(str(cfg_file))

    def test_unknown_section_rejected(self, tmp_path):
        cfg_file = tmp_path / "m.cfg"
        cfg_file.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ValueError):
            load_config(str(cfg_file))

    def test_cli_surfaces_config_errors_as_usage(self, tmp_path, program_file):
        cfg_file = tmp_path / "m.cfg"
        cfg_file.write_text("[machine]\nbogus = 1\n")
        code, _, err = call(["run", "--program", program_file, "--config", str(cfg_file)])
        assert code == EXIT_USAGE and "bogus" in err

    @pytest.mark.parametrize(
        "text, line",
        [
            ("rs_size = 12\n", "line: 1"),  # no section header
            ("[machine]\nrs_size = 12\nrs_size = 14\n", "[line 3]"),  # duplicate key
        ],
    )
    def test_malformed_config_file_is_a_usage_error(self, tmp_path, program_file, text, line):
        cfg_file = tmp_path / "m.cfg"
        cfg_file.write_text(text)
        code, out, err = call(["run", "--program", program_file, "--config", str(cfg_file)])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and line in err and len(err.splitlines()) == 1

    def test_percent_in_a_value_is_not_interpolated(self, tmp_path, program_file):
        cfg_file = tmp_path / "m.cfg"
        cfg_file.write_text("[machine]\nrs_size = 12%\n")
        code, _, err = call(["run", "--program", program_file, "--config", str(cfg_file)])
        assert code == EXIT_USAGE and "12%" in err

    @pytest.mark.parametrize("key", ["l1_sets", "l1_ways", "llc_sets", "llc_ways", "lat_l1", "lat_llc", "lat_mem"])
    def test_zero_cache_geometry_is_a_usage_error(self, tmp_path, program_file, key):
        cfg_file = tmp_path / "m.cfg"
        cfg_file.write_text(f"[machine]\n{key} = 0\n")
        code, out, err = call(["run", "--program", program_file, "--config", str(cfg_file)])
        assert code == EXIT_USAGE and out == ""
        assert f"{key} must be >= 1" in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("npeu_latency = 1", "the non-pipelined EU class needs latency >= 2"),
            ("alu_count = 0", "eu class alu has invalid latency/count"),
        ],
    )
    def test_bad_eu_entry_is_a_usage_error(self, tmp_path, program_file, line, message):
        cfg_file = tmp_path / "m.cfg"
        cfg_file.write_text(f"[machine]\n{line}\n")
        code, out, err = call(["run", "--program", program_file, "--config", str(cfg_file)])
        assert code == EXIT_USAGE and out == ""
        assert message in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[machine]\nrs_size = x\n", "[machine] rs_size: expected an integer, got 'x'"),
            ("[machine]\nnpeu_latency = 2.5\n", "[machine] npeu_latency: expected an integer, got '2.5'"),
            ("[attack]\nz_len = many\n", "[attack] z_len: expected an integer, got 'many'"),
            ("[scheme]\nid = dom\n", "[scheme] id: unknown scheme 'dom'"),
        ],
    )
    def test_bad_value_names_section_and_key(self, tmp_path, program_file, text, message):
        cfg_file = tmp_path / "m.cfg"
        cfg_file.write_text(text)
        code, out, err = call(["run", "--program", program_file, "--config", str(cfg_file)])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[machine]\nlat_mem = 0\n", "lat_mem must be >= 1 (config line 2)"),
            ("[machine]\nwriteback_delay = -1\n", "writeback_delay must be >= 0 (config line 2)"),
            ("[machine]\nrob_size = 100\nbranch_resolve_extra = -1\n", "branch_resolve_extra must be >= 0 (config line 3)"),
            ("[machine]\nrob_size = 100\n\n# the LLC\nLLC_Ways = 0\n", "llc_ways must be >= 1 (config line 5)"),
            ("[machine]\nrs_size = 12\nalu_count = 0\n", "eu class alu has invalid latency/count (config line 3)"),
            ("[scheme]\nid = unsafe\n\n[attack]\nz_len = 9\ng_len = many\n",
             "[attack] g_len: expected an integer, got 'many' (config line 6)"),
            ("[DEFAULT]\nrs_size = x\n[machine]\nrob_size = 100\n",
             "[machine] rs_size: expected an integer, got 'x' (config line 2)"),
            ("[machine]\nrs_size = 12\nBogus = 1\n", "unknown [machine] keys: ['bogus'] (config line 3)"),
            ("[machine]\nrs_size = 12\n\n[mystery]\n", "unknown config section [mystery] (config line 4)"),
        ],
    )
    def test_bad_section_key_or_value_names_its_line(self, tmp_path, program_file, text, message):
        cfg_file = tmp_path / "m.cfg"
        cfg_file.write_text(text)
        code, out, err = call(["run", "--program", program_file, "--config", str(cfg_file)])
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {message}\n"

    def test_usage_error_exit_two(self):
        code, _, _ = call(["attack", "--gadget", "npeu"])  # missing required args
        assert code == EXIT_USAGE
