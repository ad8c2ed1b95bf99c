"""Corpus-wide byte-identity pins for the cycle engine.

Every run below is reduced to one sha256 digest of its complete observable
output: the event log, the occupancy CSV, the per-op timestamps, the final
LLC state and the total cycle count. The digests in tests/golden/corpus.sha256
were recorded from the stepping engine; an engine change that moves any
byte of any of these traces fails here.

tests/golden/config_corpus.sha256 pins the same digests over the corners of
the configuration space: mutated random programs (NPEU and NOP ops, fence
points, marked I-lines, taken-stream ends) under small ROB/RS/CDB/MSHR
sizes, slow write-back and branch resolution, attacker scripts, forced
predictions and max_cycles. A run that raises is pinned by the exact text
of its exception, so deadlock diagnostics and the max_cycles cycle are
pinned too. Both files were recorded before the MSHR-stall stretches were
batched. When deadlock detection became exact, 30 config-corpus outcomes
were re-pinned, all ten schemes of three corner seeds:
  - corner26/* and corner55/*: each raised a false deadlock, because an
    850-cycle write-back outlasted the old window of rob_size (4) times
    the largest EU or memory latency (200). Each now pins the trace the
    old engine gave with that window unbounded.
  - corner46/*: the ROB drained and the clock jumped past max_cycles=222
    to an attacker access at cycle 325, which was logged. Each now pins
    "exceeded max_cycles=222", as stepping one cycle at a time gives.

tests/golden/sender_programs.sha256 pins the attack senders themselves:
every (gadget, ordering) pair under three machine configs and a grid of
sender parameters, edge values included. Each case is reduced to the digest
of its program text, its role annotations in order and its attacker script,
or to the text of the ConstructionError that rejects it. The file was
recorded from the builders that spliced the reference chain into a built
gadget, before senders were assembled in program order.

tests/golden/calibrations.sha256 pins calibration: every constructible
sender under all ten schemes on the default machine, each reduced to the
digest of its (feasible, params, trace) result. The file was recorded
before calibration skipped the bit-1 runs the secret cannot reach.

Regenerate only after an intended behaviour change: python3 tests/make_golden.py
"""

import hashlib
import itertools
import random
from dataclasses import replace
from pathlib import Path

from specsim.attacks import attack_image
from specsim.machine import EuClass, MachineConfig
from specsim.memhier import CacheImage, Level
from specsim.microprog import (
    AttackParams,
    ConstructionError,
    Gadget,
    Literal,
    MicroOp,
    MicroProgram,
    OpKind,
    Ordering,
    build_attack_program,
    format_program,
    parse_program,
)
from specsim.pipeline import ExecutionTrace, SimulationDeadlock, _Engine, run
from specsim.schemes import SchemeId, insert_fences, scheme_spec
from specsim.seccheck import calibrate, gen_random_program, synth_suite

from test_pipeline import constructible_senders, diamond_program, stall_stretch_program

CFG = MachineConfig()
CORPUS_DIGESTS = Path(__file__).parent / "golden" / "corpus.sha256"
CONFIG_CORPUS_DIGESTS = Path(__file__).parent / "golden" / "config_corpus.sha256"
SENDER_DIGESTS = Path(__file__).parent / "golden" / "sender_programs.sha256"
CALIBRATION_DIGESTS = Path(__file__).parent / "golden" / "calibrations.sha256"
RANDOM_SEEDS = 60
CONFIG_SEEDS = 64
TRIGGER_SEEDS = 30


def trace_digest(trace: ExecutionTrace) -> str:
    text = (
        trace.serialize()
        + trace.occupancy_csv()
        + repr(trace.op_times)
        + repr(trace.llc_state)
        + str(trace.total_cycles)
    )
    return hashlib.sha256(text.encode()).hexdigest()


def corpus_runs():
    """(label, run() arguments) for every pinned run: random corpus programs
    (squashes, mixed load levels), the synthetic overhead suite (fences,
    RS-hold), every attack sender with both secrets (protected I-fetch,
    scripted attacker accesses) and a dependence diamond (look-ahead), each
    under all ten schemes."""
    programs = []
    for seed in range(RANDOM_SEEDS):
        program, image = gen_random_program(seed)
        programs.append((f"corpus{seed}", program, {"image": image}))
    for bench in synth_suite(1):
        programs.append((f"synth1-{bench.name}", bench.program, {"image": bench.image}))
    for gadget, ordering, program, script in constructible_senders():
        image = attack_image(gadget, CFG)
        for secret in (0, 1):
            kw = {"image": image, "attacker": script, "secrets": {"s0": secret}}
            programs.append((f"attack-{gadget.value}-{ordering.value}-s{secret}", program, kw))
    program, image = diamond_program(16)
    programs.append(("diamond16", program, {"image": image}))
    for label, program, kw in programs:
        for scheme in SchemeId:
            yield f"{label}/{scheme.value}", program, scheme, kw


def corpus_digests() -> dict[str, str]:
    return {
        label: trace_digest(run(program, CFG, scheme, **kw))
        for label, program, scheme, kw in corpus_runs()
    }


def format_digests(digests: dict[str, str]) -> str:
    return "".join(f"{label} {digest}\n" for label, digest in digests.items())


def test_corpus_traces_match_pinned_digests():
    pinned = dict(line.split() for line in CORPUS_DIGESTS.read_text().splitlines())
    actual = corpus_digests()
    assert actual.keys() == pinned.keys()
    moved = [label for label in actual if actual[label] != pinned[label]]
    assert not moved, f"{len(moved)} traces changed, first: {moved[:5]}"


ILINES = [800_000 + k for k in range(6)]
ATTACKER_LINES = [900_000 + k for k in range(4)] + ILINES[:3]


def mutated_program(seed: int) -> tuple[MicroProgram, CacheImage]:
    """A gen_random_program program with some ALU ops turned into NPEU ops
    or NOP markers, fence points, marked I-lines (scripted, LLC-resident
    and absent) and taken-stream ends on predicted-taken branches."""
    program, image = gen_random_program(seed, max_ops=40)
    rng = random.Random(f"mutate:{seed}")
    ops = []
    for op in program.ops:
        if op.kind is OpKind.ALU and op.id > 0:
            roll = rng.random()
            if roll < 0.15:
                op = replace(op, kind=OpKind.NPEU)
            elif roll < 0.3:
                op = replace(op, kind=OpKind.NOP, src_deps=())
        if op.branch is not None and op.branch.predicted_taken and rng.random() < 0.5:
            op = replace(op, branch=replace(op.branch, taken_stream_ends=True))
        if rng.random() < 0.1:
            op = replace(op, fence_after=True)
        if rng.random() < 0.15:
            op = replace(op, iline=rng.choice(ILINES))
        ops.append(op)
    mutated = MicroProgram(ops=ops)
    scripts = {**image.scripts, ILINES[0]: Level.LLCHIT, ILINES[1]: Level.MEMMISS}
    llc_set = ILINES[2] % CFG.geometry.llc_sets
    return mutated, CacheImage(llc={llc_set: [(ILINES[2], rng.randrange(4))]}, scripts=scripts)


def corner_config(rng: random.Random) -> MachineConfig:
    return replace(
        CFG,
        issue_width=rng.choice([1, 2, 4]),
        retire_width=rng.choice([1, 4]),
        rob_size=rng.choice([4, 6, 8, 16, 192]),
        rs_size=rng.choice([2, 3, 4, 8, 40]),
        cdb_width=rng.choice([1, 1, 2, 4]),
        l1d_mshrs=rng.choice([1, 1, 2, 2, 4]),
        writeback_delay=rng.choice([1, 1, 2, 7, 120, 450, 850]),
        branch_resolve_extra=rng.choice([1, 1, 3, 90, 300]),
    )


def config_corpus_runs():
    """(label, program, config, scheme, run() arguments) for every pinned
    corner run: each mutated program under one drawn corner config and all
    ten schemes, the MSHR sender under two MSHRs (it cannot be built with
    one), and a one-MSHR stall stretch cut by max_cycles before, inside and
    after the stretches."""
    for seed in range(CONFIG_SEEDS):
        rng = random.Random(f"corner:{seed}")
        program, image = mutated_program(seed)
        cfg = corner_config(rng)
        kw = {"image": image, "force_correct_predictions": rng.random() < 0.2}
        if rng.random() < 0.4:
            kw["attacker"] = [(rng.randrange(400), rng.choice(ATTACKER_LINES)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            kw["max_cycles"] = rng.randint(1, 600)
        for scheme in SchemeId:
            yield f"corner{seed}/{scheme.value}", program, cfg, scheme, kw
    cfg = replace(CFG, l1d_mshrs=2)
    image = attack_image(Gadget.MSHR, cfg)
    for ordering in Ordering:
        try:
            program, script = build_attack_program(ordering, Gadget.MSHR, cfg)
        except ConstructionError:
            continue
        for secret in (0, 1):
            kw = {"image": image, "attacker": script, "secrets": {"s0": secret}}
            for scheme in SchemeId:
                yield f"mshr2-{ordering.value}-s{secret}/{scheme.value}", program, cfg, scheme, kw
    cfg = replace(CFG, l1d_mshrs=1)
    program, image = stall_stretch_program(4)
    for max_cycles in (None, 1, 2, 3, 100, 201, 202, 402, 650):
        kw = {"image": image, "max_cycles": max_cycles}
        for scheme in (SchemeId.UNSAFE, SchemeId.INVISISPEC_SPECTRE):
            yield f"stall4-max{max_cycles}/{scheme.value}", program, cfg, scheme, kw


def run_outcome(program, cfg, scheme, kw) -> str:
    """One run's digest, or the text of the exception that ended it."""
    try:
        return "trace:" + trace_digest(run(program, cfg, scheme, **kw))
    except SimulationDeadlock as e:
        return f"raise:{e}"


def config_corpus_digests() -> dict[str, str]:
    return {label: run_outcome(program, cfg, scheme, kw) for label, program, cfg, scheme, kw in config_corpus_runs()}


def test_config_corpus_matches_pinned_digests():
    pinned = dict(line.split(" ", 1) for line in CONFIG_CORPUS_DIGESTS.read_text().splitlines())
    actual = config_corpus_digests()
    assert actual.keys() == pinned.keys()
    moved = [label for label in actual if actual[label] != pinned[label]]
    assert not moved, f"{len(moved)} runs changed, first: {[(m, actual[m]) for m in moved[:3]]}"


def test_max_cycles_bounds_every_config_corpus_run():
    for label, program, cfg, scheme, kw in config_corpus_runs():
        k = kw.get("max_cycles")
        if k is None:
            continue
        try:
            trace = run(program, cfg, scheme, **kw)
        except SimulationDeadlock:
            continue
        assert all(c < k for c, *_ in trace.records), label
        assert all(c < k for c, *_ in trace.occupancy), label


# Every fifth corner seed, the three whose outcomes the old windowed
# deadlock detector got wrong (26 and 55: false deadlocks; 46: an attacker
# access past max_cycles), and the one-MSHR stall stretch under max_cycles.
STEPPED_GROUPS = {f"corner{seed}" for seed in (*range(0, CONFIG_SEEDS, 5), 26, 46, 55)}


def stepped_slice():
    return [r for r in config_corpus_runs() if r[0].split("/")[0] in STEPPED_GROUPS or r[0].startswith("stall4-")]


PHASES = (
    _Engine._phase_mshr_returns,
    _Engine._phase_cdb,
    _Engine._phase_resolve_and_squash,
    _Engine._phase_safe_transitions,
    _Engine._phase_attacker,
    _Engine._phase_issue,
    _Engine._phase_frontend,
    _Engine._phase_retire,
)


def reference_run(program, cfg, scheme, secrets=None, image=None, attacker=None,
                  force_correct_predictions=False, max_cycles=None) -> ExecutionTrace:
    """run() as the plain definition of the engine: all eight phases on
    every cycle, with no trigger deciding which of them may act, and one
    cycle at a time while the ROB or the frontend holds work. Deadlock and
    the drained jump still go through _next_event. A fence scheme runs the
    fenced copy with no fence model, so the fence points come from the
    copy's own fence_after flags, not from run()'s fence-point table."""
    spec = scheme_spec(scheme)
    if spec.fence_model is not None:
        program = insert_fences(program, spec.fence_model)
        spec = replace(spec, fence_model=None)
    e = _Engine(program, cfg, spec, secrets, image, attacker, force_correct_predictions)
    n = len(program.ops)
    while True:
        if e.fetch_pos >= n and not e.rob:
            nxt = e._next_event(max_cycles)
            if nxt is None:
                break
            e.cycle = max(e.cycle, nxt)
        if max_cycles is not None and e.cycle >= max_cycles:
            raise SimulationDeadlock(f"exceeded max_cycles={max_cycles}")
        n_events = len(e.records)
        for phase in PHASES:
            phase(e)
        e.occupancy.append((e.cycle, e.rs_count, len(e.hier.mshrs.entries), e.inflight))
        e.cycle += 1
        new = e.records[n_events:]
        if all(r[1] == "mshr_stall" for r in new) and (e.rob or e.fetch_pos < n):
            if e._next_event(max_cycles) is None:
                raise SimulationDeadlock(e._deadlock_diagnostic())
    return e._finish()


def run_fields(runner, program, cfg, scheme, kw):
    """Every observable of one run, or the text of the exception ending it."""
    try:
        t = runner(program, cfg, scheme, **kw)
    except SimulationDeadlock as exc:
        return f"raise:{exc}"
    return (t.records, t.op_times, t.occupancy, t.pattern, t.llc_state, t.total_cycles, t.secret_read_cycle)


def trigger_runs():
    """(label, program, config, scheme, run() arguments): random corpus
    programs and every default sender with both secrets under all ten
    schemes, plus the stepped slice of the config corpus."""
    runs = []
    for seed in range(TRIGGER_SEEDS):
        program, image = gen_random_program(seed)
        runs += [(f"corpus{seed}", program, CFG, {"image": image})]
    for gadget, ordering, program, script in constructible_senders():
        for secret in (0, 1):
            kw = {"image": attack_image(gadget, CFG), "attacker": script, "secrets": {"s0": secret}}
            runs += [(f"attack-{gadget.value}-{ordering.value}-s{secret}", program, CFG, kw)]
    runs = [(f"{label}/{s.value}", program, cfg, s, kw) for label, program, cfg, kw in runs for s in SchemeId]
    return runs + stepped_slice()


def test_engine_fence_points_are_those_insert_fences_marks():
    # run() reads the fence points from the program's tables instead of
    # running a fenced copy; both come from one rule, which keeps an op's
    # own fence.
    programs = [gen_random_program(seed)[0] for seed in range(TRIGGER_SEEDS)]
    programs += [mutated_program(seed)[0] for seed in range(CONFIG_SEEDS)]
    programs += [program for _, _, program, _ in constructible_senders()]
    assert any(op.fence_after for p in programs for op in p.ops)
    for program in programs:
        for scheme in (SchemeId.FENCE_SPECTRE, SchemeId.FENCE_FUTURISTIC):
            spec = scheme_spec(scheme)
            engine = _Engine(program, CFG, spec, None, None, None, False)
            fenced = insert_fences(program, spec.fence_model)
            assert engine.shadow.fence_points == tuple(op.fence_after for op in fenced.ops)


def test_phase_triggers_change_no_outcome():
    # Each phase of run() is skipped while its trigger says it cannot act;
    # calling every phase on every cycle must give the same run, field by
    # field, deadlock and max_cycles texts included.
    for label, program, cfg, scheme, kw in trigger_runs():
        expected = run_fields(reference_run, program, cfg, scheme, kw)
        assert run_fields(run, program, cfg, scheme, kw) == expected, label


def test_mshr_and_resolve_phases_run_only_when_due(monkeypatch):
    # Their triggers are exact: every call frees an MSHR or resolves a
    # branch, so it logs at least one record.
    idle = []
    for name in ("_phase_mshr_returns", "_phase_resolve_and_squash"):
        phase = getattr(_Engine, name)

        def logged(self, _phase=phase, _name=name):
            before = len(self.records)
            _phase(self)
            if len(self.records) == before:
                idle.append((_name, self.cycle))

        monkeypatch.setattr(_Engine, name, logged)
    for label, program, cfg, scheme, kw in trigger_runs():
        run_fields(run, program, cfg, scheme, kw)
        assert not idle, (label, idle)


SENDER_CONFIGS = {
    "default": CFG,
    "small": replace(CFG, rs_size=4, l1d_mshrs=2),
    "div": replace(
        CFG,
        rs_size=16,
        l1d_mshrs=8,
        eu={"alu": EuClass(True, 1, 4), "div": EuClass(False, 20, 1), "lsu": EuClass(True, 1, 2)},
        geometry=replace(CFG.geometry, llc_sets=64),
    ),
}


def sender_grid(cfg: MachineConfig, gadget: Gadget, ordering: Ordering):
    """(label, params) over the values each sender reads: below, at and
    past every bound, with the defaults (None) where there are any."""
    axes = {
        Gadget.MSHR: {"z_len": (0, 1, 12), "m": (None, 1, 2, cfg.l1d_mshrs + 1)},
        Gadget.NPEU: {"z_len": (0, 1, 12), "f_len": (0, 1, 3), "fp_len": (0, 1, 4)},
        Gadget.RS: {"rs_slots": (None, cfg.rs_size - 1, cfg.rs_size + 2)},
    }[gadget]
    if ordering in (Ordering.VDVD, Ordering.VIVD):
        axes["g_len"] = (0, 1, 25)
    else:
        axes["reference_offset"] = (60, 7)
    for values in itertools.product(*axes.values()):
        kw = dict(zip(axes, values))
        yield ",".join(f"{k}={v}" for k, v in kw.items()), AttackParams(**kw)


def sender_digests() -> dict[str, str]:
    out = {}
    for name, cfg in SENDER_CONFIGS.items():
        for gadget in Gadget:
            for ordering in Ordering:
                for label, params in sender_grid(cfg, gadget, ordering):
                    key = f"{name}/{gadget.value}-{ordering.value}/{label}"
                    try:
                        program, script = build_attack_program(ordering, gadget, cfg, params)
                    except ConstructionError as e:
                        out[key] = f"raise:{e}"
                        continue
                    text = format_program(program) + repr(list(program.annotations.items())) + repr(script)
                    out[key] = "program:" + hashlib.sha256(text.encode()).hexdigest()
    return out


def test_sender_programs_match_pinned_digests():
    pinned = dict(line.split(" ", 1) for line in SENDER_DIGESTS.read_text().splitlines())
    actual = sender_digests()
    assert actual.keys() == pinned.keys()
    moved = [label for label in actual if actual[label] != pinned[label]]
    assert not moved, f"{len(moved)} senders changed, first: {[(m, actual[m]) for m in moved[:3]]}"


def test_every_pinned_program_round_trips_through_its_text():
    programs = {label.split("/")[0]: program for label, program, _, _ in corpus_runs()}
    programs.update({label.split("/")[0]: program for label, program, *_ in config_corpus_runs()})
    for name, cfg in SENDER_CONFIGS.items():
        for gadget in Gadget:
            for ordering in Ordering:
                for label, params in sender_grid(cfg, gadget, ordering):
                    try:
                        program, _ = build_attack_program(ordering, gadget, cfg, params)
                    except ConstructionError:
                        continue
                    programs[f"{name}/{gadget.value}-{ordering.value}/{label}"] = program
    for label, program in programs.items():
        text = format_program(program)
        again = parse_program(text)
        assert again == program and format_program(again) == text, label


def calibration_digests() -> dict[str, str]:
    out = {}
    for gadget, ordering, _, _ in constructible_senders():
        for scheme in SchemeId:
            cal = calibrate(gadget, ordering, scheme, CFG)
            text = repr((cal.feasible, cal.params, cal.trace))
            out[f"{gadget.value}-{ordering.value}/{scheme.value}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_calibrations_match_pinned_digests():
    pinned = dict(line.split(" ", 1) for line in CALIBRATION_DIGESTS.read_text().splitlines())
    actual = calibration_digests()
    assert actual.keys() == pinned.keys()
    moved = [label for label in actual if actual[label] != pinned[label]]
    assert not moved, f"{len(moved)} calibrations changed, first: {moved[:5]}"


def test_make_golden_check_writes_nothing_and_exits_1_on_a_change(tmp_path, monkeypatch, capsys):
    import make_golden

    same, moved = tmp_path / "same.sha256", tmp_path / "moved.sha256"
    for path in (same, moved):
        path.write_text("a 1\nb 2\n")
    texts = [(same, "a 1\nb 2\n"), (moved, "a 1\nb 3\n")]
    monkeypatch.setattr(make_golden, "golden_texts", lambda: iter(texts))
    assert make_golden.main(["--check"]) == 1
    assert moved.read_text() == "a 1\nb 2\n"
    assert capsys.readouterr().out == "same.sha256: 0 of 2 changed\nmoved.sha256: 1 of 2 changed\n"
    monkeypatch.setattr(make_golden, "golden_texts", lambda: iter(texts[:1]))
    assert make_golden.main(["--check"]) == 0
