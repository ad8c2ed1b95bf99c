"""Per-layer metrics of a traced pass.

``install`` wraps, from outside, the names specsim's modules import from
each other; ``metrics`` turns the recorded spans, aggregates and the
returned ``ExecutionTrace`` objects into the per-layer figures. Nothing
here changes the engine: every counter is read off what ``run()`` returns.

Time spent in ``schemes`` is charged to ``pipeline.run``: the scheme
policies run inside the engine loop, which outside-in tracing cannot
split.

A layer a workload never reaches reports 0 for its counts and ratios
(``channel`` calibrates nothing; ``defenses`` runs no receiver).
"""

from __future__ import annotations

import hashlib
import inspect
import statistics

from recorder import Recorder

RUN = "pipeline.run"
PLAN = "attacks.plan_attack"
RUN_ATTACK = "attacks.run_attack"
OBSERVE = "attacks.observe_trial"
QLRU = "memhier.qlru_touch"
BUILD = "microprog.build_attack_program"
CALIBRATE = "seccheck.calibrate"
CHECK = "seccheck.check_ideal"
CHECK_DIFF = "seccheck.check_ideal_differential"
BENCH = "seccheck.bench_overhead"


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _run_hooks(m, rec: Recorder):
    sig = inspect.signature(m.pipeline.run)
    fmt = m.microprog.format_program

    def before(args, kwargs):
        a = sig.bind(*args, **kwargs)
        a.apply_defaults()
        a = a.arguments
        image, secrets = a["image"], a["secrets"]
        scheme = getattr(a["scheme"], "value", a["scheme"])
        key = "\n".join((
            fmt(a["program"]),
            repr(a["cfg"]),
            scheme,
            repr(sorted(secrets.items())) if secrets else "-",
            image.dump() if image is not None else "-",
            repr(a["attacker"]),
            str(a["force_correct_predictions"]),
            str(a["max_cycles"]),
        ))
        return {
            "scheme": scheme,
            "key": hashlib.blake2b(key.encode(), digest_size=16).hexdigest(),
            "trial_miss": rec.caller() == OBSERVE,
            "in_calibrate": rec.enclosing(CALIBRATE),
        }

    def after(span, trace, pre):
        span.attrs.update(pre)
        if trace is None:
            return
        busy = set()
        counts = {"retire": 0, "squash": 0, "mshr_stall": 0}
        hits = accesses = 0
        for e in trace.events:
            busy.add(e.cycle)
            if e.name in counts:
                counts[e.name] += 1
            elif e.name == "l2access":
                accesses += 1
                hits += e.extra.get("result") == "hit"
        span.attrs.update(
            cycles=len(trace.occupancy),
            idle=sum(1 for row in trace.occupancy if row[0] not in busy),
            retired=counts["retire"],
            squashes=counts["squash"],
            mshr_stalls=counts["mshr_stall"],
            visible=len(trace.pattern),
            llc_accesses=accesses,
            llc_hits=hits,
        )

    return before, after


def install(m, rec: Recorder) -> None:
    before, after = _run_hooks(m, rec)
    for module in (m.attacks, m.seccheck):
        rec.span(module, "run", RUN, before, after)
        rec.span(module, "plan_attack", PLAN)
    rec.span(m.attacks, "build_attack_program", BUILD)
    rec.span(m.attacks, "run_attack", RUN_ATTACK)
    rec.span(m.attacks, "vulnerability_matrix", "attacks.vulnerability_matrix")
    rec.aggregate(m.attacks, "observe_trial", OBSERVE)
    rec.aggregate(m.attacks, "qlru_touch", QLRU)
    rec.span(m.seccheck, "matrix_calibrations", "seccheck.matrix_calibrations")
    rec.span(m.seccheck, "calibrate", CALIBRATE,
             after=lambda span, cal, _: span.attrs.update(feasible=bool(cal and cal.feasible)))
    rec.span(m.seccheck, "check_ideal", CHECK)
    rec.span(m.seccheck, "check_ideal_differential", CHECK_DIFF)
    rec.span(m.seccheck, "bench_overhead", BENCH)


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(m, rec: Recorder) -> dict[str, tuple[float, str]]:
    runs = rec.named(RUN)
    done = [s for s in runs if "cycles" in s.attrs]

    def total(attr, spans=done):
        return sum(s.attrs[attr] for s in spans)

    run_ms = [(s.end - s.start) * 1e3 for s in runs]
    cycles = total("cycles")
    out: dict[str, tuple[float, str]] = {
        "pipeline.run.calls": (len(runs), "count"),
        "pipeline.run.distinct_frac": (_frac(len({s.attrs["key"] for s in runs}), len(runs)), "frac"),
        "pipeline.run.self_s": (rec.self_s(RUN), "s"),
        "pipeline.run.ms_p50": (percentile(run_ms, 50) if runs else 0.0, "ms"),
        "pipeline.run.ms_p99": (percentile(run_ms, 99) if runs else 0.0, "ms"),
        "pipeline.us_per_cycle": (_frac(sum(run_ms) * 1e3, cycles), "us"),
    }
    for scheme in m.schemes.SchemeId:
        mine = [s for s in done if s.attrs["scheme"] == scheme.value]
        busy_ms = sum((s.end - s.start) * 1e3 for s in mine)
        out[f"pipeline.us_per_cycle.{scheme.value}"] = (_frac(busy_ms * 1e3, total("cycles", mine)), "us")
    qlru = rec.aggregates[QLRU]
    observe = rec.aggregates[OBSERVE]
    calibrations = rec.named(CALIBRATE)
    out.update({
        "pipeline.sim_cycles": (cycles, "count"),
        "pipeline.idle_cycle_frac": (_frac(total("idle"), cycles), "frac"),
        "pipeline.retired_ops": (total("retired"), "count"),
        "pipeline.squashes": (total("squashes"), "count"),
        "pipeline.deadlocks": (sum(1 for s in runs if s.attrs.get("raised") == "SimulationDeadlock"), "count"),
        "memhier.qlru_touch.calls": (qlru.calls, "count"),
        "memhier.qlru_touch.ns_per_call": (_frac(qlru.total_s * 1e9, qlru.calls), "ns"),
        "memhier.visible_accesses": (total("visible"), "count"),
        "memhier.mshr_stalls": (total("mshr_stalls"), "count"),
        "memhier.llc_hit_frac": (_frac(total("llc_hits"), total("llc_accesses")), "frac"),
        "attacks.plan_attack.calls": (len(rec.named(PLAN)), "count"),
        "attacks.plan_attack.self_s": (rec.self_s(PLAN), "s"),
        "attacks.run_attack.self_s": (rec.self_s(RUN_ATTACK), "s"),
        "attacks.observe_trial.calls": (observe.calls, "count"),
        "attacks.observe_trial.self_s": (observe.self_s, "s"),
        "attacks.trace_reuse_frac": (
            1 - _frac(sum(1 for s in runs if s.attrs["trial_miss"]), observe.calls) if observe.calls else 0.0,
            "frac",
        ),
        "seccheck.calibrate.calls": (len(calibrations), "count"),
        "seccheck.calibrate.self_s": (rec.self_s(CALIBRATE), "s"),
        "seccheck.calibrate.runs_per_call": (
            _frac(sum(1 for s in runs if s.attrs["in_calibrate"]), len(calibrations)), "count"),
        "seccheck.calibrate.feasible_frac": (
            _frac(sum(1 for s in calibrations if s.attrs.get("feasible")), len(calibrations)), "frac"),
        "seccheck.check_ideal.self_s": (rec.self_s(CHECK), "s"),
        "seccheck.check_ideal_differential.self_s": (rec.self_s(CHECK_DIFF), "s"),
        "seccheck.bench_overhead.self_s": (rec.self_s(BENCH), "s"),
        "microprog.build_attack_program.self_s": (rec.self_s(BUILD), "s"),
    })
    return out
