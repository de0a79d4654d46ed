"""Batch experiment harness.

Subcommands:

* ``pipeline`` -- full end-to-end runs (round trace CSV + yield ledger JSON)
* ``phase N``  -- phase 1, 2 or 3 alone, each its own parser, on freshly
  sampled bits; phases 2 and 3 draw binomial bits at their plan's entry level
* ``analyze``  -- recurrence orbits, schedules and constants, no sampling
* ``arch``     -- pulse-sequence permutation reports for a polymer ring
* ``equiv``    -- compiled-versus-abstract equivalence suites
* ``bench``    -- step-count scaling and fitted runtime exponents

Exit codes: 0 success, 1 validation error, 2 conformance/assertion failure
(``pipeline``: a trial left a one in its clean prefix, yielded no bits or
yielded more than the entropy cap).
Every emitted byte is a function of (config, seed); trial parallelism
(``--jobs``) merges results in seed order so it never changes output bytes.
``SPINREF_SEED`` provides the default seed and must be an integer >= 0.
Flags are matched exactly, never by prefix.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, compiler, cooling, perms, polymer, reports, thermal

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFORMANCE = 2


def _default_seed():
    value = os.environ.get("SPINREF_SEED", "0")
    try:
        seed = int(value)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise ValueError(f"SPINREF_SEED must be an integer >= 0, got {value!r}")


# flag -> (add_argument options, default); a flag left unset takes the
# config file's value, else the default
_FLAGS = {
    "n": ({"type": int}, 1_000_000),
    "epsilon": ({"type": float}, 0.25),
    "model": ({"choices": ["binomial", "markov"]}, "binomial"),
    "ell": ({"type": int}, 10),
    "seed": ({"type": int}, None),  # SPINREF_SEED when resolved
    "trials": ({"type": int}, 1),
    "target_bias": ({"type": float}, analysis.TARGET_BIAS),
    "format": ({"choices": ["csv", "json"]}, "csv"),
    "mode": ({"choices": ["binomial-direct", "shuffled-blocks"]}, "binomial-direct"),
    "jobs": ({"type": int}, 1),
    "pattern": ({"type": str}, "ABC"),
    "periods": ({"type": int}, 3),
    "sizes": ({"type": str}, "729,2187,6561,19683"),  # 3^6..3^9
    "tol": ({"type": float}, 0.15),
    "out": ({"type": str}, "."),
}

# subcommand -> the smallest --n it plans for, where that is not the mod-4
# certificate's analysis.PHASE3_MIN_N: pairing takes any population, and the
# parity plan's stationary level needs 2 bits
_LEAST_N = {"phase 1": (1, ""), "phase 2": (2, " for the parity-binning plan")}

# flag -> (valid value test, message), checked in this order when read, after
# --n
_CHECKS = {
    "trials": (lambda v: v >= 1, "--trials must be >= 1"),
    "jobs": (lambda v: v >= 1, "--jobs must be >= 1"),
    "epsilon": (lambda v: analysis.EPSILON_MIN <= v <= 1.0,
                f"--epsilon must lie in [{analysis.EPSILON_MIN:g}, 1]"),
    "target_bias": (lambda v: 0.0 < v < 1.0, "--target-bias must lie in (0, 1)"),
    "ell": (lambda v: v >= 1, "--ell must be >= 1"),
    "seed": (lambda v: v >= 0, "--seed must be >= 0"),
    "pattern": (lambda v: v.upper() in ("ABC", "ABCD"), "--pattern must be ABC or ABCD"),
    "periods": (lambda v: v >= 1, "--periods must be >= 1"),
    "tol": (lambda v: v >= 0.0, "--tol must be a number >= 0"),  # nan fails too
}


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="spinref", description=__doc__.splitlines()[0], allow_abbrev=False
    )
    sub = ap.add_subparsers(dest="command", metavar="SUBCOMMAND", required=True)
    groups = {}
    for command, (help_text, flags, _) in _COMMANDS.items():
        name, _, which = command.partition(" ")
        if which:  # "phase N" is parser N under ``phase``
            if name not in groups:
                group = sub.add_parser(name, help="run a single phase", allow_abbrev=False)
                groups[name] = group.add_subparsers(
                    dest="command", metavar=name.upper(), required=True
                )
            p = groups[name].add_parser(which, help=help_text, allow_abbrev=False)
        else:
            p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.set_defaults(command=command)
        for key in flags + ("out",):
            p.add_argument("--" + key.replace("_", "-"), default=None, **_FLAGS[key][0])
        p.add_argument("--config", type=str, default=None)
    return ap


def _config_value(key, value):
    """A config-file value for flag ``key``, held to the flag's own type: an
    int flag takes a JSON integer (not a bool), a float flag a JSON number,
    stored as a float, a choice flag one of its choices, and ``out`` a
    string."""
    options = _FLAGS[key][0]
    kind = options.get("type")
    if "choices" in options:
        ok, want = value in options["choices"], "one of " + ", ".join(options["choices"])
    elif kind is int:
        ok, want = type(value) is int, "an integer"
    elif kind is float:
        ok, want = type(value) in (int, float) and abs(value) <= sys.float_info.max, "a number"
    else:
        ok, want = isinstance(value, str), "a string"
    if not ok:
        raise ValueError(f"config file: --{key.replace('_', '-')} takes {want}, "
                         f"not {json.dumps(value)}")
    return float(value) if kind is float else value


def _bench_sizes(text):
    """``bench --sizes``: at least 4 distinct integers, none below the
    smallest population the phase-3 certificate takes."""
    try:
        sizes = [int(s) for s in text.split(",")]
    except ValueError:
        raise ValueError(f"--sizes takes a comma list of integers, not {text!r}") from None
    if min(sizes) < analysis.PHASE3_MIN_N:
        raise ValueError(f"--sizes must all be >= {analysis.PHASE3_MIN_N}, got {min(sizes)}")
    if len(sizes) < 4 or len(set(sizes)) < len(sizes):
        raise ValueError("--sizes takes at least 4 distinct sizes to fit a slope")
    return sizes


def _resolve(args):
    """Config-file values fill the unset flags the subcommand reads; explicit
    flags always win.  Config keys of flags it does not read are ignored."""
    flags = _COMMANDS[args.command][1] + ("out",)
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
    for key in flags:
        if getattr(args, key) is not None:
            continue
        if key in cfg:
            setattr(args, key, _config_value(key, cfg[key]))
        else:
            setattr(args, key, _default_seed() if key == "seed" else _FLAGS[key][1])
    if "n" in flags:
        least, purpose = _LEAST_N.get(args.command,
                                      (analysis.PHASE3_MIN_N, " for the mod-4 certificate"))
        if args.n < least:
            raise ValueError(f"--n must be >= {least}{purpose}")
    for key, (valid, message) in _CHECKS.items():
        if key in flags and not valid(getattr(args, key)):
            raise ValueError(message)
    if "mode" in flags and args.model == "markov" and args.mode == "binomial-direct":
        raise ValueError("--model markov needs --mode shuffled-blocks: "
                         "binomial-direct assumes independent bits")


def _model(args):
    if args.model == "binomial":
        return thermal.BiasModel("binomial", args.epsilon)
    return thermal.BiasModel("markov", args.epsilon, ell=args.ell)


def _records_payload(records, fmt, outdir, stem):
    if fmt == "json":
        rows = [{f: getattr(r, f) for f in reports.ROUND_FIELDS} for r in records]
        reports.write_text(outdir / f"{stem}.json", reports.to_json(rows))
    else:
        reports.write_text(outdir / f"{stem}.csv", reports.records_to_csv(records))


def _pipeline_trial(payload):
    model, n, seed, mode = payload
    res = cooling.pipeline(model, n, seed, mode=mode)
    return {
        "seed": seed,
        "clean_bits": res.clean_bits,
        "ones_out": int(res.bits.sum()),
        "steps": res.steps,
        "ledger": res.ledger.as_dict(),
        "records": res.records,
    }


def _map_trials(fn, payloads, jobs):
    if jobs <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    with multiprocessing.Pool(processes=min(jobs, len(payloads))) as pool:
        return pool.map(fn, payloads)


def _cmd_pipeline(args, outdir):
    model = _model(args)
    payloads = [(model, args.n, args.seed + t, args.mode) for t in range(args.trials)]
    results = _map_trials(_pipeline_trial, payloads, args.jobs)
    _records_payload(results[0]["records"], args.format, outdir, "rounds")
    summary = {
        "config": {
            "model": args.model,
            "epsilon": args.epsilon,
            "ell": args.ell if args.model == "markov" else None,
            "n": args.n,
            "seed": args.seed,
            "trials": args.trials,
            "mode": args.mode,
        },
        "trials": [
            {k: r[k] for k in ("seed", "clean_bits", "ones_out", "steps")}
            for r in results
        ],
        "ledger": results[0]["ledger"],
    }
    reports.write_text(outdir / "ledger.json", reports.to_json(summary))
    # the simulator knows the ground truth: a clean prefix that holds a one,
    # or none at all, is a conformance failure, as is a yield over the cap
    cap = results[0]["ledger"]["entropy_cap"]
    ok = all(0 < r["clean_bits"] <= cap and r["ones_out"] == 0 for r in results)
    return EXIT_OK if ok else EXIT_CONFORMANCE


def _entry_bits(delta, n, seed):
    """n independent bits, each 1 with probability ``delta``."""
    return thermal.sample(thermal.BiasModel("binomial", 1.0 - 2.0 * delta), n, seed)


def _cmd_phase(args, outdir):
    # phases 2 and 3 take bits already at the level their plan enters at
    stem = args.command.replace(" ", "")  # "phase 2" -> phase2_rounds.csv
    if stem == "phase1":
        bits = thermal.sample(_model(args), args.n, args.seed)
        rounds = cooling.plan_rounds(analysis.forward_orbit(args.epsilon, args.target_bias))
    elif stem == "phase2":
        delta0 = cooling.PHASE2_DELTA_MAX
        bits = _entry_bits(delta0, args.n, args.seed)
        rounds = cooling.plan_rounds(phase2=cooling.phase2_plan(delta0, args.n),
                                     seed=np.random.SeedSequence(args.seed))
    else:
        cert = analysis.phase3_certificate(args.n)
        bits = _entry_bits(cert.deltas[0], args.n, args.seed)
        rounds = cooling.plan_rounds(certificate=cert)
    out, recs = cooling.run_rounds(bits, rounds)
    short = [rec.round for rec in recs if rec.phase == 1 and rec.n_in < 2]
    if short:
        # the bits the pairing rounds need depend on the draw, so a too
        # small --n shows only when they run out
        raise ValueError(f"--n {args.n} is too small: population exhausted after {short[0]} "
                         f"pairing rounds; {len(recs) - short[0]} more needed to reach bias "
                         f"{args.target_bias}")
    _records_payload(recs, args.format, outdir, f"{stem}_rounds")
    summary = {
        "n_in": int(args.n),
        "n_out": int(len(out)),
        "ones_out": int(out.sum()),
        "rounds": len(recs),
    }
    reports.write_text(outdir / f"{stem}_summary.json", reports.to_json(summary))
    return EXIT_OK


def _cmd_analyze(args, outdir):
    plan = cooling.make_plan(args.epsilon, args.n)
    reports.write_text(outdir / "bias_orbit.csv", reports.orbit_to_csv("epsilon", plan.orbit))
    back = analysis.backward_orbit(analysis.TARGET_BIAS, max(len(plan.orbit) - 1, 7))
    reports.write_text(outdir / "bias_orbit_backward.csv", reports.orbit_to_csv("epsilon", back))
    reports.write_text(
        outdir / "parity_plan.csv",
        reports.orbit_to_csv("delta", [plan.delta2] + [p.delta_out for p in plan.phase2]),
    )
    cert = plan.certificate
    payload = {
        "epsilon": args.epsilon,
        "target_bias": analysis.TARGET_BIAS,
        "phase1_rounds": len(plan.orbit) - 1,
        "phase1_overhead_sq": analysis.phase1_overhead(args.epsilon) ** 2,
        "phase2_plan": [
            {"k": p.k, "delta_in": p.delta_in, "delta_out": p.delta_out} for p in plan.phase2
        ],
        "phase3_rounds": cert.rounds,
        "phase3_final_delta": cert.final_delta,
        "phase3_loss_factors": cert.loss_factors,
        "ledger_constant": analysis.ledger_constant(),
        "entropy_cap": analysis.entropy_cap(args.n, args.epsilon),
    }
    reports.write_text(outdir / "analysis.json", reports.to_json(payload))
    return EXIT_OK


def _cmd_arch(args, outdir):
    """``arch.json`` for one ring.  ABCD: the two-tape rotation fixes every B
    and D site and advances A/C by one period.  ABC: the realized logical
    shift, its logical order, and ``n_applications_identity``, whether n
    shifts are the identity: they are iff every orbit's length
    (``perms.cycles``) divides n, so the shift is never composed n times."""
    pattern = tuple(args.pattern.upper())
    payload = {"pattern": "".join(pattern), "periods": args.periods}
    ok = True
    if pattern == ("A", "B", "C", "D"):
        spec = polymer.two_tape_spec(args.periods)
        perm = polymer.induced_permutation(spec, polymer.two_tape_rotate_seq())
        A, C = spec.positions_of("A"), spec.positions_of("C")
        fixed = all(
            int(perm[i]) == i for i in spec.positions_of("B") + spec.positions_of("D")
        )
        adv = all(int(perm[A[i]]) == A[(i + 1) % args.periods] for i in range(args.periods))
        adv &= all(int(perm[C[i]]) == C[(i - 1) % args.periods] for i in range(args.periods))
        payload.update(
            {
                "sequence": polymer.sequence_to_text(polymer.two_tape_rotate_seq()).split(),
                "bd_fixed": fixed,
                "ac_advance_one_period": adv,
                "tracks": [len(c) for c in polymer.track_decomposition(perm)],
            }
        )
        ok = fixed and adv
    else:
        spec = polymer.single_tape_spec(args.periods)
        rs = polymer.realize_abstract_shift(spec)
        closes = all(spec.ring_length % len(c) == 0 for c in perms.cycles(rs.permutation))
        payload.update(
            {
                "sequence": polymer.sequence_to_text(rs.sequence).split("\n")[:-1],
                "logical_order": [int(x) for x in rs.logical_order],
                "n_applications_identity": closes,
                "pulse_cost_per_shift": rs.pulse_cost,
            }
        )
        ok = closes
    reports.write_text(outdir / "arch.json", reports.to_json(payload))
    return EXIT_OK if ok else EXIT_CONFORMANCE


def _cmd_equiv(args, outdir):
    def pair(bits):
        return cooling.phase1_round(bits)[0]

    # (suite, program, abstract round, width, samples); None checks every input
    suites = {
        name: compiler.equivalence_check(program, abstract, width, samples, args.seed).as_dict()
        for name, program, abstract, width, samples in (
            ("phase1_w8", compiler.compile_phase1(8), pair, 8, None),
            ("phase1_w64", compiler.compile_phase1(64), pair, 64, 1000),
            ("phase2_n12_k3", compiler.compile_phase2_round(12, 3),
             lambda b: cooling.phase2_round(b, 3, seed=None)[0], 12, None),
        )
    }
    reports.write_text(outdir / "equiv.json", reports.to_json(suites))
    bad = sum(s["mismatches"] for s in suites.values())
    return EXIT_OK if bad == 0 else EXIT_CONFORMANCE


def _cmd_bench(args, outdir):
    sizes = _bench_sizes(args.sizes)
    model = _model(args)
    totals = {"single": [], "two_tape": [], "two_tape_ca": []}
    for n in sizes:
        res = cooling.pipeline(model, n, args.seed, mode="shuffled-blocks")
        for a in totals:
            totals[a].append(res.steps[a])
    slopes = {a: analysis.runtime_exponent(a, sizes, totals[a]) for a in totals}
    payload = {
        "sizes": sizes,
        "steps": totals,
        "slopes": slopes,
        "expected": analysis.EXPECTED_SLOPES,
        "tolerance": args.tol,
    }
    reports.write_text(outdir / "bench.json", reports.to_json(payload))
    ok = all(
        abs(slopes[a] - analysis.EXPECTED_SLOPES[a]) <= args.tol for a in slopes
    )
    return EXIT_OK if ok else EXIT_CONFORMANCE


# subcommand -> (help, the flags it reads besides --out and --config,
# handler)
_COMMANDS = {
    "pipeline": ("full cooling run", ("n", "epsilon", "model", "ell", "seed", "trials",
                                      "format", "mode", "jobs"), _cmd_pipeline),
    "phase 1": ("pairing up to --target-bias",
                ("n", "epsilon", "model", "ell", "seed", "target_bias", "format"), _cmd_phase),
    "phase 2": ("the planned parity-binning rounds", ("n", "seed", "format"), _cmd_phase),
    "phase 3": ("the certified mod-4 rounds", ("n", "seed", "format"), _cmd_phase),
    "analyze": ("orbits, schedules, constants", ("n", "epsilon"), _cmd_analyze),
    "arch": ("pulse-permutation verification", ("pattern", "periods"), _cmd_arch),
    "equiv": ("compiled-vs-abstract suites", ("seed",), _cmd_equiv),
    "bench": ("runtime-exponent fits", ("epsilon", "model", "ell", "seed", "sizes", "tol"),
              _cmd_bench),
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _resolve(args)
        return _COMMANDS[args.command][2](args, Path(args.out))
    except (ValueError, OSError) as exc:
        print(f"spinref: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
