"""Child processes of the benchmark, started by ``run.py`` from the root of
the checkout with ``PYTHONPATH=src``:

    python3 perfbench/child.py [--spans FILE] [--op ID] MODE ARGS...

Modes:
  cli ARGS...        ``gvccarbon.cli.main(ARGS)``, traced (the untraced
                     operation runs ``python3 -m gvccarbon.cli`` itself)
  synthetic ARGS...  ``gvccarbon.synthetic.main(ARGS)``, traced
  world DIR ...      write the OECD-sized world, print set-up time and
                     the reference values for the output checks
  accounts-setup ... generate the in-memory world of ``oecd_accounts_mem``
                     and pickle it for the operations process
  accounts ...       the long-lived operations process of ``oecd_accounts_mem``

With ``--spans`` the library is wrapped by ``tracer.install`` and the
spans are written to FILE when the mode ends.
"""

import time

START = time.perf_counter()  # world set-up time includes its imports

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer, install  # noqa: E402


def run_cli(tracer, argv):
    with tracer.span("cli.import"):
        from gvccarbon import cli
    install(tracer)
    with tracer.span("cli.main"):
        return cli.main(argv)


def run_synthetic(tracer, argv):
    from gvccarbon import synthetic
    install(tracer)
    synthetic.main(argv)
    return 0


def _config_text(countries, industries, years):
    return "\n".join([
        "[data]",
        "dir = .",
        "years = " + ",".join(str(year) for year in years),
        "",
        "[sample]",
        "countries = " + ",".join(countries[:-1]),
        "oecd = " + ",".join(countries[:len(countries) // 2]),
        "",
        "[variables]",
        "manufacturing = " + ",".join(industries[:2]),
        "",
    ]) + "\n"


def run_world(tracer, args):
    from gvccarbon import ingest
    import world

    if tracer:
        install(tracer)
    target = Path(args.dir)
    target.mkdir(parents=True, exist_ok=True)
    tables = world.generate(args.seed, args.countries, args.industries,
                            args.years)
    tonnes = []
    for icio, intensity in tables:
        ingest.save_icio(icio, target / f"icio_{icio.year}.csv")
        tonnes.append(intensity.e * icio.x)
        ingest.save_emissions(icio, tonnes[-1],
                              target / f"emissions_{icio.year}.csv")
    countries, industries = world.codes(args.countries, args.industries)
    (target / "oecd.cfg").write_text(
        _config_text(countries, industries, world.years(args.years)),
        encoding="utf-8")
    setup_s = time.perf_counter() - START

    refs = {}
    for (icio, _), t in zip(tables, tonnes):
        ref = world.reference(icio, world.loaded_intensity(icio.x, t))
        refs[icio.year] = {k: v.tolist() for k, v in ref.items()}
    print(json.dumps({"setup_s": setup_s, "refs": refs}))
    return 0


def run_accounts_setup(tracer, args):
    """Generate the world in memory ``--repeats`` times, timing each, then
    pickle the last copy and its reference values to ``--tables`` for the
    operations process, so that its peak memory is the operations' own."""
    import world

    if tracer:
        install(tracer)
    setup_s = []
    for k in range(args.repeats):
        if tracer:
            tracer.op = f"setup-{k}"
        tables = None  # release the previous copy before building the next
        start = time.perf_counter()
        tables = world.generate(args.seed, args.countries, args.industries,
                                args.years)
        setup_s.append(time.perf_counter() - start)
    refs = [world.reference(icio, intensity.e) for icio, intensity in tables]
    with open(args.tables, "wb") as handle:
        pickle.dump((tables, refs), handle, protocol=5)
    input_bytes = sum(a.nbytes for icio, intensity in tables
                      for a in (icio.Z, icio.F, icio.x, intensity.e))
    print(json.dumps({"setup_s": setup_s, "input_bytes": input_bytes}))
    return 0


def run_accounts(tracer, args):
    """Load the tables ``accounts-setup`` pickled, then run operations
    (build_model + compute_accounts + conservation_gap for one year, the
    years in turn) for ``--seconds``, checking each one."""
    from gvccarbon import mrio
    import checks

    if tracer:
        install(tracer)
    with open(args.tables, "rb") as handle:
        tables, refs = pickle.load(handle)

    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < args.seconds:
        i = len(ops)
        icio, intensity = tables[i % len(tables)]
        if tracer:
            tracer.op = i
        model = accounts = None
        t0 = time.perf_counter()
        try:
            model = mrio.build_model(icio)
            accounts = mrio.compute_accounts(icio, model, intensity)
            gap = mrio.conservation_gap(icio, model, intensity)
        except Exception as exc:  # a failed operation is counted, not fatal
            wall = time.perf_counter() - t0
            failures = [f"{icio.year}: {type(exc).__name__}: {exc}"]
        else:
            wall = time.perf_counter() - t0
            grids = {key: accounts.indicator(key) for key in mrio.INDICATOR_KEYS}
            failures = checks.check_accounts(icio.year, gap, grids,
                                             refs[i % len(refs)], icio.countries)
        ops.append({"wall_s": wall, "failures": failures})
        del model, accounts

    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump({"ops": ops}, handle)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="trace, and write the spans here")
    parser.add_argument("--op", default="0", help="operation id of the spans")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("cli", "synthetic"):
        sub.add_parser(mode, add_help=False)  # every argument is forwarded
    world_mode = sub.add_parser("world")
    world_mode.add_argument("dir")
    setup_mode = sub.add_parser("accounts-setup")
    setup_mode.add_argument("--tables", required=True)
    setup_mode.add_argument("--repeats", type=int, required=True)
    accounts_mode = sub.add_parser("accounts")
    accounts_mode.add_argument("--tables", required=True)
    accounts_mode.add_argument("--result", required=True)
    accounts_mode.add_argument("--seconds", type=float, required=True)
    for mode in (world_mode, setup_mode):
        mode.add_argument("--seed", type=int, required=True)
        mode.add_argument("--countries", type=int, required=True)
        mode.add_argument("--industries", type=int, required=True)
        mode.add_argument("--years", type=int, required=True)
    args, forwarded = parser.parse_known_args()
    if args.mode in ("cli", "synthetic") and not args.spans:
        parser.error(f"{args.mode} runs traced only; give --spans")
    if forwarded and args.mode not in ("cli", "synthetic"):
        parser.error(f"unrecognized arguments: {' '.join(forwarded)}")

    tracer = Tracer() if args.spans else None
    if tracer:
        tracer.op = args.op
    try:
        if args.mode == "cli":
            return run_cli(tracer, forwarded)
        if args.mode == "synthetic":
            return run_synthetic(tracer, forwarded)
        if args.mode == "world":
            return run_world(tracer, args)
        if args.mode == "accounts-setup":
            return run_accounts_setup(tracer, args)
        return run_accounts(tracer, args)
    finally:
        if tracer:
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
