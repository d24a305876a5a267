"""One benchmark process: a set-up probe or one CLI run.

    python3 perfbench/worker.py --root DIR --result FILE [--trace SPANS] \
        probe|run -- CLI ARGS...

Both modes import ``atompair``, read the workload's --config or --preset
from CLI ARGS with the package's own argument parser and parse that
config, then note the monotonic clock; the parent started its clock just
before it started this process, so the difference is the set-up time.
``probe`` stops there. ``run`` then calls ``atompair.cli.main`` with CLI
ARGS (which parses the config once more, a few milliseconds) and records
the peak resident memory too. The result file always holds ``exit``: the
CLI's exit code, 0 after a probe, or the name of the exception that the
config parse or the CLI raised. With ``--trace`` the layer functions are
wrapped first and the spans are written to SPANS at the end; without it
the tracer is never imported.

The package is imported from ``DIR/src`` only; the worker exits with
code 2 when it is not there.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def import_package(root):
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))
    import atompair.cli
    if not Path(atompair.cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"atompair was not imported from {src}")
    return atompair.cli


def parse_config(cli, cli_args):
    from atompair.config import load_config, load_preset
    ns = cli.build_parser().parse_args(cli_args)
    return load_preset(ns.preset) if ns.preset else load_config(ns.config)


def run_cli(cli, cli_args, spans):
    tracer = None
    if spans:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    code = cli.main(cli_args)
    if tracer is not None:
        tracer.save(spans)
    return code


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace")
    parser.add_argument("mode", choices=("probe", "run"))
    parser.add_argument("cli_args", nargs="*")
    ns = parser.parse_args()
    try:
        cli = import_package(ns.root)
    except ImportError as exc:
        print(f"worker: cannot import atompair: {exc}", file=sys.stderr)
        return 2

    result = {"exit": 0}
    # an error raised by the program (argparse exits) is a failed run, not a crash here
    try:
        parse_config(cli, ns.cli_args)
        result["ready"] = time.monotonic()
        if ns.mode == "run":
            result["exit"] = run_cli(cli, ns.cli_args, ns.trace)
            result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (Exception, SystemExit) as exc:
        traceback.print_exc()
        result["exit"] = f"uncaught {type(exc).__name__}"
    Path(ns.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
