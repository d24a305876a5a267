"""Command-line front end.

Subcommands: ``coeffs``, ``evolve``, ``sweep``, ``region``; each takes
``--config <path>`` or ``--preset <name>``, plus ``--out <dir>``. The
config is validated in full before the output directory is created. Output
tables are UTF-8 CSV with LF line endings, a fixed column order and 17
significant digits; every table comes with a JSON metadata sidecar carrying
the resolved parameters, package version and a sha256 checksum. Grid cells
run one at a time; ``--threads <n>`` is still accepted (n >= 1) and changes
nothing, so reruns of the same config are byte-identical for any value.

Exit codes: 0 success, 2 configuration/validation error, 3 computation
error, 4 I/O error.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .coefficients import BathKind, SystemParams, assemble
from .config import RunConfig, load_config, load_preset, preset_names
from .errors import AtompairError, ConfigError
from .sweeps import LABEL_NAMES, run_curve, run_events, run_region_map

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_IO = 4

_MODE_SUFFIX = {BathKind.ACCELERATED_VACUUM: "accelerated",
                BathKind.THERMAL_AT_UNRUH: "thermal"}
_POP_NAMES = ("pGG", "pAA", "pSS", "pEE")


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_text(path: Path, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv(columns, rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _events_payload(spec, result):
    cells = []
    for ci, cell in enumerate(result.cells):
        modes = {_MODE_SUFFIX[mode]: dataclasses.asdict(result.events(ci, mi))
                 for mi, mode in enumerate(result.modes)}
        cells.append({"cell": {k: float(v) for k, v in cell.items()},
                      "modes": modes})
    return {"panel": spec.label, "cells": cells}


def _write_outputs(config: RunConfig, out_dir, command: str, panel: str,
                   stem: str, columns, rows, events=None, extra=None):
    """Write one panel: ``<stem>.csv``, the events payload as
    ``<stem>.events.json`` when given, and ``<stem>.meta.json``, which
    records the resolved parameters and the sha256 of the other two."""
    files = {}
    name = f"{stem}.csv"
    files[name] = _write_text(out_dir / name, _csv(columns, rows))
    if events is not None:
        name = f"{stem}.events.json"
        files[name] = _write_text(out_dir / name, _json(events))
    meta = {"name": config.name, "command": command, "panel": panel,
            "version": __version__, "parameters": config.raw, "files": files,
            "columns": list(columns)}
    meta.update(extra or {})
    _write_text(out_dir / f"{stem}.meta.json", _json(meta))


# ---------------------------------------------------------------------------
# subcommands

def cmd_coeffs(config: RunConfig, out_dir):
    config.check_command("coeffs")
    a_values = config.axis_values("a_over_omega")
    L_values = config.axis_values("omega_L")
    columns = ["polarization", "a_over_omega", "omega_L", "bath", "atom_order",
               "A1", "B1", "A2", "B2"]
    rows = []
    pretty = []
    for d1, d2, pol_label in config.polarizations:
        for a in a_values:
            for L in L_values:
                for bath in config.bath_modes:
                    params = SystemParams(
                        a_over_omega=float(a), omega_L=float(L),
                        dipole1=d1, dipole2=d2, bath=bath)
                    for order in (12, 21):
                        cs = assemble(params, order)
                        rows.append([pol_label, _fmt(a), _fmt(L), bath.value,
                                     str(order), _fmt(cs.A1), _fmt(cs.B1),
                                     _fmt(cs.A2), _fmt(cs.B2)])
                        pretty.append([pol_label, f"{a:g}", f"{L:g}", bath.value,
                                       str(order), f"{cs.A1:.8f}", f"{cs.B1:.8f}",
                                       f"{cs.A2:.8f}", f"{cs.B2:.8f}"])
    widths = [max(len(columns[k]), max(len(r[k]) for r in pretty))
              for k in range(len(columns))]
    print("  ".join(c.rjust(widths[k]) for k, c in enumerate(columns)))
    for row in pretty:
        print("  ".join(v.rjust(widths[k]) for k, v in enumerate(row)))
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_outputs(config, out_dir, "coeffs", "", f"{config.name}_coeffs",
                   columns, rows)
    return EXIT_OK


def cmd_evolve(config: RunConfig, out_dir):
    specs = config.sweep_specs("evolve")
    out_dir.mkdir(parents=True, exist_ok=True)
    for panel, spec in specs:
        curve = run_curve(spec)
        cell_cols = [name for name, _ in spec.cell_axes()]
        columns = list(cell_cols) + ["tau"]
        for mode in curve.modes:
            columns.append(f"C_{_MODE_SUFFIX[mode]}")
        for mode in curve.modes:
            for pop in _POP_NAMES:
                columns.append(f"{pop}_{_MODE_SUFFIX[mode]}")
        rows = []
        for ci, cell in enumerate(curve.cells):
            head = [_fmt(cell[name]) for name in cell_cols]
            for kt, tau in enumerate(curve.times):
                row = head + [_fmt(tau)]
                for mi in range(len(curve.modes)):
                    row.append(_fmt(curve.concurrence[ci, mi, kt]))
                for mi in range(len(curve.modes)):
                    row.extend(_fmt(curve.populations[ci, mi, kt, m]) for m in range(4))
                rows.append(row)
        events = (_events_payload(spec, run_events(spec))
                  if "events" in config.outputs else None)
        _write_outputs(config, out_dir, "evolve", panel, f"{config.name}_{panel}",
                       columns, rows, events)
    return EXIT_OK


def cmd_sweep(config: RunConfig, out_dir):
    specs = config.sweep_specs("sweep")
    out_dir.mkdir(parents=True, exist_ok=True)
    for panel, spec in specs:
        events = run_events(spec)
        cell_cols = [name for name, _ in spec.cell_axes()]
        columns = list(cell_cols)
        for mode in events.modes:
            columns.append(f"max_C_{_MODE_SUFFIX[mode]}")
            columns.append(f"tau_max_{_MODE_SUFFIX[mode]}")
        max_c = events.column("max_concurrence")
        max_t = events.column("max_time")
        rows = []
        for ci, cell in enumerate(events.cells):
            row = [_fmt(cell[name]) for name in cell_cols]
            for mi in range(len(events.modes)):
                row.append(_fmt(max_c[ci, mi]))
                row.append(_fmt(max_t[ci, mi]))
            rows.append(row)
        payload = _events_payload(spec, events) if "events" in config.outputs else None
        _write_outputs(config, out_dir, "sweep", panel, f"{config.name}_{panel}",
                       columns, rows, payload)
    return EXIT_OK


def cmd_region(config: RunConfig, out_dir):
    specs = config.sweep_specs("region")
    out_dir.mkdir(parents=True, exist_ok=True)
    for panel, spec in specs:
        region = run_region_map(spec)
        columns = ["a_over_omega", "omega_L", "label"]
        rows = []
        for i, a in enumerate(region.a_values):
            for j, L in enumerate(region.L_values):
                rows.append([_fmt(a), _fmt(L), LABEL_NAMES[region.labels[i, j]]])
        counts = region.counts()
        _write_outputs(config, out_dir, "region", panel,
                       f"{config.name}_{panel}_region", columns, rows,
                       extra={"label_counts": counts, "criterion": region.criterion})
        print(f"{config.name} {panel} [{region.criterion}]: "
              + ", ".join(f"{k}={v}" for k, v in counts.items()))
    return EXIT_OK


_HANDLERS = {"coeffs": cmd_coeffs, "evolve": cmd_evolve,
             "sweep": cmd_sweep, "region": cmd_region}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atompair",
        description="Entanglement dynamics of a uniformly accelerated pair of "
                    "two-level atoms, with a static thermal-bath comparison.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("coeffs", "print/write the dissipator coefficient table"),
                      ("evolve", "concurrence and population curves over time"),
                      ("sweep", "maximum concurrence over a parameter axis"),
                      ("region", "event classification over the (a, L) plane")):
        p = sub.add_parser(name, help=doc)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--config", type=Path, help="YAML run configuration")
        group.add_argument("--preset", type=str,
                           help=f"shipped preset name ({', '.join(preset_names())})")
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory (default: ./out)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility, must be >= 1; grid "
                            "cells run one at a time (default: 1)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {ns.threads}")
        config = load_preset(ns.preset) if ns.preset else load_config(ns.config)
        handler = _HANDLERS[ns.command]
        return handler(config, ns.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AtompairError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
