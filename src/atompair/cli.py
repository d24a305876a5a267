"""Command-line front end.

Subcommands: ``coeffs``, ``evolve``, ``sweep``, ``region``; each takes
``--config <path>`` or ``--preset <name>``, plus ``--out <dir>``. The
config is validated in full before the output directory is created. Output
tables are UTF-8 CSV with LF line endings, a fixed column order and 17
significant digits; every table comes with a JSON metadata sidecar carrying
the resolved parameters, package version and a sha256 checksum. Every
float field of every table is printed by ``format_rows``, exactly
``"%.17g" % x``: it prints a whole table at once on arrays, with digits
certified from a double-double product, and leaves each row holding a
value it cannot certify (nan, inf, an exact decimal tie, a magnitude
outside about 1e-250..1e250) to Python's ``%``. The text columns of the
``coeffs`` and ``region`` tables are joined to its lines row by row.
The tables are the arrays the sweeps return, their event columns named by
``EVENT_FIELDS``; an events JSON reads each row by ``EntanglementEvents.from_row``.
Grid cells run in one process, scanned in blocks of a fixed size;
``--threads <n>`` is still accepted (n >= 1) and changes nothing, so reruns
of the same config are byte-identical for any value.

Exit codes: 0 success, 2 configuration/validation error, 3 computation
error (a MemoryError too, e.g. a grid too large to allocate), 4 I/O error.
"""

import argparse
import functools
import hashlib
import itertools
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .coefficients import coefficient_rows
from .config import RunConfig, load_config, load_preset, preset_names
from .entanglement import EVENT_FIELDS, EntanglementEvents
from .errors import AtompairError, ConfigError
from .sweeps import LABEL_NAMES, run_curve, run_events, run_region_map

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_IO = 4

_POP_NAMES = ("pGG", "pAA", "pSS", "pEE")
_CELL_COLUMNS = ("a_over_omega", "omega_L")


# format_rows: one 48-byte field per value, every byte a format may print at
# its fixed place (sign, "0.000", digit/point pairs d0 . d1 . ... d16 .,
# "e", exponent sign and three digits, separator, two pad bytes). A keep
# mask picked by the format's class and the last nonzero digit zeroes what
# "%.17g" would not print, and the NUL bytes are deleted at the end.
_FIELD = 48
_DIGIT, _EXP, _SEP = 6, 40, 45    # bytes of d0 (its point follows), of "e", of the separator
# |x| where the double-double product can neither overflow nor underflow,
# the powers 10**(16 - floor(log10|x|)) it needs, and the exponents, with margin
_CERTAIN = (1e-250, 1e250)
_P10_MIN, _P10_MAX = -235, 267
_EXP_MIN, _EXP_MAX = -260, 260
# format classes: 0..20 fixed-point with exponent -4..16, then exponent
# style with two or three exponent digits, then zero
_E2, _E3, _ZERO = 21, 22, 23


class _Tables(NamedTuple):
    p10_hi: np.ndarray      # 10**p as hi + lo, by p - _P10_MIN
    p10_lo: np.ndarray
    head: np.ndarray        # word 0: sign, "0.000", d0 and its point, by 10 * sign + d0
    quad: np.ndarray        # words 1-4: four digits, each followed by a point, by their value
    last4: np.ndarray       # index 0..3 of a group's last nonzero digit, -100 for 0000
    exps: np.ndarray        # word 5 without separator, by exponent - _EXP_MIN
    mask_base: np.ndarray   # 17 * format class, by exponent - _EXP_MIN
    masks: np.ndarray       # keep masks (6 words), by 17 * class + last nonzero digit


def _split(a):
    """Dekker's split of a into two halves of 26 bits whose sum is a."""
    t = a * 134217729.0
    hi = t - (t - a)
    return hi, a - hi


def _pow10(p):
    """10**p as a pair of doubles (hi, lo), each correctly rounded."""
    if p >= 0:
        exact = 10 ** p
        hi = float(exact)
        return hi, float(exact - int(hi))
    q = 10 ** -p
    hi = 1 / q                            # int true division rounds correctly
    num, den = hi.as_integer_ratio()
    return hi, (den - num * q) / (den * q)


def _keep(cls, last):
    """Bytes of a field kept for format class cls when d<last> is the last
    nonzero digit of the 17."""
    digit = [_DIGIT + 2 * i for i in range(17)]
    keep = [0, _SEP]                      # the sign byte is NUL for positives
    if cls == _ZERO:
        return keep + [1]
    if cls < _E2:
        exp = cls - 4
        if exp >= 0:                      # integer digits, then a point if a fraction is left
            keep += digit[:max(exp, last) + 1]
            if last > exp:
                keep.append(digit[exp] + 1)
        else:                             # "0." and -exp - 1 zeros before d0
            keep += [1, 2, *range(3, 2 - exp)] + digit[:last + 1]
        return keep
    keep += digit[:last + 1] + [_EXP, _EXP + 1, _EXP + 3, _EXP + 4]
    if last > 0:
        keep.append(digit[0] + 1)
    if cls == _E3:
        keep.append(_EXP + 2)
    return keep


def _words(rows):
    """Byte rows (n, 8 * w) as little-endian uint64 words (n, w)."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view("<u8")


@functools.cache
def _tables() -> _Tables:
    p10 = np.array([_pow10(p) for p in range(_P10_MIN, _P10_MAX + 1)])
    ascii_digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    point, zero = ord("."), ord("0")
    head = [[s, zero, point, zero, zero, zero, zero + d, point]
            for s in (0, ord("-")) for d in range(10)]
    quad = np.full((10000, 8), point, dtype=np.uint8)
    quad[:, 0::2] = ascii_digits[np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10]
    nonzero = quad[:, 0::2] != zero
    last4 = np.where(nonzero.any(axis=1), 3 - np.argmax(nonzero[:, ::-1], axis=1), -100)
    exp = np.arange(_EXP_MIN, _EXP_MAX + 1)
    exps = np.zeros((exp.size, 8), dtype=np.uint8)
    exps[:, 0] = ord("e")
    exps[:, 1] = np.where(exp < 0, ord("-"), ord("+"))
    exps[:, 2:5] = ascii_digits[np.abs(exp)[:, None] // [100, 10, 1] % 10]
    cls = np.where((exp >= -4) & (exp <= 16), exp + 4, np.where(np.abs(exp) < 100, _E2, _E3))
    masks = np.zeros((_ZERO + 1, 17, _FIELD), dtype=np.uint8)
    for c in range(_ZERO + 1):
        for last in range(17):
            masks[c, last, _keep(c, last)] = 0xFF
    return _Tables(p10[:, 0], p10[:, 1], _words(head)[:, 0], _words(quad)[:, 0], last4,
                   _words(exps)[:, 0], 17 * cls, _words(masks.reshape(-1, _FIELD)))


def format_rows(values) -> bytes:
    """CSV body of an (m, k) float table: each field ``"%.17g" % x``, fields
    joined by "," and each row ended by a newline.

    The 17 digits are y = |x| * 10**(16 - e10) rounded to an integer, where
    e10 = floor(log10|x|): y is a double-double (Dekker's exact product
    against 10**p stored as two doubles), accurate to well under 1e-14, so
    its rounding is certain unless the fraction is within 1e-6 of 1/2. A
    row holding a value not certified that way is printed by Python's %.
    """
    values = np.asarray(values, dtype=np.float64)
    m, k = values.shape
    t = _tables()
    a = np.abs(values)
    zero = a == 0
    inside = (a >= _CERTAIN[0]) & (a <= _CERTAIN[1])
    a = np.where(inside, a, 1.0)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    hi = t.p10_hi.take(16 - _P10_MIN - e10)
    lo = t.p10_lo.take(16 - _P10_MIN - e10)
    # prod + err = a * hi exactly, so y_hi + y_lo = a * (hi + lo) to ~1e-31
    prod = a * hi
    ah, al = _split(a)
    hh, hl = _split(hi)
    err = ((ah * hh - prod) + ah * hl + al * hh) + al * hl
    tail = err + a * lo
    y_hi = prod + tail
    y_lo = tail - (y_hi - prod)
    # y >= 2**53, so y_hi is an integer and y_lo carries the fraction. The
    # floor of y, not its rounding, must have 17 digits: a y just below
    # 1e16 (log10 rounded up to an integer) has only 16 to round.
    whole = np.floor(y_lo)
    frac = y_lo - whole
    floor = y_hi.astype(np.int64) + whole.astype(np.int64)
    n = floor + (frac > 0.5)
    ok = inside & (np.abs(frac - 0.5) > 1e-6) & (floor >= 10 ** 16) & (n < 10 ** 17)
    ok |= zero
    n[~ok | zero] = 10 ** 16
    e10[~ok] = 0
    # d0 and four groups of four digits
    top = n // 10 ** 8
    low = n - top * 10 ** 8
    d0 = top // 10 ** 8
    top -= d0 * 10 ** 8
    groups = []
    for part in (top, low):
        upper = part // 10 ** 4
        groups += [upper, part - upper * 10 ** 4]
    last = np.zeros_like(d0)               # index of the last nonzero digit
    for i, g in enumerate(groups):
        np.maximum(last, t.last4.take(g) + (4 * i + 1), out=last)
    mask = t.mask_base.take(e10 - _EXP_MIN) + last
    mask[zero] = 17 * _ZERO
    fields = np.empty((m, k, _FIELD // 8), dtype=np.uint64)
    fields[..., 0] = t.head.take(10 * np.signbit(values) + d0)
    for i, g in enumerate(groups):
        fields[..., i + 1] = t.quad.take(g)
    sep = np.full(k, ord(","), dtype=np.uint64)
    sep[-1] = ord("\n")
    fields[..., 5] = t.exps.take(e10 - _EXP_MIN) | (sep << np.uint64(8 * (_SEP - _EXP)))
    fields &= t.masks.take(mask, axis=0)
    body = fields.tobytes()
    if ok.all():
        return body.translate(None, b"\0")
    row_fmt = ",".join(["%.17g"] * k) + "\n"
    step = k * _FIELD
    parts = []
    start = 0
    for i in np.flatnonzero(~ok.all(axis=1)).tolist():
        parts.append(body[start * step:i * step].translate(None, b"\0"))
        parts.append((row_fmt % tuple(values[i].tolist())).encode())
        start = i + 1
    parts.append(body[start * step:].translate(None, b"\0"))
    return b"".join(parts)


def _write_text(path: Path, parts) -> str:
    """Write the byte strings ``parts`` to ``path`` in order; returns the
    sha256 of the file. No part is joined to another first."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in parts:
            fh.write(part)
            digest.update(part)
    return digest.hexdigest()


def _json(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def _events_payload(spec, table):
    cells = []
    for a, L, rows in zip(*spec.cells(), table):
        modes = {mode.value: vars(EntanglementEvents.from_row(row))
                 for mode, row in zip(spec.bath_modes, rows)}
        cells.append({"cell": {"a_over_omega": float(a), "omega_L": float(L)},
                      "modes": modes})
    return {"panel": spec.label, "cells": cells}


def _write_outputs(config: RunConfig, out_dir, command: str, panel: str,
                   stem: str, columns, body, events=None, extra=None):
    """Write one panel: ``<stem>.csv`` (the header line, then the byte
    chunks of ``body``), the events payload as ``<stem>.events.json`` when
    given, and ``<stem>.meta.json``, which records the resolved parameters
    and the sha256 of the other two."""
    files = {}
    name = f"{stem}.csv"
    files[name] = _write_text(out_dir / name, [(",".join(columns) + "\n").encode(), *body])
    if events is not None:
        name = f"{stem}.events.json"
        files[name] = _write_text(out_dir / name, [_json(events)])
    meta = {"name": config.name, "command": command, "panel": panel,
            "version": __version__, "parameters": config.raw, "files": files,
            "columns": list(columns)}
    meta.update(extra or {})
    _write_text(out_dir / f"{stem}.meta.json", [_json(meta)])


# ---------------------------------------------------------------------------
# subcommands

def cmd_coeffs(config: RunConfig, out_dir):
    a_values = config.axis_values("a_over_omega")
    L_values = config.axis_values("omega_L")
    columns = ["polarization", "a_over_omega", "omega_L", "bath", "atom_order",
               "A1", "B1", "A2", "B2"]
    a, L = (g.ravel() for g in np.meshgrid(a_values, L_values, indexing="ij"))
    rows = []
    pretty = []
    for d1, d2, pol_label in config.polarizations:
        # rows by a, then omega_L, bath and atom order; the order 21 is the
        # order 12 of the swapped pair
        table = np.stack([coefficient_rows(a, L, d1, d2, config.bath_modes),
                          coefficient_rows(a, L, d2, d1, config.bath_modes)],
                         axis=1).reshape(-1, 4)
        cells = np.repeat(np.column_stack([a, L]), 2 * len(config.bath_modes), axis=0)
        numbers = format_rows(np.column_stack([cells, table])).decode().splitlines()
        keys = itertools.product(a_values, L_values, config.bath_modes, ("12", "21"))
        for (a_k, L_k, bath, order), cs, line in zip(keys, table.tolist(), numbers):
            a_text, L_text, cs_text = line.split(",", 2)
            rows.append(f"{pol_label},{a_text},{L_text},{bath.value},{order},{cs_text}\n")
            pretty.append([pol_label, f"{a_k:g}", f"{L_k:g}", bath.value, order,
                           *(f"{v:.8f}" for v in cs)])
    widths = [max(len(columns[k]), max(len(r[k]) for r in pretty))
              for k in range(len(columns))]
    print("  ".join(c.rjust(widths[k]) for k, c in enumerate(columns)))
    for row in pretty:
        print("  ".join(v.rjust(widths[k]) for k, v in enumerate(row)))
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_outputs(config, out_dir, "coeffs", "", f"{config.name}_coeffs",
                   columns, ["".join(rows).encode()])
    return EXIT_OK


def cmd_evolve(config: RunConfig, out_dir):
    specs = config.sweep_specs("evolve")
    out_dir.mkdir(parents=True, exist_ok=True)
    for panel, spec in specs:
        concurrence, populations, events = run_curve(spec, "events" in config.outputs)
        columns = [*_CELL_COLUMNS, "tau"]
        for mode in spec.bath_modes:
            columns.append(f"C_{mode.value}")
        for mode in spec.bath_modes:
            for pop in _POP_NAMES:
                columns.append(f"{pop}_{mode.value}")
        # per cell and time: a, L, tau, C of each mode, then the populations
        # of each mode. One table per cell keeps format_rows' 48 bytes per
        # field to one cell; a whole panel would raise peak memory
        _, nmodes, ntimes = concurrence.shape
        table = np.empty((ntimes, len(columns)))
        table[:, 2] = spec.tau
        chunks = []
        for a, L, conc, pops in zip(*spec.cells(), concurrence, populations):
            table[:, :2] = a, L
            table[:, 3:3 + nmodes] = conc.T
            table[:, 3 + nmodes:] = pops.transpose(1, 0, 2).reshape(ntimes, 4 * nmodes)
            chunks.append(format_rows(table))
        payload = _events_payload(spec, events) if events is not None else None
        _write_outputs(config, out_dir, "evolve", panel, spec.label, columns, chunks, payload)
    return EXIT_OK


def cmd_sweep(config: RunConfig, out_dir):
    specs = config.sweep_specs("sweep")
    out_dir.mkdir(parents=True, exist_ok=True)
    for panel, spec in specs:
        events = run_events(spec)
        columns = list(_CELL_COLUMNS)
        for mode in spec.bath_modes:
            columns.append(f"max_C_{mode.value}")
            columns.append(f"tau_max_{mode.value}")
        # per cell: a and L, then max_C and tau_max of each mode
        maxima = events[..., [EVENT_FIELDS.index("max_concurrence"),
                              EVENT_FIELDS.index("max_time")]]
        table = np.column_stack([*spec.cells(), maxima.reshape(len(maxima), -1)])
        payload = _events_payload(spec, events) if "events" in config.outputs else None
        _write_outputs(config, out_dir, "sweep", panel, spec.label,
                       columns, [format_rows(table)], payload)
    return EXIT_OK


def cmd_region(config: RunConfig, out_dir):
    specs = config.sweep_specs("region")
    out_dir.mkdir(parents=True, exist_ok=True)
    for panel, spec in specs:
        labels = run_region_map(spec).ravel()
        columns = [*_CELL_COLUMNS, "label"]
        cells = format_rows(np.column_stack(spec.cells())).decode().splitlines()
        body = "".join(f"{cell},{LABEL_NAMES[code]}\n"
                       for cell, code in zip(cells, labels.tolist())).encode()
        counts = dict(zip(LABEL_NAMES,
                          np.bincount(labels, minlength=len(LABEL_NAMES)).tolist()))
        _write_outputs(config, out_dir, "region", panel,
                       f"{spec.label}_region", columns, [body],
                       extra={"label_counts": counts, "criterion": spec.event_kind})
        print(f"{config.name} {panel} [{spec.event_kind}]: "
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
                       help="accepted for compatibility, must be >= 1; it "
                            "changes nothing, every run uses one process "
                            "(default: 1)")
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
    except (AtompairError, MemoryError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
